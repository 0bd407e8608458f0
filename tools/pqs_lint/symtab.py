"""Per-file symbol/scope tables for pqs_lint's flow-aware passes.

`build_model(rel_path, text)` parses one translation unit with the
lightweight tokenizer and produces a JSON-serializable FileModel dict:

  functions: every function/method *definition* (and declarations that
      carry a PQS_REQUIRES annotation), with the facts the cross-TU rules
      need — calls made (with held locks), schedule_in/schedule_at sites
      (classified by where the returned EventId goes), cancel() coverage,
      heap-allocation and raw-entropy sites, accesses of member-like
      identifiers (trailing-underscore / g_ convention) with the lock
      set held at the access point, and PQS_REQUIRES contracts;
  classes: member fields whose type involves EventId (cancellable event
      handles) and fields annotated PQS_GUARDED_BY(mutex);
  globals: namespace-scope variables annotated PQS_GUARDED_BY(mutex).

The parser is heuristic by design (no preprocessing, no template
instantiation): constructs it cannot classify are skipped, never fatal.
Accuracy is pinned by tools/pqs_lint/test_pqs_lint.py and the fixture
suite in tests/lint_fixtures/.
"""

import re

from cpplex import (COMMENT, IDENT, PP, PUNCT, code_tokens, comment_lines,
                    tokenize)

KEYWORDS = {
    "if", "else", "for", "while", "do", "switch", "case", "default",
    "return", "break", "continue", "goto", "sizeof", "alignof", "decltype",
    "new", "delete", "throw", "try", "catch", "static_cast", "dynamic_cast",
    "const_cast", "reinterpret_cast", "co_await", "co_return", "co_yield",
    "this", "nullptr", "true", "false", "operator", "template", "typename",
    "const", "constexpr", "consteval", "constinit", "static", "inline",
    "virtual", "explicit", "friend", "mutable", "volatile", "register",
    "extern", "using", "typedef", "namespace", "class", "struct", "union",
    "enum", "public", "private", "protected", "noexcept", "override",
    "final", "auto", "void", "bool", "char", "short", "int", "long",
    "float", "double", "unsigned", "signed", "requires", "concept",
    "and", "or", "not",
}

LOCK_TYPES = {"lock_guard", "scoped_lock", "unique_lock", "shared_lock"}

SCHEDULE_CALLS = {"schedule_in", "schedule_at"}

FIRE_FORGET_RE = re.compile(r"pqs-lint:\s*fire-and-forget\s*(?:\(([^)]*)\))?")
HOT_RE = re.compile(r"//\s*pqs-hot\b|/\*\s*pqs-hot\b")
GUARD_MACRO = "PQS_GUARDED_BY"
REQUIRES_MACRO = "PQS_REQUIRES"

# How many lines above a function signature (or schedule call) an
# annotation comment may sit.
ANNOTATION_REACH = 4


def _member_like(name):
    """The repo's naming convention for shared state: class members end in
    '_', file-scope globals start with 'g_'."""
    return (name.endswith("_") and len(name) > 1) or name.startswith("g_")


class _Parser:
    def __init__(self, rel, text):
        self.rel = rel
        all_toks = tokenize(text)
        self.comments = comment_lines(all_toks)
        self.toks = code_tokens(all_toks)
        self.n = len(self.toks)
        self.i = 0
        self.ctx = []  # stack of ("ns"|"class", name)
        self.functions = []
        self.classes = {}
        self.globals_ = {}

    # ---- token helpers -------------------------------------------------

    def tok(self, i):
        return self.toks[i] if 0 <= i < self.n else None

    def text(self, i):
        t = self.tok(i)
        return t.text if t else ""

    def skip_balanced(self, i, open_ch, close_ch):
        """i points at `open_ch`; returns index just past its match (or
        self.n when unbalanced)."""
        depth = 0
        while i < self.n:
            c = self.toks[i].text
            if c == open_ch:
                depth += 1
            elif c == close_ch:
                depth -= 1
                if depth == 0:
                    return i + 1
            i += 1
        return self.n

    def skip_angles(self, i):
        """i points at '<'. Returns (end_index, consumed_tokens) when the
        run looks like balanced template arguments, else (None, None)."""
        depth = 0
        consumed = []
        start = i
        while i < self.n and i - start < 400:
            c = self.toks[i].text
            consumed.append(self.toks[i])
            if c == "<":
                depth += 1
            elif c == ">":
                depth -= 1
                if depth == 0:
                    return i + 1, consumed
            elif c == ">>":
                depth -= 2
                if depth <= 0:
                    return i + 1, consumed
            elif c in (";", "{", "}"):
                return None, None
            i += 1
        return None, None

    def match_back(self, i, open_ch, close_ch):
        """i points at `close_ch`; returns index of its matching open."""
        depth = 0
        while i >= 0:
            c = self.toks[i].text
            if c == close_ch:
                depth += 1
            elif c == open_ch:
                depth -= 1
                if depth == 0:
                    return i
            i -= 1
        return 0

    def annotation_above(self, line, regex):
        """Searches the comment map on `line` and up to ANNOTATION_REACH
        lines above for `regex`; returns the match or None. An annotation
        whose argument wraps onto continuation `//` lines is matched
        against the joined text of the contiguous comment block."""
        for l in range(line, max(0, line - ANNOTATION_REACH - 1), -1):
            c = self.comments.get(l)
            if not c:
                continue
            # Join the comment block running downward from l (wrapped
            # justification text), stripping the `//` markers.
            parts = [c]
            nxt = l + 1
            while nxt <= line and self.comments.get(nxt):
                parts.append(self.comments[nxt])
                nxt += 1
            # Continuation lines keep their `//` markers; the annotation
            # regexes tolerate them inside a wrapped argument.
            joined = " ".join(parts)
            m = regex.search(joined)
            if m:
                return m
        return None

    # ---- declaration-scope parsing -------------------------------------

    def parse(self):
        while self.i < self.n:
            t = self.toks[self.i]
            c = t.text
            if c == "}":
                if self.ctx:
                    self.ctx.pop()
                self.i += 1
                # class definitions end with '};'
                if self.text(self.i) == ";":
                    self.i += 1
                continue
            if c == "namespace":
                self.parse_namespace()
                continue
            if c in ("class", "struct"):
                if self.parse_class():
                    continue
                # fall through: elaborated type in a declaration
                self.i += 1
                continue
            if c == "union" or c == "enum":
                self.skip_to_semicolon()
                continue
            if c == "template":
                self.i += 1
                if self.text(self.i) == "<":
                    end, _ = self.skip_angles(self.i)
                    self.i = end if end else self.i + 1
                continue
            if c in ("using", "typedef", "friend", "static_assert"):
                self.skip_to_semicolon()
                continue
            if c in ("public", "private", "protected") and \
                    self.text(self.i + 1) == ":":
                self.i += 2
                continue
            if c == "extern" and self.tok(self.i + 1) and \
                    self.tok(self.i + 1).kind == "str":
                self.i += 2
                if self.text(self.i) == "{":
                    self.i += 1  # transparent linkage scope
                    self.ctx.append(("ns", ""))
                continue
            if c == ";":
                self.i += 1
                continue
            if c == "[" and self.text(self.i + 1) == "[":
                self.i = self.skip_balanced(self.i, "[", "]")
                continue
            self.parse_declaration()

    def parse_namespace(self):
        self.i += 1
        name = ""
        while self.tok(self.i) and (self.toks[self.i].kind == IDENT or
                                    self.text(self.i) == "::"):
            if self.toks[self.i].kind == IDENT:
                name = self.toks[self.i].text
            self.i += 1
        if self.text(self.i) == "{":
            self.i += 1
            self.ctx.append(("ns", name))
        else:  # namespace alias or malformed
            self.skip_to_semicolon()

    def parse_class(self):
        """Returns True when a class *definition* scope was entered (or a
        forward declaration consumed)."""
        j = self.i + 1
        # skip attributes and macros before the name
        while self.text(j) == "[" and self.text(j + 1) == "[":
            j = self.skip_balanced(j, "[", "]")
        if not (self.tok(j) and self.toks[j].kind == IDENT):
            return False  # anonymous struct — treat as declaration
        name = self.toks[j].text
        j += 1
        if self.text(j) == "<":  # template specialization name
            end, _ = self.skip_angles(j)
            if end:
                j = end
        if self.text(j) == "final":
            j += 1
        if self.text(j) == ";":  # forward declaration
            self.i = j + 1
            return True
        if self.text(j) == ":":  # base clause: skip to '{'
            while j < self.n and self.text(j) not in ("{", ";"):
                if self.text(j) == "<":
                    end, _ = self.skip_angles(j)
                    if end:
                        j = end
                        continue
                j += 1
        if self.text(j) == "{":
            self.ctx.append(("class", name))
            self.classes.setdefault(name, {
                "line": self.toks[self.i].line,
                "event_fields": [],
                "guarded": {},
                "has_dtor": False,
            })
            self.i = j + 1
            return True
        # `class X` used as an elaborated type in a declaration
        return False

    def skip_to_semicolon(self):
        depth = 0
        while self.i < self.n:
            c = self.toks[self.i].text
            if c in ("{", "(", "["):
                depth += 1
            elif c in ("}", ")", "]"):
                depth -= 1
                if depth < 0:  # stray close: let the main loop see it
                    return
            elif c == ";" and depth == 0:
                self.i += 1
                return
            self.i += 1

    def current_class(self):
        for kind, name in reversed(self.ctx):
            if kind == "class":
                return name
        return ""

    def parse_declaration(self):
        """A member/variable/function declaration at namespace or class
        scope. Collects tokens until the construct is classified."""
        collected = []
        start_line = self.toks[self.i].line
        while self.i < self.n:
            t = self.toks[self.i]
            c = t.text
            if c == ";":
                self.i += 1
                self.record_field(collected, start_line)
                return
            if c == "=" and not (collected and
                                 collected[-1].text == "operator"):
                self.record_field(collected, start_line)
                self.skip_to_semicolon()
                return
            if c == "<" and collected and collected[-1].kind == IDENT:
                end, consumed = self.skip_angles(self.i)
                if end:
                    collected.extend(consumed)
                    self.i = end
                    continue
                collected.append(t)
                self.i += 1
                continue
            if c == "{":
                # brace-initialized variable `T x{...};`
                self.i = self.skip_balanced(self.i, "{", "}")
                if self.text(self.i) == ";":
                    self.i += 1
                self.record_field(collected, start_line)
                return
            if c == "(":
                # `T name_ PQS_GUARDED_BY(mu_) ...;` is a field, not a
                # function: fold the macro and its argument into the
                # collected tokens and keep classifying.
                if collected and collected[-1].text == GUARD_MACRO:
                    end = self.skip_balanced(self.i, "(", ")")
                    collected.extend(self.toks[self.i:end])
                    self.i = end
                    continue
                if collected and (collected[-1].kind == IDENT or
                                  collected[-1].text == "operator"):
                    if self.parse_function(collected, start_line):
                        return
                # not a function: expression/macro at decl scope — skip
                self.i = self.skip_balanced(self.i, "(", ")")
                continue
            if c == "}":
                return  # malformed; main loop handles scope pop
            collected.append(t)
            self.i += 1

    def record_field(self, collected, line):
        """Interprets a ';'-terminated declaration as a field/variable."""
        if not collected:
            return
        guarded_by = None
        name = None
        texts = [t.text for t in collected]
        if GUARD_MACRO in texts:
            gi = texts.index(GUARD_MACRO)
            # ... name PQS_GUARDED_BY ( mutex )
            for k in range(gi - 1, -1, -1):
                if collected[k].kind == IDENT:
                    name = collected[k].text
                    break
            if gi + 2 < len(collected) and texts[gi + 1] == "(":
                guarded_by = collected[gi + 2].text
        else:
            for k in range(len(collected) - 1, -1, -1):
                if collected[k].kind == IDENT and \
                        collected[k].text not in KEYWORDS:
                    name = collected[k].text
                    break
        if not name or name in KEYWORDS:
            return
        cls = self.current_class()
        is_event = "EventId" in texts and name != "EventId"
        if cls:
            info = self.classes.setdefault(cls, {
                "line": line, "event_fields": [], "guarded": {},
                "has_dtor": False})
            if is_event and name not in info["event_fields"]:
                info["event_fields"].append(name)
            if guarded_by:
                info["guarded"][name] = guarded_by
        elif guarded_by:
            self.globals_[name] = {"line": line, "guarded_by": guarded_by}

    # ---- function parsing ----------------------------------------------

    def parse_function(self, collected, start_line):
        """self.i points at the '(' opening a parameter list whose
        preceding tokens are in `collected`. Returns True when a function
        (definition or annotated declaration) was consumed."""
        # Resolve the (possibly qualified) name from the tail of collected.
        name = None
        quals = []
        k = len(collected) - 1
        if collected[k].text == "operator" or (
                collected[k].kind == PUNCT and
                any(t.text == "operator" for t in collected[max(0, k - 3):])):
            # operator+, operator(), operator=, ...: find 'operator'
            while k >= 0 and collected[k].text != "operator":
                k -= 1
            name = "operator" + "".join(
                t.text for t in collected[k + 1:])
            k -= 1
        elif collected[k].kind == IDENT:
            name = collected[k].text
            k -= 1
            if k >= 0 and collected[k].text == "~":
                name = "~" + name
                k -= 1
        else:
            return False
        while k - 1 >= 0 and collected[k].text == "::" and \
                collected[k - 1].kind == IDENT:
            quals.append(collected[k - 1].text)
            k -= 2
        quals.reverse()

        params_start = self.i
        params_end = self.skip_balanced(self.i, "(", ")")
        j = params_end
        requires = []
        # Modifier region: const noexcept(...) override PQS_REQUIRES(m)
        # -> trailing-return, then '{' body | ';' | '= default/delete;'
        guard = 0
        body_start = None
        while j < self.n and guard < 400:
            guard += 1
            c = self.text(j)
            if c == REQUIRES_MACRO and self.text(j + 1) == "(":
                end = self.skip_balanced(j + 1, "(", ")")
                for t in self.toks[j + 2:end - 1]:
                    if t.kind == IDENT:
                        requires.append(t.text)
                j = end
                continue
            if c in ("const", "noexcept", "override", "final", "mutable",
                     "&", "&&", "throw"):
                j += 1
                if self.text(j) == "(":  # noexcept(...) / throw()
                    j = self.skip_balanced(j, "(", ")")
                continue
            if c == "->":  # trailing return type
                j += 1
                while j < self.n and self.text(j) not in ("{", ";", "="):
                    if self.text(j) == "<":
                        end, _ = self.skip_angles(j)
                        if end:
                            j = end
                            continue
                    if self.text(j) == "(":
                        j = self.skip_balanced(j, "(", ")")
                        continue
                    j += 1
                continue
            if c == ":":  # ctor initializer list
                j += 1
                while j < self.n:
                    # member or base, possibly qualified/templated
                    while self.text(j) in ("::",) or \
                            (self.tok(j) and self.toks[j].kind == IDENT):
                        j += 1
                        if self.text(j) == "<":
                            end, _ = self.skip_angles(j)
                            if end:
                                j = end
                    if self.text(j) == "(":
                        j = self.skip_balanced(j, "(", ")")
                    elif self.text(j) == "{":
                        j = self.skip_balanced(j, "{", "}")
                    else:
                        break
                    if self.text(j) == ",":
                        j += 1
                        continue
                    break
                continue
            if c == "{":
                body_start = j
                break
            if c == ";":
                j += 1
                break
            if c == "=":  # = default / = delete / = 0
                while j < self.n and self.text(j) != ";":
                    j += 1
                j += 1
                break
            # Unknown token (attribute macro etc.): tolerate a couple.
            j += 1
        cls = quals[-1] if quals else self.current_class()
        is_dtor = name.startswith("~")
        is_ctor = bool(cls) and name == cls
        if is_dtor and cls:
            info = self.classes.setdefault(cls, {
                "line": start_line, "event_fields": [], "guarded": {},
                "has_dtor": False})
            info["has_dtor"] = True

        if body_start is None:
            # Declaration only. Keep it when it carries contracts the
            # cross-file passes need (REQUIRES on a header declaration).
            self.i = j
            if requires:
                self.functions.append(self.blank_fn(
                    name, cls, start_line, start_line, is_ctor, is_dtor,
                    requires, decl_only=True))
            return True

        fn = self.blank_fn(name, cls, start_line,
                           self.toks[body_start].line, is_ctor, is_dtor,
                           requires, decl_only=False)
        m = self.annotation_above(start_line, HOT_RE)
        if m:
            fn["is_hot"] = True
        # Scan parameters for by-value std::function (facts used by tests).
        end = self.walk_body(fn, body_start)
        fn["end_line"] = self.toks[min(end - 1, self.n - 1)].line
        self.functions.append(fn)
        self.i = end
        return True

    @staticmethod
    def blank_fn(name, cls, line, body_line, is_ctor, is_dtor, requires,
                 decl_only):
        return {
            "name": name,
            "cls": cls,
            "qname": (cls + "::" + name) if cls else name,
            "line": line,
            "body_line": body_line,
            "end_line": line,
            "is_ctor": is_ctor,
            "is_dtor": is_dtor,
            "is_hot": False,
            "decl_only": decl_only,
            "requires": requires,
            "calls": [],
            "schedules": [],
            "allocs": [],
            "entropy": [],
            "member_uses": [],
            "cancel_args": [],
            "cancel_idents": [],
            "has_cancel": False,
        }

    # ---- function-body fact collection ---------------------------------

    def walk_body(self, fn, body_start):
        """Walks tokens from the '{' at body_start to its match, filling
        fn's fact lists. Returns the index just past the closing '}'."""
        depth = 0
        locks = []  # (mutex_name, depth_at_decl)
        idents = set()
        i = body_start
        while i < self.n:
            t = self.toks[i]
            c = t.text
            if c == "{":
                depth += 1
                i += 1
                continue
            if c == "}":
                depth -= 1
                while locks and locks[-1][1] > depth:
                    locks.pop()
                i += 1
                if depth == 0:
                    break
                continue
            if t.kind != IDENT:
                i += 1
                continue
            name = c
            idents.add(name)
            nxt = self.text(i + 1)

            # RAII lock acquisition: std::lock_guard<std::mutex> lk(mu_);
            if name in LOCK_TYPES:
                j = i + 1
                if self.text(j) == "<":
                    end, _ = self.skip_angles(j)
                    if end:
                        j = end
                if self.tok(j) and self.toks[j].kind == IDENT:
                    j += 1  # variable name
                if self.text(j) in ("(", "{"):
                    close = ")" if self.text(j) == "(" else "}"
                    open_ch = self.text(j)
                    end = self.skip_balanced(j, open_ch, close)
                    mutex = None
                    for tt in self.toks[j + 1:end - 1]:
                        if tt.kind == IDENT:
                            mutex = tt.text  # last ident before , or )
                        elif tt.text == ",":
                            break
                    if mutex:
                        locks.append((mutex, depth))
                    i = end
                    continue
                i += 1
                continue

            held = [m for m, _ in locks]

            # Manual mutex lock/unlock on a member mutex.
            if name in ("lock", "unlock") and nxt == "(" and \
                    self.text(i - 1) in (".", "->"):
                owner = self.text(i - 2)
                if owner and self.tok(i - 2).kind == IDENT:
                    if name == "lock":
                        locks.append((owner, depth))
                    else:
                        locks = [lk for lk in locks if lk[0] != owner]
                i += 2
                continue

            if name == "random_device":
                fn["entropy"].append(["std::random_device", t.line])
                i += 1
                continue

            if nxt == "(" and name not in KEYWORDS:
                # A call (or declaration with parens — over-approximate).
                # std::-qualified calls (std::visit, std::move, ...) are
                # never project functions; keeping them would alias onto
                # same-named project methods and fabricate graph edges.
                std_qualified = (self.text(i - 1) == "::"
                                 and self.text(i - 2) == "std")
                if not std_qualified:
                    fn["calls"].append([name, t.line, held])
                if name in SCHEDULE_CALLS:
                    self.classify_schedule(fn, i)
                elif name == "cancel":
                    fn["has_cancel"] = True
                    end = self.skip_balanced(i + 1, "(", ")")
                    for tt in self.toks[i + 2:end - 1]:
                        if tt.kind == IDENT and tt.text not in KEYWORDS:
                            fn["cancel_args"].append(tt.text)
                elif name in ("make_unique", "make_shared"):
                    fn["allocs"].append(["std::" + name, t.line])
                elif name in ("rand", "srand"):
                    prev = self.text(i - 1)
                    if prev != "." and prev != "->":
                        fn["entropy"].append([name + "()", t.line])
                elif name == "time":
                    arg = self.text(i + 2)
                    if arg in ("nullptr", "NULL", "0") and \
                            self.text(i + 3) == ")":
                        fn["entropy"].append(["time(nullptr)", t.line])

            # Factory calls with explicit template arguments: the
            # argument list follows the '<...>', not the name.
            if name in ("make_unique", "make_shared") and nxt == "<":
                fn["allocs"].append(["std::" + name, t.line])

            # By-value vector/string construction (heap traffic).
            if name in ("vector", "string") and self.text(i - 1) == "::":
                j = i + 1
                ok = True
                if name == "vector":
                    if self.text(j) == "<":
                        end, consumed = self.skip_angles(j)
                        if end:
                            if any(tt.text in ("&", "*")
                                   for tt in consumed[-2:]):
                                ok = False
                            j = end
                        else:
                            ok = False
                    else:
                        ok = self.text(j) in ("{",)
                if ok:
                    after = self.text(j)
                    if after == "{" or (
                            self.tok(j) and self.toks[j].kind == IDENT and
                            self.text(j + 1) in (";", "(", "{", "=")):
                        fn["allocs"].append(["std::" + name, t.line])

            if _member_like(name):
                fn["member_uses"].append([name, t.line, held])
            i += 1
        if fn["has_cancel"]:
            fn["cancel_idents"] = sorted(idents)
        return i

    def classify_schedule(self, fn, i):
        """i points at the schedule_in/schedule_at identifier inside a
        body. Classifies where the returned EventId goes."""
        t = self.toks[i]
        # Walk back over the call chain: world_.simulator().schedule_in
        k = i - 1
        guard = 0
        while k > 0 and guard < 60:
            guard += 1
            c = self.text(k)
            if c in (".", "->", "::"):
                k -= 1
                continue
            if c == ")":
                k = self.match_back(k, "(", ")") - 1
                continue
            if self.toks[k].kind == IDENT and \
                    self.text(k - 1) in (".", "->", "::"):
                k -= 1
                continue
            if self.toks[k].kind == IDENT:
                # chain head (e.g. `simulator`); the interesting token is
                # the one before it
                k -= 1
            break
        prev = self.text(k)
        site = {"line": t.line, "kind": "discard", "target": "", "ff": False,
                "ff_why": ""}
        if prev == "=":
            m = k - 1
            if self.text(m) == "]":
                m = self.match_back(m, "[", "]") - 1
            if self.tok(m) and self.toks[m].kind == IDENT:
                target = self.text(m)
                before = self.tok(m - 1)
                before_text = before.text if before else ""
                if before_text in (".", "->"):
                    site["kind"] = "field"
                elif (before and before.kind == IDENT and
                      before_text not in ("return",)) or \
                        before_text in (">", "&", "*"):
                    # `EventId id = ...` / `auto id = ...` — a declaration
                    site["kind"] = "local"
                elif _member_like(target):
                    site["kind"] = "member"
                else:
                    site["kind"] = "local"
                site["target"] = target
        elif prev == "return":
            site["kind"] = "returned"
        m = self.annotation_above(t.line, FIRE_FORGET_RE)
        if m:
            site["ff"] = True
            site["ff_why"] = (m.group(1) or "").strip()
        fn["schedules"].append(site)


def build_model(rel, text):
    parser = _Parser(rel, text)
    try:
        parser.parse()
    except RecursionError:  # pragma: no cover — defensive
        pass
    return {
        "path": rel.replace("\\", "/"),
        "functions": parser.functions,
        "classes": parser.classes,
        "globals": parser.globals_,
    }
