// Plumbing shared by the benches that emit a BENCH_*.json file: the host
// wall clock, number formatting, the `[--smoke] [--out PATH]` command
// line, the FATAL gate on a bench's own invariants, and the file write.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace pqs::bench {

inline double now_seconds() {
    using Clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(Clock::now().time_since_epoch())
        .count();
}

inline std::string fmt_double(double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

inline std::string fmt_u64(std::uint64_t v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(v));
    return buf;
}

// Parses `[--smoke] [--out PATH]`, plus `[--n N]` where `n` is non-null.
// Anything else prints the usage line and returns false.
inline bool parse_args(int argc, char** argv, const char* name, bool& smoke,
                       std::string& out_path, std::size_t* n = nullptr) {
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
        } else if (n != nullptr && std::strcmp(argv[i], "--n") == 0 &&
                   i + 1 < argc) {
            *n = static_cast<std::size_t>(
                std::strtoull(argv[++i], nullptr, 10));
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out_path = argv[++i];
        } else {
            std::fprintf(stderr, "usage: %s [--smoke]%s [--out PATH]\n",
                         name, n != nullptr ? " [--n N]" : "");
            return false;
        }
    }
    return true;
}

// A failed check prints FATAL; the bench then exits nonzero before it
// writes its JSON.
struct Gate {
    bool ok = true;
    void operator()(bool cond, const char* what) {
        if (!cond) {
            std::fprintf(stderr, "FATAL: %s\n", what);
            ok = false;
        }
    }
};

// Writes `text` to `path`; false, with a message, if it cannot.
inline bool write_file(const std::string& path, const std::string& text) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
        return false;
    }
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    return true;
}

}  // namespace pqs::bench
