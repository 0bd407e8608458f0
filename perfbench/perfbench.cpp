// perfbench — the repo benchmark's measuring binary (driven by run.py).
//
// Runs one workload (see README.md for the definitions and why each was
// chosen) as a sequence of identical trials — same seed, same inputs —
// until the host-time budget is spent, and prints one JSON record with
// every trial's host timings, its deterministic counters and simulated
// outputs, and its correctness failures. run.py turns the record into
// medians, cross-checks the trials and prints the benchmark's result.
//
// Only public library entry points are used: net::World (construction,
// start, fail_node/revive_node, destruction), membership::OracleMembership,
// core::LocationService, svc::KvService::read/write, sim::Simulator
// run_until/step, and, in smoke mode, svc::KvWorkloadDriver.
//
// A traced trial (--trace 1) additionally records the benchmark's own
// host-time spans around every one of those calls and installs an
// obs::ScopedTraceSink for the per-op hop, route, MAC and reply events.
// Neither touches simulation state, so its deterministic counters must
// equal the untraced trials' (run.py checks this).
//
// Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--smoke] [--spans-out PATH]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include <unistd.h>

#include "core/location_service.h"
#include "membership/oracle_membership.h"
#include "net/node_stack.h"
#include "net/world.h"
#include "obs/trace.h"
#include "svc/kv_service.h"
#include "svc/workload_driver.h"
#include "svc/zipf.h"
#include "util/kernel_stats.h"
#include "util/rng.h"

namespace pqs::perfbench {
namespace {

double host_now() {
    using Clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(Clock::now().time_since_epoch())
        .count();
}

// Resident set of this process now, in bytes (/proc/self/statm); 0 when
// unavailable.
double resident_bytes() {
    double pages = 0.0;
    if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
        double size = 0.0;
        if (std::fscanf(f, "%lf %lf", &size, &pages) != 2) {
            pages = 0.0;
        }
        std::fclose(f);
    }
    return pages * static_cast<double>(sysconf(_SC_PAGESIZE));
}

// ---------------------------------------------------------------------
// Host-time spans: name, start, end, parent, op id. Kept in memory and
// written once at the end. Phase spans (build, start, warm-up, window,
// teardown) are always recorded — they are how every trial is timed —
// while per-call spans are recorded only in the traced trial.
// ---------------------------------------------------------------------
struct Span {
    const char* name;
    double start;
    double end;
    int parent;
    std::uint64_t op;
};

struct SpanTotal {
    std::uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
};

class Spans {
public:
    void set_detailed(bool on) { detailed_ = on; }
    bool detailed() const { return detailed_; }

    int begin(const char* name, std::uint64_t op = 0) {
        spans_.push_back(Span{name, host_now(), 0.0, open_, op});
        open_ = static_cast<int>(spans_.size()) - 1;
        return open_;
    }
    void end(int id) {
        spans_[static_cast<std::size_t>(id)].end = host_now();
        open_ = spans_[static_cast<std::size_t>(id)].parent;
    }

    // Per-name count, total and self time (span minus its children) over
    // the spans recorded since index `from`.
    std::map<std::string, SpanTotal> totals(std::size_t from) const {
        std::vector<double> child(spans_.size(), 0.0);
        for (std::size_t i = from; i < spans_.size(); ++i) {
            const int p = spans_[i].parent;
            if (p >= static_cast<int>(from)) {
                child[static_cast<std::size_t>(p)] +=
                    spans_[i].end - spans_[i].start;
            }
        }
        std::map<std::string, SpanTotal> out;
        for (std::size_t i = from; i < spans_.size(); ++i) {
            SpanTotal& t = out[spans_[i].name];
            const double dur = spans_[i].end - spans_[i].start;
            ++t.count;
            t.total_s += dur;
            t.self_s += dur - child[i];
        }
        return out;
    }

    std::size_t size() const { return spans_.size(); }

    // Slices partition a trial into pieces of identical work — one per
    // set-up step, op or simulated second — so run.py can take each
    // piece's median over the (identical) trials. `tag` names the part of
    // the trial: 's' set-up, 'w' measured window, 'b' benchmark
    // bookkeeping, 't' teardown.
    //
    // Each cut also samples the resident set, so a trial's peak is the
    // largest sample taken at its slice boundaries.
    void start_slices() {
        slice_s_.clear();
        slice_tags_.clear();
        peak_rss_ = resident_bytes();
        last_cut_ = host_now();
    }
    void cut(char tag) {
        peak_rss_ = std::max(peak_rss_, resident_bytes());
        const double now = host_now();
        slice_s_.push_back(now - last_cut_);
        slice_tags_.push_back(tag);
        last_cut_ = now;
    }
    const std::vector<double>& slices() const { return slice_s_; }
    const std::string& slice_tags() const { return slice_tags_; }
    double peak_rss() const { return peak_rss_; }

    // Chrome trace-event JSON (complete "X" events, host microseconds
    // relative to the first span), loadable in chrome://tracing/Perfetto.
    bool write_chrome_json(const std::string& path, std::size_t from) const {
        std::FILE* f = std::fopen(path.c_str(), "w");
        if (f == nullptr) {
            return false;
        }
        const double t0 = from < spans_.size() ? spans_[from].start : 0.0;
        std::fprintf(f, "{\"traceEvents\": [");
        for (std::size_t i = from; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            std::fprintf(f,
                         "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                         "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                         "\"args\": {\"id\": %zu, \"parent\": %d, "
                         "\"op\": %llu}}",
                         i == from ? "" : ",", s.name,
                         (s.start - t0) * 1e6, (s.end - s.start) * 1e6,
                         i - from,
                         s.parent >= static_cast<int>(from)
                             ? s.parent - static_cast<int>(from)
                             : -1,
                         static_cast<unsigned long long>(s.op));
        }
        std::fprintf(f, "\n]}\n");
        return std::fclose(f) == 0;
    }

private:
    std::vector<Span> spans_;
    int open_ = -1;
    bool detailed_ = false;
    std::vector<double> slice_s_;
    std::string slice_tags_;
    double peak_rss_ = 0.0;
    double last_cut_ = 0.0;
};

// A phase span: always recorded. A non-zero `slice` tag also ends a
// slice when the phase ends.
class Phase {
public:
    Phase(Spans& spans, const char* name, char slice = 0)
        : spans_(spans), id_(spans.begin(name)), slice_(slice) {}
    ~Phase() {
        spans_.end(id_);
        if (slice_ != 0) {
            spans_.cut(slice_);
        }
    }
    Phase(const Phase&) = delete;
    Phase& operator=(const Phase&) = delete;

private:
    Spans& spans_;
    int id_;
    char slice_;
};

// A per-call span: recorded only in the traced trial.
class Call {
public:
    Call(Spans& spans, const char* name, std::uint64_t op = 0)
        : spans_(spans), id_(spans.detailed() ? spans.begin(name, op) : -1) {
    }
    ~Call() {
        if (id_ >= 0) {
            spans_.end(id_);
        }
    }
    Call(const Call&) = delete;
    Call& operator=(const Call&) = delete;

private:
    Spans& spans_;
    int id_;
};

// ---------------------------------------------------------------------
// Every op the benchmark issues gets a ledger slot holding the sim time by
// which its callback is due; every callback bumps the slot. At the cutoff
// an op without a callback is censored if it is not due yet, and lost —
// a failed op that fails the run — if it is. Shared-owned by the
// callbacks so a straggler firing after the trial's bookkeeping is still
// safe.
// ---------------------------------------------------------------------
struct Ledger {
    struct Op {
        sim::Time due;
        std::uint8_t calls;
    };
    std::vector<Op> ops;
    bool closed = false;
    std::uint64_t lost = 0;
    std::uint64_t censored = 0;

    std::uint64_t open(sim::Time due) {
        ops.push_back(Op{due, 0});
        return ops.size() - 1;
    }
    // Returns false for a callback that arrives after the cutoff (the op
    // was already censored) so the caller leaves the tallies alone.
    bool resolve(std::uint64_t op) {
        if (ops[op].calls < 255) {
            ++ops[op].calls;
        }
        return !closed;
    }
    bool resolved(std::uint64_t op) const { return ops[op].calls > 0; }
    std::size_t size() const { return ops.size(); }

    // Classifies the ops from `first` on that have no callback at sim
    // time `cutoff`, after which nothing steps their world again.
    void settle(std::size_t first, sim::Time cutoff) {
        for (std::size_t i = first; i < ops.size(); ++i) {
            if (ops[i].calls == 0) {
                ++(ops[i].due <= cutoff ? lost : censored);
            }
        }
    }
};

// Longest sim time one BiquorumSystem access may take before its callback
// runs: every attempt's op_timeout plus the backoff before each retry.
sim::Time access_lifetime(const core::ServiceContext& ctx) {
    const int attempts = std::max(1, ctx.retry.max_attempts);
    double total = 0.0;
    double backoff = static_cast<double>(ctx.retry.backoff);
    for (int a = 1; a <= attempts; ++a) {
        total += static_cast<double>(ctx.op_timeout);
        if (a < attempts) {
            total += backoff;
            backoff *= ctx.retry.backoff_factor;
        }
    }
    return static_cast<sim::Time>(total);
}

// ---------------------------------------------------------------------
// Traced-trial tallies over the obs:: trace ring, drained as the run goes
// so nothing is dropped and memory stays bounded.
// ---------------------------------------------------------------------
struct TraceCounts {
    std::uint64_t kinds[obs::kEventKindCount] = {};
    std::uint64_t dropped = 0;
    double backoff_wait_s = 0.0;
    std::uint64_t backoff_pairs = 0;
    double discovery_wait_s = 0.0;
    std::uint64_t discovery_pairs = 0;

    std::uint64_t count(obs::EventKind kind) const {
        return kinds[static_cast<std::size_t>(kind)];
    }
};

class TraceTally {
public:
    TraceTally(const sim::Simulator& sim, TraceCounts& counts)
        : sink_(sim, 1u << 20), counts_(counts) {}

    obs::TraceSink& sink() { return sink_; }

    void drain() {
        for (std::size_t i = 0; i < sink_.size(); ++i) {
            const obs::TraceEvent& e = sink_.event(i);
            ++counts_.kinds[static_cast<std::size_t>(e.kind)];
            switch (e.kind) {
                case obs::EventKind::kMacBackoff:
                    backoff_at_[key(e.trace, e.node)] = e.t;
                    break;
                case obs::EventKind::kMacTx: {
                    const auto it = backoff_at_.find(key(e.trace, e.node));
                    if (it != backoff_at_.end()) {
                        counts_.backoff_wait_s +=
                            sim::to_seconds(e.t - it->second);
                        ++counts_.backoff_pairs;
                        backoff_at_.erase(it);
                    }
                    break;
                }
                case obs::EventKind::kRouteDiscovery:
                    discovery_at_[key(e.trace, e.node)] = e.t;
                    break;
                case obs::EventKind::kPacketForward:
                case obs::EventKind::kPacketDeliver: {
                    // The discovering node's first hop for this op lands
                    // at the next node: its route was found.
                    const auto it = discovery_at_.find(
                        key(e.trace, static_cast<util::NodeId>(e.a)));
                    if (it != discovery_at_.end()) {
                        counts_.discovery_wait_s +=
                            sim::to_seconds(e.t - it->second);
                        ++counts_.discovery_pairs;
                        discovery_at_.erase(it);
                    }
                    break;
                }
                default:
                    break;
            }
        }
        counts_.dropped += sink_.dropped();
        sink_.clear();
    }

private:
    static std::uint64_t key(obs::TraceId trace, util::NodeId node) {
        return (trace << 24) ^ static_cast<std::uint64_t>(node);
    }

    obs::TraceSink sink_;
    TraceCounts& counts_;
    std::unordered_map<std::uint64_t, sim::Time> backoff_at_;
    std::unordered_map<std::uint64_t, sim::Time> discovery_at_;
};

// Installs the trace sink for the traced trial only; nothing exists (and
// obs::record stays a no-op) otherwise.
class MaybeTrace {
public:
    MaybeTrace(bool on, const sim::Simulator& sim, TraceCounts& counts)
        : tally_(on ? std::make_unique<TraceTally>(sim, counts) : nullptr),
          scope_(tally_ ? &tally_->sink() : nullptr) {}
    void drain() {
        if (tally_) {
            tally_->drain();
        }
    }

private:
    std::unique_ptr<TraceTally> tally_;
    obs::ScopedTraceSink scope_;
};

// ---------------------------------------------------------------------
// One trial's record.
// ---------------------------------------------------------------------
using Values = std::map<std::string, double>;

struct Trial {
    bool traced = false;
    Values host;   // trial_s and peak_rss_bytes; vary run to run
    Values det;    // deterministic counters and simulated outputs
    Values layer;  // per-layer metrics (traced trial only)
    std::vector<double> slices;  // host seconds per slice (see Spans)
    std::string slice_tags;
    std::vector<std::string> failures;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

void check(Trial& t, bool ok, const std::string& what) {
    if (!ok) {
        t.failures.push_back(what);
    }
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Exact order statistic (nearest rank) of raw samples, reported only
// when at least ten samples lie beyond it; 0 otherwise.
double percentile(std::vector<double> v, double q) {
    if (v.empty() ||
        static_cast<double>(v.size()) * (1.0 - q) < 10.0) {
        return 0.0;
    }
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::max<std::size_t>(rank, 1) - 1];
}

struct WindowStart {
    util::KernelStats kernel;
    std::uint64_t events = 0;
    double data_tx = 0.0;
    double routing_tx = 0.0;
    double hello_tx = 0.0;
};

WindowStart window_start(net::World& world) {
    WindowStart w;
    w.kernel = world.kernel_stats();
    w.events = world.simulator().events_processed();
    w.data_tx = world.metrics().counter("net.data.tx");
    w.routing_tx = world.metrics().counter("net.routing.tx");
    w.hello_tx = world.metrics().counter("net.hello.tx");
    return w;
}

// Adds one world's deterministic counters over its measured window to
// the trial (an access trial runs several worlds), plus the world's
// cumulative kernel block, which is what bench_scale reports.
void add_window(Trial& t, net::World& world, const WindowStart& w) {
    const util::KernelStats k = world.kernel_stats();
    Values& d = t.det;
    d["window_events"] += static_cast<double>(
        world.simulator().events_processed() - w.events);
    d["data_tx"] += world.metrics().counter("net.data.tx") - w.data_tx;
    d["routing_tx"] +=
        world.metrics().counter("net.routing.tx") - w.routing_tx;
    d["hello_tx"] += world.metrics().counter("net.hello.tx") - w.hello_tx;
    d["arena_high_water"] =
        std::max(d["arena_high_water"],
                 static_cast<double>(world.arena_high_water()));
    std::size_t count = 0;
    const util::KernelStatsField* fields = util::kernel_stats_fields(&count);
    for (std::size_t i = 0; i < count; ++i) {
        const std::string name = fields[i].name;
        d["kernel." + name] += static_cast<double>(fields[i].get(k));
        d["window." + name] +=
            static_cast<double>(fields[i].get(k) - fields[i].get(w.kernel));
    }
}

// Per-op outputs and per-layer ratios over the trial's windows.
void finish_window(Trial& t, double ops) {
    Values& d = t.det;
    const auto win = [&d](const char* field) {
        return d[std::string("window.") + field];
    };
    d["ops"] = ops;
    d["msgs_per_op"] = ratio(d["data_tx"] + d["routing_tx"], ops);
    Values& l = t.layer;
    l["sim.events_per_op"] = ratio(d["window_events"], ops);
    l["sim.heap_moves_per_event"] =
        ratio(win("heap_moves"), d["window_events"]);
    l["sim.stale_drop_ratio"] = ratio(win("stale_drops"), win("heap_pops"));
    l["sim.calendar_migrations"] = win("calendar_migrations");
    l["net.routing_tx_per_op"] = ratio(d["routing_tx"], ops);
    l["net.hello_tx"] = d["hello_tx"];
    l["net.data_tx_per_op"] = ratio(d["data_tx"], ops);
    l["net.packet_pool_reuse_ratio"] =
        ratio(win("packet_pool_reuses"),
              win("packet_pool_reuses") + win("packet_allocs"));
    l["net.alive_snapshots"] = win("alive_snapshots");
    l["geom.grid_queries"] = win("grid_queries");
    l["geom.candidates_per_query"] =
        ratio(win("grid_candidates"), win("grid_queries"));
    l["geom.cell_crossings"] = win("grid_cell_crossings");
    l["geom.grid_rebuilds"] = win("grid_rebuilds");
    l["mobility.grid_moves"] = win("grid_moves");
    // Every frame the network layer hands to the link, hellos included,
    // against every event of the same window: on fullstack_n200 the
    // radio's per-receiver arrival events dominate the events per frame.
    l["phy.events_per_frame"] = ratio(
        d["window_events"], d["data_tx"] + d["routing_tx"] + d["hello_tx"]);
    l["util.arena_high_water_mib"] = d["arena_high_water"] / 1048576.0;
    l["util.callback_heap_allocs"] = d["kernel.callback_heap_allocs"];
}

void record_trace(Trial& t, const TraceCounts& c, double ops) {
    using K = obs::EventKind;
    const auto per_op = [&](K kind) {
        return ratio(static_cast<double>(c.count(kind)), ops);
    };
    Values& l = t.layer;
    l["mac.tx_per_op"] = per_op(K::kMacTx);
    l["mac.backoffs_per_op"] = per_op(K::kMacBackoff);
    l["mac.drops_per_op"] = per_op(K::kMacDrop);
    l["mac.backoff_wait_sim_s"] =
        ratio(c.backoff_wait_s, static_cast<double>(c.backoff_pairs));
    l["net.route_discoveries_per_op"] = per_op(K::kRouteDiscovery);
    l["net.route_discovery_wait_sim_s"] =
        ratio(c.discovery_wait_s, static_cast<double>(c.discovery_pairs));
    l["core.reply_repairs_per_op"] = per_op(K::kReplyRepair);
    l["core.walk_deaths_per_op"] = per_op(K::kWalkDied);
    l["obs.trace_dropped"] = static_cast<double>(c.dropped);
}

// Host-time phases of a trial, from its spans.
void record_spans(Trial& t, const Spans& spans, std::size_t from) {
    const std::map<std::string, SpanTotal> totals = spans.totals(from);
    const auto total = [&](const char* name) {
        const auto it = totals.find(name);
        return it != totals.end() ? it->second.total_s : 0.0;
    };
    const auto self = [&](const char* name) {
        const auto it = totals.find(name);
        return it != totals.end() ? it->second.self_s : 0.0;
    };
    const auto mean_us = [&](const char* name) {
        const auto it = totals.find(name);
        return it != totals.end() && it->second.count > 0
                   ? 1e6 * it->second.total_s /
                         static_cast<double>(it->second.count)
                   : 0.0;
    };
    t.slices = spans.slices();
    t.slice_tags = spans.slice_tags();
    t.host["peak_rss_bytes"] = spans.peak_rss();
    t.host["trial_s"] = total("trial");
    if (!spans.detailed()) {
        return;
    }
    Values& l = t.layer;
    l["sim.step_host_s"] = self("sim.step");
    l["net.world_build_s"] = total("net.world_build");
    l["net.start_s"] = total("net.start");
    l["net.teardown_s"] = total("net.teardown");
    l["net.churn_host_s"] = total("net.fail_node") + total("net.revive_node");
    l["membership.build_s"] = total("membership.build");
    l["core.advertise_phase_s"] = total("core.advertise_phase");
    l["core.lookup_phase_s"] = total("core.lookup_phase");
    const auto& adv = totals.find("core.advertise");
    const auto& lkp = totals.find("core.lookup");
    const double issue_s = (adv != totals.end() ? adv->second.total_s : 0.0) +
                           (lkp != totals.end() ? lkp->second.total_s : 0.0);
    const double issue_n =
        static_cast<double>((adv != totals.end() ? adv->second.count : 0) +
                            (lkp != totals.end() ? lkp->second.count : 0));
    l["core.issue_us"] = 1e6 * ratio(issue_s, issue_n);
    l["svc.seed_s"] = total("svc.seed");
    l["svc.read_issue_us"] = mean_us("svc.read");
    l["svc.write_issue_us"] = mean_us("svc.write");
}

// Finishes the op ledger once every op has been settled: an op called
// back twice or never called back though due is a failed op and fails
// the run.
void close_ledger(Trial& t, Ledger& ledger) {
    ledger.closed = true;
    std::uint64_t twice = 0;
    for (const Ledger::Op& op : ledger.ops) {
        twice += op.calls > 1 ? 1 : 0;
    }
    t.attempted = ledger.size();
    t.failed = twice + ledger.lost;
    check(t, twice == 0,
          std::to_string(twice) + " ops resolved more than once");
    check(t, ledger.lost == 0,
          std::to_string(ledger.lost) +
              " ops never called back though their callback was due");
    t.det["ops_issued"] = static_cast<double>(ledger.size());
    t.det["ops_censored"] = static_cast<double>(ledger.censored);
}

// ---------------------------------------------------------------------
// paper_n800 / fullstack_n200: the paper's §2.4/§8 configuration with the
// Fig. 15 asymmetric mix, driven closed-loop one op at a time. A trial
// may spread its ops over several independent networks, so that one
// network's layout does not decide the trial's cost.
// ---------------------------------------------------------------------
struct AccessWorkload {
    std::size_t n = 800;
    net::Fidelity fidelity = net::Fidelity::kAbstract;
    std::size_t networks = 1;
    std::size_t advertisements = 100;  // per network
    std::size_t lookups = 1000;        // per network
    std::size_t lookup_nodes = 25;
    sim::Time warmup = 15 * sim::kSecond;
    sim::Time spacing = 100 * sim::kMillisecond;
    sim::Time op_timeout = 20 * sim::kSecond;
};

// Outcomes of the ops of one access trial, summed over its networks.
struct AccessTally {
    std::uint64_t adv_ok = 0, adv_timeouts = 0, lookups = 0, hits = 0,
                  intersected = 0, reply_drops = 0, timeouts = 0,
                  attempts = 0;
    double lookup_nodes = 0.0;
    double mrw_load = 0.0;  // summed; averaged over networks at the end
    std::vector<double> latencies;
};

// One network of an access trial: set-up, the closed-loop ops, teardown.
void run_access_network(const AccessWorkload& w, std::uint64_t seed,
                        bool traced, Spans& spans, Trial& t, Ledger& ledger,
                        AccessTally& tally, TraceCounts& counts) {
    const double rtn = std::sqrt(static_cast<double>(w.n));
    net::WorldParams wp;
    wp.n = w.n;
    wp.seed = seed;
    wp.avg_degree = 10.0;
    wp.fidelity = w.fidelity;
    wp.mobile = true;
    wp.oracle_neighbors = false;
    wp.waypoint.min_speed = 0.5;
    wp.waypoint.max_speed = 2.0;
    wp.waypoint.pause = 30 * sim::kSecond;
    wp.heartbeat = 10 * sim::kSecond;
    core::BiquorumSpec spec;
    spec.advertise.kind = core::StrategyKind::kRandom;
    spec.advertise.quorum_size =
        static_cast<std::size_t>(std::lround(2.0 * rtn));
    spec.lookup.kind = core::StrategyKind::kUniquePath;
    spec.lookup.quorum_size =
        static_cast<std::size_t>(std::lround(1.15 * rtn));

    std::unique_ptr<net::World> world;
    std::unique_ptr<membership::OracleMembership> membership;
    std::unique_ptr<core::LocationService> service;
    std::unique_ptr<MaybeTrace> trace;
    {
        Phase setup(spans, "setup");
        {
            Phase p(spans, "net.world_build", 's');
            world = std::make_unique<net::World>(wp);
        }
        {
            Phase p(spans, "membership.build", 's');
            membership =
                std::make_unique<membership::OracleMembership>(*world);
        }
        {
            Phase p(spans, "core.service_build", 's');
            service = std::make_unique<core::LocationService>(
                *world, spec, membership.get());
            service->biquorum().context().op_timeout = w.op_timeout;
        }
        trace = std::make_unique<MaybeTrace>(traced, world->simulator(),
                                             counts);
        {
            Phase p(spans, "net.start", 's');
            world->start();
        }
        {
            Phase p(spans, "sim.warmup", 's');
            world->simulator().run_until(w.warmup);
        }
    }
    sim::Simulator& sim = world->simulator();
    util::Rng rng(seed ^ 0x5ca1ab1e5eedULL);
    const std::size_t first_op = ledger.size();
    const sim::Time lifetime =
        access_lifetime(service->biquorum().context());
    WindowStart w0;
    {
        Phase window(spans, "window");
        w0 = window_start(*world);
        // Issues one op, drives the simulator until its callback ran (or
        // a second past the time it was due), then idles for the op
        // spacing (closed loop, one client).
        const auto closed_loop = [&](const char* name, auto issue) {
            const std::uint64_t op = ledger.open(sim.now() + lifetime);
            {
                Call c(spans, name, op);
                issue(op);
            }
            {
                Call c(spans, "sim.step", op);
                const sim::Time deadline =
                    ledger.ops[op].due + sim::kSecond;
                while (!ledger.resolved(op) && sim.now() < deadline &&
                       sim.step()) {
                }
                sim.run_until(sim.now() + w.spacing);
            }
            trace->drain();
            spans.cut('w');
        };
        std::vector<util::Key> keys;
        {
            Phase p(spans, "core.advertise_phase");
            for (std::size_t i = 0; i < w.advertisements; ++i) {
                const util::NodeId origin = world->alive_set().select(
                    rng.index(world->alive_count()));
                const util::Key key = 1000 + i;
                keys.push_back(key);
                closed_loop("core.advertise", [&](std::uint64_t op) {
                    service->advertise(
                        origin, key, key * 7 + 1,
                        [&ledger, &tally, op](const core::AccessResult& r) {
                            if (!ledger.resolve(op)) {
                                return;
                            }
                            tally.adv_ok += r.ok ? 1 : 0;
                            tally.adv_timeouts += r.timed_out ? 1 : 0;
                            tally.attempts +=
                                static_cast<std::uint64_t>(r.attempts);
                        });
                });
            }
        }
        std::vector<util::NodeId> lookers;
        for (const std::size_t idx : rng.sample_without_replacement(
                 world->alive_count(), w.lookup_nodes)) {
            lookers.push_back(world->alive_set().select(idx));
        }
        {
            Phase p(spans, "core.lookup_phase");
            for (std::size_t i = 0; i < w.lookups; ++i) {
                const util::Key key = keys[rng.index(keys.size())];
                const util::NodeId origin =
                    lookers[rng.index(lookers.size())];
                closed_loop("core.lookup", [&](std::uint64_t op) {
                    service->lookup(
                        origin, key,
                        [&ledger, &tally, op](const core::AccessResult& r) {
                            if (!ledger.resolve(op)) {
                                return;
                            }
                            ++tally.lookups;
                            tally.hits += r.ok ? 1 : 0;
                            tally.intersected += r.intersected ? 1 : 0;
                            tally.reply_drops +=
                                r.intersected && !r.ok ? 1 : 0;
                            tally.timeouts += r.timed_out ? 1 : 0;
                            tally.attempts +=
                                static_cast<std::uint64_t>(r.attempts);
                            tally.lookup_nodes +=
                                static_cast<double>(r.nodes_contacted);
                            if (r.ok) {
                                tally.latencies.push_back(
                                    sim::to_seconds(r.latency));
                            }
                        });
                });
            }
        }
        {
            Phase p(spans, "sim.drain", 'w');
            Call c(spans, "sim.step");
            sim.run_until(sim.now() + 2 * sim::kSecond);
            trace->drain();
        }
    }
    add_window(t, *world, w0);
    tally.mrw_load +=
        core::summarize_load(service->biquorum().context()).mrw_load;
    // Nothing steps this world again.
    ledger.settle(first_op, sim.now());
    spans.cut('b');
    {
        Phase p(spans, "net.teardown", 't');
        trace.reset();
        service.reset();
        membership.reset();
        world.reset();
    }
}

Trial run_access(const AccessWorkload& w, std::uint64_t seed, bool traced,
                 Spans& spans) {
    Trial t;
    t.traced = traced;
    spans.set_detailed(traced);
    const std::size_t first_span = spans.size();
    Ledger ledger;
    AccessTally tally;
    TraceCounts counts;
    {
        Phase trial(spans, "trial");
        spans.start_slices();
        std::uint64_t net_seed = seed;
        for (std::size_t k = 0; k < w.networks; ++k) {
            run_access_network(w, k == 0 ? seed : util::splitmix64(net_seed),
                               traced, spans, t, ledger, tally, counts);
        }
    }
    const double ops = static_cast<double>(
        w.networks * (w.advertisements + w.lookups));
    const double lookups = static_cast<double>(w.networks * w.lookups);
    const std::uint64_t censored = ledger.censored;
    finish_window(t, ops);
    close_ledger(t, ledger);
    // The closed loop waits out every op's whole lifetime, so none may
    // still be in flight: an op without a callback is lost, not censored.
    check(t, censored == 0,
          std::to_string(censored) +
              " ops without a callback after the closed loop waited for it");
    t.det["advertise_ok"] = static_cast<double>(tally.adv_ok);
    t.det["advertise_timeouts"] = static_cast<double>(tally.adv_timeouts);
    t.det["lookup_timeouts"] = static_cast<double>(tally.timeouts);
    t.det["hit_ratio"] = static_cast<double>(tally.hits) / lookups;
    t.det["lookup_p50_sim_s"] = percentile(tally.latencies, 0.5);
    t.det["lookup_p99_sim_s"] = percentile(tally.latencies, 0.99);
    t.det["lookup_samples"] = static_cast<double>(tally.latencies.size());
    t.det["failed_op_rate"] =
        static_cast<double>(tally.adv_timeouts + tally.timeouts + censored +
                            ledger.lost) /
        ops;
    t.det["lookup_nodes_sum"] = tally.lookup_nodes;
    t.layer["core.nodes_per_lookup"] =
        ratio(tally.lookup_nodes, static_cast<double>(tally.lookups));
    t.layer["core.attempts_per_op"] =
        ratio(static_cast<double>(tally.attempts), ops);
    t.layer["core.intersect_ratio"] =
        static_cast<double>(tally.intersected) / lookups;
    t.layer["core.reply_drop_ratio"] =
        static_cast<double>(tally.reply_drops) / lookups;
    t.layer["core.mrw_load"] =
        tally.mrw_load / static_cast<double>(w.networks);
    if (traced) {
        record_trace(t, counts, ops);
    }
    check(t, tally.adv_ok > 0, "no advertisement reached its quorum");
    check(t, tally.hits > 0, "no lookup found its key");
    record_spans(t, spans, first_span);
    return t;
}

// ---------------------------------------------------------------------
// kv_zipf_rw: svc over a static n=400 network, open-loop Poisson Zipf
// reads and writes after a seeded key population.
// ---------------------------------------------------------------------
struct KvWorkload {
    std::size_t n = 400;
    std::size_t keys = 200;
    double arrival_rate = 40.0;
    double read_fraction = 0.5;
    double zipf_theta = 0.99;
    sim::Time horizon = 60 * sim::kSecond;
    sim::Time drain = 20 * sim::kSecond;
};

// Poisson arrivals over a Zipf key population, drawn exactly like
// svc::KvWorkloadDriver (key, kind, then origin), but issued here so the
// benchmark sees every callback and can time every read/write call.
class OpenLoop {
public:
    OpenLoop(const KvWorkload& w, net::World& world, std::uint64_t seed)
        : w_(w), world_(world), zipf_(w.keys, w.zipf_theta), rng_(seed) {}
    ~OpenLoop() {
        if (timer_ != sim::kInvalidEvent) {
            world_.simulator().cancel(timer_);
        }
    }
    OpenLoop(const OpenLoop&) = delete;
    OpenLoop& operator=(const OpenLoop&) = delete;

    // Called when an op is issued: (is_read, key, origin) -> completion.
    std::function<void(bool, util::Key, util::NodeId)> on_issue;

    void start() {
        end_ = world_.simulator().now() + w_.horizon;
        next();
    }
    sim::Time end() const { return end_; }

private:
    void next() {
        sim::Simulator& sim = world_.simulator();
        const sim::Time when =
            sim.now() + sim::from_seconds(rng_.exponential(w_.arrival_rate));
        if (when >= end_) {
            timer_ = sim::kInvalidEvent;
            return;
        }
        timer_ = sim.schedule_at(when, [this] {
            timer_ = sim::kInvalidEvent;
            const util::Key key = 1 + zipf_.sample(rng_);
            const bool is_read = rng_.bernoulli(w_.read_fraction);
            next();
            const util::NodeId origin = world_.alive_set().select(
                rng_.index(world_.alive_count()));
            on_issue(is_read, key, origin);
        });
    }

    const KvWorkload& w_;
    net::World& world_;
    svc::ZipfSampler zipf_;
    util::Rng rng_;
    sim::EventId timer_ = sim::kInvalidEvent;
    sim::Time end_ = 0;
};

net::WorldParams kv_world(const KvWorkload& w, std::uint64_t seed) {
    net::WorldParams wp;
    wp.n = w.n;
    wp.seed = seed;
    wp.oracle_neighbors = true;
    return wp;
}

core::BiquorumSpec kv_spec(std::size_t n) {
    core::BiquorumSpec spec;
    spec.eps = 0.05;
    spec.advertise.kind = core::StrategyKind::kRandom;
    spec.advertise.monotonic_store = true;
    spec.lookup.kind = core::StrategyKind::kRandom;
    spec.lookup.collect_all_replies = true;
    spec.resolve_sizes(n);  // Corollary 5.3: qa = ql = 35 at n = 400
    return spec;
}

// Writes every key once, one at a time, from a single client (node 0,
// as bench_frontier seeds its keys), so seeding pays route discovery
// from one origin only. A write is two accesses in sequence, so its
// callback is due `write_lifetime` after it is issued.
void seed_keys(const KvWorkload& w, svc::KvService& kv, net::World& world,
               sim::Time write_lifetime, Spans& spans, Ledger& ledger,
               std::uint64_t& seed_ok) {
    Phase p(spans, "svc.seed");
    sim::Simulator& sim = world.simulator();
    const util::NodeId origin = 0;
    for (util::Key key = 1; key <= w.keys; ++key) {
        const std::uint64_t op = ledger.open(sim.now() + write_lifetime);
        {
            Call c(spans, "svc.write", op);
            kv.write(origin, key, static_cast<std::uint32_t>(key),
                     [&ledger, &seed_ok, op](const svc::KvWriteResult& r) {
                         if (ledger.resolve(op)) {
                             seed_ok += r.ok ? 1 : 0;
                         }
                     });
        }
        {
            Call c(spans, "sim.step", op);
            const sim::Time deadline = ledger.ops[op].due + sim::kSecond;
            while (!ledger.resolved(op) && sim.now() < deadline &&
                   sim.step()) {
            }
        }
        spans.cut('s');
    }
}

Trial run_kv(const KvWorkload& w, std::uint64_t seed, bool traced,
             Spans& spans) {
    Trial t;
    t.traced = traced;
    spans.set_detailed(traced);
    const std::size_t first_span = spans.size();

    auto ledger = std::make_shared<Ledger>();
    std::uint64_t seed_ok = 0, reads = 0, writes = 0, read_ok = 0,
                  write_ok = 0, failed = 0;
    std::vector<double> read_lat, write_lat;
    TraceCounts counts;
    std::unique_ptr<net::World> world;
    std::unique_ptr<membership::OracleMembership> membership;
    std::unique_ptr<core::LocationService> location;
    std::unique_ptr<svc::KvService> kv;
    std::unique_ptr<MaybeTrace> trace;
    sim::Time read_lifetime = 0;
    {
        Phase trial(spans, "trial");
        spans.start_slices();
        {
            Phase setup(spans, "setup");
            {
                Phase p(spans, "net.world_build", 's');
                world = std::make_unique<net::World>(kv_world(w, seed));
            }
            {
                Phase p(spans, "membership.build", 's');
                membership =
                    std::make_unique<membership::OracleMembership>(*world);
            }
            {
                Phase p(spans, "core.service_build", 's');
                location = std::make_unique<core::LocationService>(
                    *world, kv_spec(w.n), membership.get());
                kv = std::make_unique<svc::KvService>(*location);
                read_lifetime = access_lifetime(location->biquorum().context());
            }
            trace = std::make_unique<MaybeTrace>(traced, world->simulator(),
                                                 counts);
            {
                Phase p(spans, "net.start", 's');
                world->start();
            }
            seed_keys(w, *kv, *world, 2 * read_lifetime, spans, *ledger,
                      seed_ok);
        }
        sim::Simulator& sim = world->simulator();
        WindowStart w0;
        {
            Phase window(spans, "window");
            w0 = window_start(*world);
            OpenLoop loop(w, *world, seed ^ 0x5eedULL);
            loop.on_issue = [&, ledger](bool is_read, util::Key key,
                                        util::NodeId origin) {
                // A read is one access; a write is two in sequence.
                const sim::Time at = sim.now();
                const std::uint64_t op =
                    ledger->open(at + (is_read ? 1 : 2) * read_lifetime);
                if (is_read) {
                    ++reads;
                    Call c(spans, "svc.read", op);
                    kv->read(origin, key,
                             [&, ledger, op, at](const svc::KvReadResult& r) {
                                 if (!ledger->resolve(op)) {
                                     return;
                                 }
                                 read_ok += r.ok ? 1 : 0;
                                 failed +=
                                     r.timed_out || r.inconclusive ? 1 : 0;
                                 read_lat.push_back(
                                     sim::to_seconds(sim.now() - at));
                             });
                } else {
                    ++writes;
                    Call c(spans, "svc.write", op);
                    kv->write(
                        origin, key, static_cast<std::uint32_t>(op),
                        [&, ledger, op, at](const svc::KvWriteResult& r) {
                            if (!ledger->resolve(op)) {
                                return;
                            }
                            write_ok += r.ok ? 1 : 0;
                            failed += r.ok ? 0 : 1;
                            write_lat.push_back(
                                sim::to_seconds(sim.now() - at));
                        });
                }
            };
            loop.start();
            // One-second slices so the trace ring is drained as it fills.
            const sim::Time end = loop.end() + w.drain;
            while (sim.now() < end) {
                Call c(spans, "sim.step");
                sim.run_until(std::min(end, sim.now() + sim::kSecond));
                trace->drain();
                spans.cut('w');
            }
            ledger->settle(0, sim.now());
        }
        const std::uint64_t censored = ledger->censored;
        const double ops = static_cast<double>(reads + writes);
        add_window(t, *world, w0);
        finish_window(t, ops);
        close_ledger(t, *ledger);
        t.det["seed_ok"] = static_cast<double>(seed_ok);
        t.det["reads"] = static_cast<double>(reads);
        t.det["writes"] = static_cast<double>(writes);
        t.det["read_ok"] = static_cast<double>(read_ok);
        t.det["write_ok"] = static_cast<double>(write_ok);
        t.det["hit_ratio"] = ratio(static_cast<double>(read_ok),
                                   static_cast<double>(reads));
        t.det["lookup_p50_sim_s"] = percentile(read_lat, 0.5);
        t.det["lookup_p99_sim_s"] = percentile(read_lat, 0.99);
        t.det["write_p99_sim_s"] = percentile(write_lat, 0.99);
        t.det["lookup_samples"] = static_cast<double>(read_lat.size());
        t.det["write_samples"] = static_cast<double>(write_lat.size());
        t.det["failed_op_rate"] =
            ratio(static_cast<double>(failed + censored + ledger->lost), ops);
        t.layer["svc.cache_hit_rate"] =
            ratio(static_cast<double>(kv->cache_hits()),
                  static_cast<double>(kv->cache_hits() + kv->cache_misses()));
        t.layer["svc.cache_invalidations"] =
            static_cast<double>(kv->cache_invalidations());
        t.layer["svc.censored"] = static_cast<double>(censored);
        t.layer["core.mrw_load"] =
            core::summarize_load(location->biquorum().context()).mrw_load;
        if (traced) {
            record_trace(t, counts, ops);
        }
        check(t, read_ok > 0 && write_ok > 0,
              "no read or no write succeeded");
        spans.cut('b');
        {
            Phase p(spans, "net.teardown", 't');
            trace.reset();
            kv.reset();
            location.reset();
            membership.reset();
            world.reset();
        }
    }
    record_spans(t, spans, first_span);
    return t;
}

// Smoke-only cross-check: svc::KvWorkloadDriver over the same world and
// seeds must issue the same op stream as the benchmark's own open loop.
std::vector<std::string> kv_driver_crosscheck(const KvWorkload& w,
                                              std::uint64_t seed,
                                              const Trial& ours) {
    net::World world(kv_world(w, seed));
    membership::OracleMembership membership(world);
    core::LocationService location(world, kv_spec(w.n), &membership);
    svc::KvService kv(location);
    world.start();
    Spans spans;
    Ledger ledger;
    std::uint64_t seed_ok = 0;
    seed_keys(w, kv, world, 2 * access_lifetime(location.biquorum().context()),
              spans, ledger, seed_ok);
    svc::KvWorkloadParams dp;
    dp.key_count = w.keys;
    dp.zipf_theta = w.zipf_theta;
    dp.read_fraction = w.read_fraction;
    dp.arrival_rate = w.arrival_rate;
    dp.horizon = w.horizon;
    dp.drain = w.drain;
    dp.seed = seed ^ 0x5eedULL;
    svc::KvWorkloadDriver driver(kv, dp);
    const svc::KvWorkloadReport r = driver.run();
    std::vector<std::string> out;
    const auto same = [&](double theirs, const char* key) {
        const auto it = ours.det.find(key);
        if (it == ours.det.end() || it->second != theirs) {
            out.push_back(std::string("KvWorkloadDriver disagrees on ") +
                          key);
        }
    };
    same(static_cast<double>(r.reads), "reads");
    same(static_cast<double>(r.writes), "writes");
    same(static_cast<double>(r.read_ok), "read_ok");
    same(static_cast<double>(r.write_ok), "write_ok");
    same(static_cast<double>(r.censored), "ops_censored");
    return out;
}

// ---------------------------------------------------------------------
// scale_churn_100k: bench_scale's configuration — n=100k, abstract link,
// lazy Random Waypoint, live churn, one-hop app broadcasts.
// ---------------------------------------------------------------------
struct ScaleWorkload {
    std::size_t n = 100'000;
    sim::Time warmup = 10 * sim::kSecond;
    sim::Time window = 60 * sim::kSecond;
    sim::Time app_spacing = 50 * sim::kMillisecond;
};

struct Payload final : net::AppMessage {};

// Fails `batch` random alive nodes and revives as many failed ones every
// sim second (bench_scale's ChurnDriver, with spans).
class Churn {
public:
    Churn(net::World& world, std::size_t batch, std::uint64_t seed,
          Spans& spans)
        : world_(world), batch_(batch), rng_(seed), spans_(spans) {}
    ~Churn() { world_.simulator().cancel(timer_); }
    Churn(const Churn&) = delete;
    Churn& operator=(const Churn&) = delete;

    void start() { tick(); }

private:
    void tick() {
        for (std::size_t i = 0; i < batch_; ++i) {
            const std::size_t alive = world_.alive_count();
            if (alive <= 1) {
                break;
            }
            const util::NodeId id =
                world_.alive_set().select(rng_.index(alive));
            Call c(spans_, "net.fail_node", id);
            world_.fail_node(id);
        }
        for (std::size_t i = 0; i < batch_; ++i) {
            const std::size_t n = world_.node_count();
            if (world_.alive_count() >= n) {
                break;
            }
            auto id = static_cast<util::NodeId>(rng_.index(n));
            while (world_.alive(id)) {
                id = static_cast<util::NodeId>((id + 1) % n);
            }
            Call c(spans_, "net.revive_node", id);
            world_.revive_node(id);
        }
        timer_ = world_.simulator().schedule_in(sim::kSecond,
                                                [this] { tick(); });
    }

    net::World& world_;
    std::size_t batch_;
    util::Rng rng_;
    Spans& spans_;
    sim::EventId timer_ = sim::kInvalidEvent;
};

// One-hop data broadcasts from random alive senders (bench_scale's
// AppDriver); each send is one op of this workload.
class AppTraffic {
public:
    AppTraffic(net::World& world, sim::Time spacing, std::uint64_t seed,
               Spans& spans)
        : world_(world), spacing_(spacing), rng_(seed), spans_(spans) {}
    ~AppTraffic() { world_.simulator().cancel(timer_); }
    AppTraffic(const AppTraffic&) = delete;
    AppTraffic& operator=(const AppTraffic&) = delete;

    void start() { tick(); }
    std::uint64_t sends() const { return sends_; }

private:
    void tick() {
        const std::size_t alive = world_.alive_count();
        if (alive > 0) {
            const util::NodeId from =
                world_.alive_set().select(rng_.index(alive));
            Call c(spans_, "net.app_send", sends_);
            world_.stack(from).send_broadcast(std::make_shared<Payload>());
            ++sends_;
        }
        timer_ = world_.simulator().schedule_in(spacing_, [this] { tick(); });
    }

    net::World& world_;
    sim::Time spacing_;
    util::Rng rng_;
    Spans& spans_;
    sim::EventId timer_ = sim::kInvalidEvent;
    std::uint64_t sends_ = 0;
};

Trial run_scale(const ScaleWorkload& w, std::uint64_t seed, bool traced,
                Spans& spans) {
    Trial t;
    t.traced = traced;
    spans.set_detailed(traced);
    const std::size_t first_span = spans.size();
    const std::size_t batch = w.n / 2000 + 1;  // ~0.05%/s each way

    net::WorldParams wp;
    wp.n = w.n;
    wp.seed = seed;
    wp.avg_degree = 10.0;
    wp.ensure_connected = false;
    wp.mobile = true;
    wp.waypoint.lazy = true;
    wp.waypoint.min_speed = 0.5;
    wp.waypoint.max_speed = 2.0;
    wp.waypoint.pause = 30 * sim::kSecond;
    wp.heartbeat = 10 * sim::kSecond;

    std::unique_ptr<net::World> world;
    std::unique_ptr<Churn> churn;
    std::unique_ptr<AppTraffic> app;
    std::unique_ptr<MaybeTrace> trace;
    TraceCounts counts;
    {
        Phase trial(spans, "trial");
        spans.start_slices();
        {
            Phase setup(spans, "setup");
            {
                Phase p(spans, "net.world_build", 's');
                world = std::make_unique<net::World>(wp);
                churn = std::make_unique<Churn>(*world, batch,
                                                seed ^ 0x9e3779b9, spans);
                app = std::make_unique<AppTraffic>(
                    *world, w.app_spacing, seed ^ 0x517cc1b7, spans);
            }
            trace = std::make_unique<MaybeTrace>(traced, world->simulator(),
                                                 counts);
            {
                Phase p(spans, "net.start", 's');
                world->start();
                churn->start();
                app->start();
            }
            Phase p(spans, "sim.warmup");
            while (world->simulator().now() < w.warmup) {
                world->simulator().run_until(std::min(
                    w.warmup, world->simulator().now() + sim::kSecond));
                spans.cut('s');
            }
        }
        sim::Simulator& sim = world->simulator();
        const WindowStart w0 = window_start(*world);
        const std::uint64_t sends0 = app->sends();
        {
            Phase window(spans, "window");
            const sim::Time end = w.warmup + w.window;
            while (sim.now() < end) {
                Call c(spans, "sim.step");
                sim.run_until(std::min(end, sim.now() + sim::kSecond));
                trace->drain();
                spans.cut('w');
            }
        }
        const util::KernelStats k = world->kernel_stats();
        const double ops = static_cast<double>(app->sends() - sends0);
        add_window(t, *world, w0);
        finish_window(t, ops);
        if (traced) {
            record_trace(t, counts, ops);
        }
        t.det["alive_final"] = static_cast<double>(world->alive_count());
        // bench_scale's invariants: the scale machinery (closed-form legs,
        // packet recycling, far-future calendar parking) was on the path
        // and churn kept the population in its steady band.
        check(t, t.det["window_events"] > 0, "no events in the window");
        check(t, k.grid_cell_crossings > 0, "no lazy-mobility crossings");
        check(t, k.packet_pool_reuses > 0, "packet pool never recycled");
        check(t, k.calendar_pushes > 0, "calendar tier never used");
        check(t,
              world->alive_count() > w.n - 3 * batch &&
                  world->alive_count() <= w.n,
              "churn drifted the population out of its steady band");
        t.attempted = static_cast<std::uint64_t>(ops);
        t.failed = t.failures.size();
        t.det["failed_op_rate"] = ratio(static_cast<double>(t.failed), ops);
        spans.cut('b');
        {
            Phase p(spans, "net.teardown", 't');
            trace.reset();
            app.reset();
            churn.reset();
            world.reset();
        }
    }
    record_spans(t, spans, first_span);
    return t;
}

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------
std::string num(double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

std::string quoted(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
        }
        out += c;
    }
    return out + "\"";
}

std::string values_json(const Values& v) {
    std::string out = "{";
    for (const auto& [k, x] : v) {
        out += (out.size() > 1 ? ", " : "") + quoted(k) + ": " + num(x);
    }
    return out + "}";
}

std::string trial_json(const Trial& t) {
    std::string failures = "[";
    for (const std::string& f : t.failures) {
        failures += (failures.size() > 1 ? ", " : "") + quoted(f);
    }
    failures += "]";
    std::string slices = "[";
    for (const double x : t.slices) {
        slices += (slices.size() > 1 ? ", " : "") + num(x);
    }
    slices += "]";
    return "{\"traced\": " + std::string(t.traced ? "true" : "false") +
           ", \"attempted\": " + std::to_string(t.attempted) +
           ", \"failed\": " + std::to_string(t.failed) +
           ", \"failures\": " + failures + ", \"host\": " +
           values_json(t.host) + ", \"det\": " + values_json(t.det) +
           ", \"layer\": " + values_json(t.layer) +
           ", \"slice_tags\": " + quoted(t.slice_tags) +
           ", \"slices\": " + slices + "}";
}

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool smoke = false;
    std::string spans_out;
};

int usage() {
    std::fprintf(stderr,
                 "usage: perfbench --workload "
                 "paper_n800|scale_churn_100k|kv_zipf_rw|fullstack_n200 "
                 "--seed N --seconds S --trace 0|1 [--smoke] "
                 "[--spans-out PATH]\n");
    return 2;
}

}  // namespace
}  // namespace pqs::perfbench

int main(int argc, char** argv) {
    using namespace pqs;
    using namespace pqs::perfbench;

    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool has_value = i + 1 < argc;
        if (a == "--workload" && has_value) {
            o.workload = argv[++i];
        } else if (a == "--seed" && has_value) {
            o.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (a == "--seconds" && has_value) {
            o.seconds = std::strtod(argv[++i], nullptr);
        } else if (a == "--trace" && has_value) {
            o.trace = std::strcmp(argv[++i], "1") == 0;
        } else if (a == "--spans-out" && has_value) {
            o.spans_out = argv[++i];
        } else if (a == "--smoke") {
            o.smoke = true;
        } else {
            return usage();
        }
    }

    // Each workload's trial seed is derived from the run seed, so the
    // same --seed always builds the same network and op stream.
    std::uint64_t mix = o.seed;
    for (const char c : o.workload) {  // FNV-1a of the workload name
        mix = (mix ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
    }
    const std::uint64_t trial_seed = util::splitmix64(mix);

    std::function<Trial(bool, Spans&)> run_trial;
    AccessWorkload access;
    KvWorkload kvw;
    ScaleWorkload scale;
    if (o.workload == "paper_n800") {
        access.n = o.smoke ? 100 : 800;
        access.networks = o.smoke ? 1 : 5;
        access.advertisements = 5;
        access.lookups = o.smoke ? 30 : 50;
        run_trial = [&](bool traced, Spans& s) {
            return run_access(access, trial_seed, traced, s);
        };
    } else if (o.workload == "fullstack_n200") {
        access.n = o.smoke ? 50 : 200;
        access.fidelity = net::Fidelity::kFull;
        access.networks = o.smoke ? 2 : 15;
        access.advertisements = 2;
        access.lookups = o.smoke ? 5 : 20;
        run_trial = [&](bool traced, Spans& s) {
            return run_access(access, trial_seed, traced, s);
        };
    } else if (o.workload == "kv_zipf_rw") {
        kvw.n = o.smoke ? 100 : 400;
        kvw.keys = o.smoke ? 20 : 200;
        kvw.horizon = (o.smoke ? 5 : 60) * sim::kSecond;
        kvw.drain = (o.smoke ? 5 : 20) * sim::kSecond;
        run_trial = [&](bool traced, Spans& s) {
            return run_kv(kvw, trial_seed, traced, s);
        };
    } else if (o.workload == "scale_churn_100k") {
        scale.n = o.smoke ? 5'000 : 100'000;
        scale.window = (o.smoke ? 5 : 20) * sim::kSecond;
        run_trial = [&](bool traced, Spans& s) {
            return run_scale(scale, trial_seed, traced, s);
        };
    } else {
        return usage();
    }

    // Identical trials until the budget is spent: a trial starts only if
    // the median trial so far still fits, and at least one runs. The
    // traced run spends half its budget on untraced trials, then adds one
    // traced trial.
    Spans spans;
    std::vector<Trial> trials;
    const double t0 = host_now();
    const double untraced_budget = o.trace ? o.seconds / 2 : o.seconds;
    std::vector<double> durations;
    while (true) {
        const double elapsed = host_now() - t0;
        if (!trials.empty()) {
            std::vector<double> d = durations;
            std::sort(d.begin(), d.end());
            if (elapsed + d[d.size() / 2] > untraced_budget) {
                break;
            }
        }
        trials.push_back(run_trial(false, spans));
        durations.push_back(trials.back().host["trial_s"]);
    }
    std::size_t traced_first_span = spans.size();
    if (o.trace) {
        trials.push_back(run_trial(true, spans));
    }

    std::vector<std::string> extra_failures;
    if (o.smoke && o.workload == "kv_zipf_rw") {
        extra_failures = kv_driver_crosscheck(kvw, trial_seed, trials.front());
    }
    if (o.trace && !o.spans_out.empty() &&
        !spans.write_chrome_json(o.spans_out, traced_first_span)) {
        extra_failures.push_back("cannot write spans to " + o.spans_out);
    }

    std::string out = "{\"workload\": " + quoted(o.workload) +
                      ", \"seed\": " + std::to_string(o.seed) +
                      ", \"smoke\": " + (o.smoke ? "true" : "false") +
                      ", \"failures\": [";
    for (std::size_t i = 0; i < extra_failures.size(); ++i) {
        out += (i > 0 ? ", " : "") + quoted(extra_failures[i]);
    }
    out += "], \"trials\": [";
    for (std::size_t i = 0; i < trials.size(); ++i) {
        out += (i > 0 ? ", " : "") + trial_json(trials[i]);
    }
    out += "]}\n";
    std::fwrite(out.data(), 1, out.size(), stdout);
    return 0;
}
