// Kernel micro/meso benchmark suite — the perf-regression harness for the
// simulator hot path. Four layers:
//
//   1. event_churn (micro): steady-state schedule/pop/cancel churn through
//      the event queue, run twice — once on the production slab-backed
//      4-ary heap, once on the pre-rewrite binary-heap + unordered_map
//      implementation (legacy_event_queue.h) — so the emitted speedup is
//      measured on this machine, not assumed.
//   2. cancel_reclaim (micro) and grid_mobility (meso): tombstone
//      reclamation and SpatialGrid::move/query under a mobility-like
//      workload.
//   3. e2e_unique_path_n200 (meso): one n=200 mobile scenario over the
//      abstract link with RANDOM advertise x UNIQUE-PATH lookup (the
//      Fig. 10 shape); the PHY and MAC do not run in it.
//   4. random_walk_step and two_ray_propagation (micro): the per-hop
//      walk step of the UNIQUE-PATH/RANDOM-OPT strategies and the PHY's
//      path-loss evaluation.
//
// Emits BENCH_kernel.json (schema documented in EXPERIMENTS.md): all
// counters are deterministic for the fixed seeds baked in here; only the
// wall_seconds / *_per_second fields vary across machines and runs.
//
// Usage: bench_kernel [--smoke] [--out PATH]
//   --smoke  shrunk workloads for the ctest / scripts/check.sh gate
//   --out    output JSON path (default BENCH_kernel.json in the cwd)
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.h"
#include "core/scenario.h"
#include "geom/random_walk.h"
#include "geom/rgg.h"
#include "geom/spatial_grid.h"
#include "legacy_event_queue.h"
#include "phy/propagation.h"
#include "sim/event_queue.h"
#include "util/kernel_stats.h"
#include "util/mem.h"
#include "util/rng.h"

namespace pqs::bench {
namespace {

// ---------------------------------------------------------------------
// JSON emission (hand-rolled; the schema is flat enough not to need more)
// ---------------------------------------------------------------------

struct JsonWriter {
    std::string out = "{\n";
    bool first_in_scope = true;

    void comma() {
        if (!first_in_scope) {
            out += ",\n";
        }
        first_in_scope = false;
    }
    void raw_field(const std::string& key, const std::string& value) {
        comma();
        out += "  \"" + key + "\": " + value;
    }
    void str_field(const std::string& key, const std::string& value) {
        raw_field(key, "\"" + value + "\"");
    }
    std::string finish() {
        out += "\n}\n";
        return out;
    }
};

// One bench record: name/impl, deterministic counters, wall measurements.
struct BenchRecord {
    std::string name;
    std::string impl;
    std::uint64_t work_items = 0;  // fired events / grid ops / sim events
    double wall_seconds = 0.0;
    double items_per_second = 0.0;
    std::vector<std::pair<std::string, std::uint64_t>> counters;

    std::string to_json() const {
        std::string j = "    {\n";
        j += "      \"name\": \"" + name + "\",\n";
        j += "      \"impl\": \"" + impl + "\",\n";
        j += "      \"work_items\": " + fmt_u64(work_items) + ",\n";
        j += "      \"wall_seconds\": " + fmt_double(wall_seconds) + ",\n";
        j += "      \"items_per_second\": " + fmt_double(items_per_second);
        if (!counters.empty()) {
            j += ",\n      \"counters\": {";
            bool first = true;
            for (const auto& [key, value] : counters) {
                j += std::string(first ? "" : ", ") + "\"" + key +
                     "\": " + fmt_u64(value);
                first = false;
            }
            j += "}";
        }
        j += "\n    }";
        return j;
    }
};

std::vector<std::pair<std::string, std::uint64_t>> counter_list(
    const util::KernelStats& stats) {
    std::vector<std::pair<std::string, std::uint64_t>> out;
    std::size_t count = 0;
    const util::KernelStatsField* fields = util::kernel_stats_fields(&count);
    for (std::size_t i = 0; i < count; ++i) {
        out.emplace_back(fields[i].name, fields[i].get(stats));
    }
    return out;
}

// ---------------------------------------------------------------------
// 1. event_churn — steady-state schedule/pop/cancel mix
// ---------------------------------------------------------------------

struct ChurnResult {
    std::uint64_t fired = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t checksum = 0;   // order-sensitive digest of the fired stream
    sim::Time final_time = 0;
    double wall_seconds = 0.0;
    util::KernelStats stats;      // populated for the production queue only
};

// Identical op sequence for both queue implementations: the callback
// captures 32 bytes (sink pointer + 3 payload words), the size class of a
// typical scheduling lambda in the stack (`this` + PacketPtr + ids), which
// is what forces std::function in the legacy queue onto the heap.
template <typename Queue>
ChurnResult run_churn(std::uint64_t seed, std::size_t pending,
                      std::uint64_t target_fired, double cancel_prob) {
    util::Rng rng(seed);
    Queue q;
    ChurnResult r;
    std::uint64_t sink = 0;
    sim::Time now = 0;
    std::vector<typename Queue::EventId> recent(1024, 0);
    std::size_t recent_at = 0;

    const auto make_event = [&](sim::Time when) {
        const std::uint64_t a = rng();
        const std::uint64_t b = a >> 7;
        const std::uint64_t c = a ^ 0x2545f4914f6cdd1dULL;
        const auto id = q.schedule(
            when, [&sink, a, b, c] { sink += a ^ (b + c); });
        recent[recent_at] = id;
        recent_at = (recent_at + 1) % recent.size();
    };

    const double start = now_seconds();
    for (std::size_t i = 0; i < pending; ++i) {
        make_event(static_cast<sim::Time>(1 + rng.uniform_u64(1000000)));
    }
    while (r.fired < target_fired) {
        auto fired = q.pop();
        now = fired.time;
        fired.fn();
        ++r.fired;
        r.checksum = r.checksum * 1099511628211ULL + sink +
                     static_cast<std::uint64_t>(now);
        make_event(now + 1 +
                   static_cast<sim::Time>(rng.uniform_u64(1000000)));
        if (rng.bernoulli(cancel_prob)) {
            const auto victim = recent[rng.index(recent.size())];
            if (q.cancel(victim)) {
                ++r.cancelled;
                // Keep the pending population steady.
                make_event(now + 1 +
                           static_cast<sim::Time>(rng.uniform_u64(1000000)));
            }
        }
    }
    r.wall_seconds = now_seconds() - start;
    r.final_time = now;
    if constexpr (requires { q.stats(); }) {
        r.stats = q.stats();
    }
    return r;
}

template <typename Queue>
ChurnResult best_of(int reps, std::uint64_t seed, std::size_t pending,
                    std::uint64_t target_fired, double cancel_prob) {
    ChurnResult best;
    for (int rep = 0; rep < reps; ++rep) {
        ChurnResult r =
            run_churn<Queue>(seed, pending, target_fired, cancel_prob);
        if (rep == 0 || r.wall_seconds < best.wall_seconds) {
            best = r;
        }
    }
    return best;
}

// ---------------------------------------------------------------------
// 2. cancel_reclaim — mass cancellation must reclaim slots eagerly
// ---------------------------------------------------------------------

struct ReclaimResult {
    double wall_seconds = 0.0;
    util::KernelStats stats;
    bool ok = false;
};

ReclaimResult run_cancel_reclaim(std::uint64_t seed, std::size_t events) {
    util::Rng rng(seed);
    sim::EventQueue q;
    ReclaimResult r;
    std::vector<sim::EventId> ids;
    ids.reserve(events);
    const double start = now_seconds();
    for (std::size_t round = 0; round < 2; ++round) {
        ids.clear();
        for (std::size_t i = 0; i < events; ++i) {
            ids.push_back(q.schedule(
                static_cast<sim::Time>(1 + rng.uniform_u64(1000000)),
                [] {}));
        }
        for (const sim::EventId id : ids) {
            q.cancel(id);
        }
    }
    r.wall_seconds = now_seconds() - start;
    // Round 2 must have recycled round 1's slots: all cancelled, nothing
    // live, and at least `events` slab reuses.
    r.ok = q.size() == 0 && q.stats().slab_reuses >= events &&
           q.stats().events_cancelled == 2 * events;
    r.stats = q.stats();
    return r;
}

// ---------------------------------------------------------------------
// 3. grid_mobility — SpatialGrid::move + query under a mobility workload
// ---------------------------------------------------------------------

struct GridResult {
    std::uint64_t ops = 0;  // moves + queries
    std::uint64_t found = 0;
    double wall_seconds = 0.0;
    util::KernelStats stats;
};

GridResult run_grid_mobility(std::uint64_t seed, std::size_t n,
                             std::size_t rounds) {
    // World sizing formula (§2.4): side² = π r² n / d_avg.
    const double range = 200.0;
    const double avg_degree = 10.0;
    const double side = std::sqrt(3.141592653589793 * range * range *
                                  static_cast<double>(n) / avg_degree);
    util::Rng rng(seed);
    geom::SpatialGrid grid(side, range);
    std::vector<geom::Vec2> pos(n);
    for (std::size_t i = 0; i < n; ++i) {
        pos[i] = {rng.uniform(0.0, side), rng.uniform(0.0, side)};
        grid.insert(static_cast<util::NodeId>(i), pos[i]);
    }
    GridResult r;
    std::vector<util::NodeId> out;
    const double start = now_seconds();
    for (std::size_t round = 0; round < rounds; ++round) {
        for (std::size_t i = 0; i < n; ++i) {
            // Waypoint-ish step: up to 10 m in each axis, clamped inside.
            geom::Vec2 p = pos[i];
            p.x = std::clamp(p.x + rng.uniform(-10.0, 10.0), 0.0, side);
            p.y = std::clamp(p.y + rng.uniform(-10.0, 10.0), 0.0, side);
            pos[i] = p;
            grid.move(static_cast<util::NodeId>(i), p);
            ++r.ops;
        }
        for (std::size_t k = 0; k < n / 10 + 1; ++k) {
            out.clear();
            const auto who = static_cast<util::NodeId>(rng.index(n));
            grid.query(pos[who], range, out, who);
            r.found += out.size();
            ++r.ops;
        }
    }
    r.wall_seconds = now_seconds() - start;
    r.stats = grid.stats();
    return r;
}

// ---------------------------------------------------------------------
// 4. e2e_unique_path_n200 — one abstract-link scenario (Fig. 10 shape)
// ---------------------------------------------------------------------

core::ScenarioParams e2e_params(bool smoke) {
    const std::size_t n = 200;
    const double rtn = std::sqrt(static_cast<double>(n));
    core::ScenarioParams p;
    p.world.n = n;
    p.world.seed = 42;
    p.world.avg_degree = 10.0;
    p.world.mobile = true;
    p.world.oracle_neighbors = false;
    p.world.waypoint.min_speed = 0.5;
    p.world.waypoint.max_speed = 2.0;
    p.world.waypoint.pause = 30 * sim::kSecond;
    p.world.heartbeat = 10 * sim::kSecond;
    p.warmup = 15 * sim::kSecond;
    p.op_spacing = 100 * sim::kMillisecond;
    p.advertise_count = smoke ? 10 : 40;
    p.lookup_count = smoke ? 40 : 200;
    p.lookup_nodes = 25;
    p.spec.advertise.kind = core::StrategyKind::kRandom;
    p.spec.advertise.quorum_size =
        static_cast<std::size_t>(std::lround(2.0 * rtn));
    p.spec.lookup.kind = core::StrategyKind::kUniquePath;
    p.spec.lookup.quorum_size =
        static_cast<std::size_t>(std::lround(1.15 * rtn));
    return p;
}

// ---------------------------------------------------------------------
// 5. random_walk_step / two_ray_propagation — single-kernel loops; the
//    digest folds every output in, so the loop cannot be optimized away
// ---------------------------------------------------------------------

template <typename Step>
BenchRecord time_loop(const char* name, const char* impl, std::uint64_t n,
                      Step step) {
    std::uint64_t digest = 0;
    const double start = now_seconds();
    for (std::uint64_t i = 0; i < n; ++i) {
        digest = digest * 1099511628211ULL + step();
    }
    BenchRecord rec;
    rec.name = name;
    rec.impl = impl;
    rec.work_items = n;
    rec.wall_seconds = now_seconds() - start;
    rec.items_per_second = static_cast<double>(n) / rec.wall_seconds;
    rec.counters = {{"digest", digest}};
    std::printf("  %s: %.3g items/s\n", name, rec.items_per_second);
    return rec;
}

}  // namespace
}  // namespace pqs::bench

int main(int argc, char** argv) {
    using namespace pqs;
    using namespace pqs::bench;

    bool smoke = false;
    std::string out_path = "BENCH_kernel.json";
    if (!parse_args(argc, argv, "bench_kernel", smoke, out_path)) {
        return 2;
    }

    const std::size_t churn_pending = 4096;
    const std::uint64_t churn_fired = smoke ? 100'000 : 2'000'000;
    const double cancel_prob = 0.10;
    const int reps = smoke ? 1 : 3;
    const std::size_t reclaim_events = smoke ? 10'000 : 100'000;
    const std::size_t grid_n = smoke ? 200 : 1000;
    const std::size_t grid_rounds = smoke ? 20 : 200;

    std::printf("bench_kernel (%s): event churn %llu fired, grid n=%zu "
                "x %zu rounds, e2e n=200 UNIQUE-PATH\n",
                smoke ? "smoke" : "full",
                static_cast<unsigned long long>(churn_fired), grid_n,
                grid_rounds);

    std::vector<BenchRecord> records;

    // --- 1. event churn, new vs legacy ---
    const ChurnResult churn_new = best_of<sim::EventQueue>(
        reps, 7, churn_pending, churn_fired, cancel_prob);
    const ChurnResult churn_old = best_of<LegacyEventQueue>(
        reps, 7, churn_pending, churn_fired, cancel_prob);
    if (churn_new.checksum != churn_old.checksum ||
        churn_new.final_time != churn_old.final_time) {
        std::fprintf(stderr,
                     "FATAL: new/legacy event queues diverged on the same "
                     "op sequence (checksum %llx vs %llx)\n",
                     static_cast<unsigned long long>(churn_new.checksum),
                     static_cast<unsigned long long>(churn_old.checksum));
        return 1;
    }
    {
        BenchRecord rec;
        rec.name = "event_churn";
        rec.impl = "slab4heap";
        rec.work_items = churn_new.fired;
        rec.wall_seconds = churn_new.wall_seconds;
        rec.items_per_second =
            static_cast<double>(churn_new.fired) / churn_new.wall_seconds;
        rec.counters = counter_list(churn_new.stats);
        rec.counters.emplace_back("checksum", churn_new.checksum);
        rec.counters.emplace_back(
            "final_time", static_cast<std::uint64_t>(churn_new.final_time));
        records.push_back(rec);
    }
    {
        BenchRecord rec;
        rec.name = "event_churn";
        rec.impl = "legacy";
        rec.work_items = churn_old.fired;
        rec.wall_seconds = churn_old.wall_seconds;
        rec.items_per_second =
            static_cast<double>(churn_old.fired) / churn_old.wall_seconds;
        rec.counters = {
            {"fired", churn_old.fired},
            {"cancelled", churn_old.cancelled},
            {"checksum", churn_old.checksum},
            {"final_time", static_cast<std::uint64_t>(churn_old.final_time)},
        };
        records.push_back(rec);
    }
    const double speedup =
        records[0].items_per_second / records[1].items_per_second;
    std::printf("  event_churn: slab4heap %.3g ev/s vs legacy %.3g ev/s "
                "-> %.2fx\n",
                records[0].items_per_second, records[1].items_per_second,
                speedup);

    // --- 2. cancel_reclaim ---
    const ReclaimResult reclaim = run_cancel_reclaim(11, reclaim_events);
    if (!reclaim.ok) {
        std::fprintf(stderr,
                     "FATAL: cancel_reclaim invariants failed (size!=0 or "
                     "slab not recycled)\n");
        return 1;
    }
    {
        BenchRecord rec;
        rec.name = "cancel_reclaim";
        rec.impl = "slab4heap";
        rec.work_items = 2 * reclaim_events;
        rec.wall_seconds = reclaim.wall_seconds;
        rec.items_per_second = static_cast<double>(2 * reclaim_events) /
                               reclaim.wall_seconds;
        rec.counters = counter_list(reclaim.stats);
        records.push_back(rec);
        std::printf("  cancel_reclaim: %.3g cancels/s, slab_reuses=%llu\n",
                    rec.items_per_second,
                    static_cast<unsigned long long>(
                        reclaim.stats.slab_reuses));
    }

    // --- 3. grid_mobility ---
    const GridResult grid = run_grid_mobility(23, grid_n, grid_rounds);
    {
        BenchRecord rec;
        rec.name = "grid_mobility";
        rec.impl = "uniform_grid";
        rec.work_items = grid.ops;
        rec.wall_seconds = grid.wall_seconds;
        rec.items_per_second =
            static_cast<double>(grid.ops) / grid.wall_seconds;
        rec.counters = counter_list(grid.stats);
        rec.counters.emplace_back("neighbors_found", grid.found);
        records.push_back(rec);
        std::printf("  grid_mobility: %.3g ops/s (%llu moves, %llu "
                    "queries, %llu cell crossings)\n",
                    rec.items_per_second,
                    static_cast<unsigned long long>(grid.stats.grid_moves),
                    static_cast<unsigned long long>(
                        grid.stats.grid_queries),
                    static_cast<unsigned long long>(
                        grid.stats.grid_cell_crossings));
    }

    // --- 4. e2e scenario ---
    {
        const double start = now_seconds();
        const core::ScenarioResult r = core::run_scenario(e2e_params(smoke));
        const double wall = now_seconds() - start;
        BenchRecord rec;
        rec.name = "e2e_unique_path_n200";
        rec.impl = "abstract_link";
        rec.work_items = r.kernel.events_fired;
        rec.wall_seconds = wall;
        rec.items_per_second =
            static_cast<double>(r.kernel.events_fired) / wall;
        rec.counters = counter_list(r.kernel);
        rec.counters.emplace_back(
            "hits_x1000",
            static_cast<std::uint64_t>(std::lround(1000.0 * r.hit_ratio)));
        rec.counters.emplace_back(
            "arena_high_water",
            static_cast<std::uint64_t>(r.arena_high_water));
        records.push_back(rec);
        std::printf("  e2e_unique_path_n200: %.3g sim events/s "
                    "(%llu events, hit=%.3f)\n",
                    rec.items_per_second,
                    static_cast<unsigned long long>(rec.work_items),
                    r.hit_ratio);
    }

    // --- 5. single-kernel loops ---
    util::Rng walk_rng(4);
    const geom::Rgg rgg =
        geom::make_connected_rgg({400, 200.0, 10.0}, walk_rng);
    util::NodeId at = 0;
    records.push_back(time_loop(
        "random_walk_step", "simple_walk", smoke ? 200'000 : 2'000'000, [&] {
            at = geom::walk_step(rgg.graph, at, geom::WalkKind::kSimple,
                                 walk_rng);
            return std::uint64_t{at};
        }));
    const phy::PropagationParams prop;
    double d = 1.0;
    records.push_back(time_loop(
        "two_ray_propagation", "phy", smoke ? 1'000'000 : 10'000'000, [&] {
            d = d >= 1200.0 ? 1.0 : d + 1.0;
            return std::bit_cast<std::uint64_t>(
                phy::two_ray_rx_power_mw(prop, d));
        }));

    // --- emit JSON ---
    JsonWriter json;
    json.str_field("schema", "pqs.bench_kernel/1");
    json.str_field("mode", smoke ? "smoke" : "full");
    json.raw_field("reps", fmt_u64(static_cast<std::uint64_t>(reps)));
    // Host telemetry, like wall_seconds: varies across machines/runs.
    json.raw_field("peak_rss_bytes", fmt_u64(util::peak_rss_bytes()));
    std::string benches = "[\n";
    for (std::size_t i = 0; i < records.size(); ++i) {
        benches += records[i].to_json();
        benches += (i + 1 < records.size()) ? ",\n" : "\n";
    }
    benches += "  ]";
    json.raw_field("benches", benches);
    json.raw_field("derived",
                   "{\"event_churn_speedup\": " + fmt_double(speedup) + "}");

    if (!write_file(out_path, json.finish())) {
        return 1;
    }
    std::printf("wrote %s (event_churn_speedup=%.2fx)\n", out_path.c_str(),
                speedup);
    return 0;
}
