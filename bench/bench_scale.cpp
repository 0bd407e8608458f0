// bench_scale — the n=100k abstract-stack live-churn trial (ISSUE 6
// deliverable). One World at the scale mode's full configuration:
//
//   - abstract fidelity (unit-disk link, ideal MAC),
//   - lazy Random Waypoint mobility (closed-form legs + cell-crossing
//     events; no global 500 ms tick),
//   - heartbeats every 10 s per node (the per-node background load),
//   - live churn: a driver fails a batch of random alive nodes each sim
//     second and revives the same number from the failed pool,
//   - light app traffic: periodic one-hop data broadcasts from random
//     alive nodes (exercises the pooled packet path without O(n) floods).
//
// Emits BENCH_scale.json (schema pqs.bench_scale/1): deterministic kernel
// counters for the fixed seed plus wall-clock throughput and memory
// telemetry (getrusage peak RSS, arena high-water). The smoke mode
// (n=10k) runs as ctest `bench_scale_smoke` so the scale path is
// exercised — and its invariants asserted — on every CI pass.
//
// Usage: bench_scale [--smoke] [--n N] [--out PATH]
//   --smoke  n=10k, shorter measured window (the ctest gate)
//   --n N    override the node count (e.g. a 1M dry run; see DESIGN.md §10)
//   --out    output JSON path (default BENCH_scale.json in the cwd)
#include <cstdio>
#include <string>
#include <vector>

#include "bench_json.h"
#include "net/node_stack.h"
#include "net/world.h"
#include "util/kernel_stats.h"
#include "util/mem.h"
#include "util/rng.h"

namespace pqs::bench {
namespace {

struct ScaleConfig {
    std::size_t n = 100'000;
    sim::Time warmup = 10 * sim::kSecond;
    sim::Time window = 60 * sim::kSecond;  // measured span after warmup
    std::size_t churn_batch = 0;           // fails (= revives) per sim second
    sim::Time app_spacing = 50 * sim::kMillisecond;
    std::uint64_t seed = 7;
};

struct Payload final : net::AppMessage {};

// Fails `batch` random alive nodes and revives `batch` previously failed
// ones every sim second: population stays ~constant while node lifecycle
// paths (grid remove/insert, stack shutdown/start, mobility restart) churn
// continuously.
class ChurnDriver {
public:
    ChurnDriver(net::World& world, std::size_t batch, std::uint64_t seed)
        : world_(world), batch_(batch), rng_(seed) {}

    void start() { tick(); }

    std::uint64_t crashes() const { return crashes_; }
    std::uint64_t revives() const { return revives_; }

private:
    void tick() {
        for (std::size_t i = 0; i < batch_; ++i) {
            const std::size_t alive = world_.alive_count();
            if (alive <= 1) {
                break;
            }
            world_.fail_node(
                world_.alive_set().select(rng_.index(alive)));
            ++crashes_;
        }
        for (std::size_t i = 0; i < batch_; ++i) {
            // Dead ids are exactly the cleared bits of the alive set; scan
            // from a random start for the first one.
            const std::size_t n = world_.node_count();
            if (world_.alive_count() >= n) {
                break;
            }
            util::NodeId id = static_cast<util::NodeId>(rng_.index(n));
            while (world_.alive(id)) {
                id = static_cast<util::NodeId>((id + 1) % n);
            }
            if (world_.revive_node(id)) {
                ++revives_;
            }
        }
        // pqs-lint: fire-and-forget(driver outlives simulator.run(); the
        // chain dies with the event queue at the end of the measured run)
        world_.simulator().schedule_in(sim::kSecond, [this] { tick(); });
    }

    net::World& world_;
    std::size_t batch_;
    util::Rng rng_;
    std::uint64_t crashes_ = 0;
    std::uint64_t revives_ = 0;
};

// One-hop data broadcasts from random alive senders: pooled Packet
// construction + link fan-out without O(n) route floods.
class AppDriver {
public:
    AppDriver(net::World& world, sim::Time spacing, std::uint64_t seed)
        : world_(world), spacing_(spacing), rng_(seed) {}

    void start() { tick(); }

    std::uint64_t sends() const { return sends_; }

private:
    void tick() {
        const std::size_t alive = world_.alive_count();
        if (alive > 0) {
            const util::NodeId from =
                world_.alive_set().select(rng_.index(alive));
            world_.stack(from).send_broadcast(std::make_shared<Payload>());
            ++sends_;
        }
        // pqs-lint: fire-and-forget(driver outlives simulator.run(); the
        // chain dies with the event queue at the end of the measured run)
        world_.simulator().schedule_in(spacing_, [this] { tick(); });
    }

    net::World& world_;
    sim::Time spacing_;
    util::Rng rng_;
    std::uint64_t sends_ = 0;
};

}  // namespace
}  // namespace pqs::bench

int main(int argc, char** argv) {
    using namespace pqs;
    using namespace pqs::bench;

    bool smoke = false;
    std::string out_path = "BENCH_scale.json";
    std::size_t n_override = 0;
    if (!parse_args(argc, argv, "bench_scale", smoke, out_path,
                    &n_override)) {
        return 2;
    }

    ScaleConfig cfg;
    cfg.n = smoke ? 10'000 : 100'000;
    if (n_override > 0) {
        cfg.n = n_override;
    }
    cfg.window = smoke ? 30 * sim::kSecond : 60 * sim::kSecond;
    cfg.churn_batch = cfg.n / 2000 + 1;  // ~0.05%/s each way

    net::WorldParams wp;
    wp.n = cfg.n;
    wp.seed = cfg.seed;
    wp.avg_degree = 10.0;
    wp.fidelity = net::Fidelity::kAbstract;
    // Connectivity is not the subject here (the RGG threshold grows with
    // log n, so d_avg=10 placements are often disconnected at 100k); skip
    // the resampling loop.
    wp.ensure_connected = false;
    wp.mobile = true;
    wp.waypoint.lazy = true;  // the whole point of the scale mode
    wp.waypoint.min_speed = 0.5;
    wp.waypoint.max_speed = 2.0;
    wp.waypoint.pause = 30 * sim::kSecond;
    wp.heartbeat = 10 * sim::kSecond;

    std::printf("bench_scale (%s): n=%zu, warmup %llds + %llds window, "
                "churn %zu/s each way\n",
                smoke ? "smoke" : "full", cfg.n,
                static_cast<long long>(cfg.warmup / sim::kSecond),
                static_cast<long long>(cfg.window / sim::kSecond),
                cfg.churn_batch);

    const double t0 = now_seconds();
    net::World world(wp);
    ChurnDriver churn(world, cfg.churn_batch, cfg.seed ^ 0x9e3779b9);
    AppDriver app(world, cfg.app_spacing, cfg.seed ^ 0x517cc1b7);
    world.start();
    churn.start();
    app.start();
    const double build_wall = now_seconds() - t0;

    world.simulator().run_until(cfg.warmup);
    const std::uint64_t events_at_warmup =
        world.simulator().events_processed();
    const double t1 = now_seconds();
    world.simulator().run_until(cfg.warmup + cfg.window);
    const double run_wall = now_seconds() - t1;
    const std::uint64_t events_fired =
        world.simulator().events_processed() - events_at_warmup;

    const util::KernelStats stats = world.kernel_stats();
    const std::uint64_t peak_rss = util::peak_rss_bytes();
    const std::uint64_t arena_hwm = world.arena_high_water();
    const double events_per_second =
        run_wall > 0.0 ? static_cast<double>(events_fired) / run_wall : 0.0;

    std::printf("  built+started in %.2fs; measured %llu events in %.2fs "
                "-> %.3g events/s\n",
                build_wall, static_cast<unsigned long long>(events_fired),
                run_wall, events_per_second);
    std::printf("  peak_rss=%.1f MiB (%.0f B/node), arena=%.1f MiB, "
                "alive=%zu/%zu, crashes=%llu revives=%llu sends=%llu\n",
                static_cast<double>(peak_rss) / (1024.0 * 1024.0),
                static_cast<double>(peak_rss) / static_cast<double>(cfg.n),
                static_cast<double>(arena_hwm) / (1024.0 * 1024.0),
                world.alive_count(), world.node_count(),
                static_cast<unsigned long long>(churn.crashes()),
                static_cast<unsigned long long>(churn.revives()),
                static_cast<unsigned long long>(app.sends()));
    std::printf("  crossings=%llu grid_moves=%llu pool_reuses=%llu "
                "calendar_pushes=%llu migrations=%llu\n",
                static_cast<unsigned long long>(stats.grid_cell_crossings),
                static_cast<unsigned long long>(stats.grid_moves),
                static_cast<unsigned long long>(stats.packet_pool_reuses),
                static_cast<unsigned long long>(stats.calendar_pushes),
                static_cast<unsigned long long>(stats.calendar_migrations));

    // Invariants the ctest smoke gate enforces: the trial really ran, the
    // scale machinery (closed-form legs, packet recycling, far-future
    // calendar parking) was actually on the path, and churn kept the
    // population within its steady band.
    Gate check;
    check(events_fired > 0, "no events fired in the measured window");
    check(stats.grid_cell_crossings > 0, "no lazy-mobility cell crossings");
    check(stats.packet_pool_reuses > 0, "packet pool never recycled");
    check(stats.calendar_pushes > 0,
          "no far-future events parked in the calendar tier");
    check(world.alive_count() > cfg.n - 3 * cfg.churn_batch &&
              world.alive_count() <= cfg.n,
          "churn drifted the population out of its steady band");
    if (!check.ok) {
        return 1;
    }

    std::string json = "{\n";
    json += "  \"schema\": \"pqs.bench_scale/1\",\n";
    json += "  \"mode\": \"" + std::string(smoke ? "smoke" : "full") +
            "\",\n";
    json += "  \"n\": " + fmt_u64(cfg.n) + ",\n";
    json += "  \"sim_seconds\": " +
            fmt_double(sim::to_seconds(cfg.window)) + ",\n";
    json += "  \"build_wall_seconds\": " + fmt_double(build_wall) + ",\n";
    json += "  \"run_wall_seconds\": " + fmt_double(run_wall) + ",\n";
    json += "  \"events_fired\": " + fmt_u64(events_fired) + ",\n";
    json += "  \"events_per_second\": " + fmt_double(events_per_second) +
            ",\n";
    json += "  \"peak_rss_bytes\": " + fmt_u64(peak_rss) + ",\n";
    json += "  \"rss_bytes_per_node\": " +
            fmt_double(static_cast<double>(peak_rss) /
                       static_cast<double>(cfg.n)) +
            ",\n";
    json += "  \"arena_high_water_bytes\": " + fmt_u64(arena_hwm) + ",\n";
    json += "  \"alive_final\": " + fmt_u64(world.alive_count()) + ",\n";
    json += "  \"crashes\": " + fmt_u64(churn.crashes()) + ",\n";
    json += "  \"revives\": " + fmt_u64(churn.revives()) + ",\n";
    json += "  \"app_sends\": " + fmt_u64(app.sends()) + ",\n";
    json += "  \"counters\": {";
    {
        std::size_t count = 0;
        const util::KernelStatsField* fields =
            util::kernel_stats_fields(&count);
        for (std::size_t i = 0; i < count; ++i) {
            json += std::string(i == 0 ? "" : ", ") + "\"" +
                    fields[i].name + "\": " + fmt_u64(fields[i].get(stats));
        }
    }
    json += "}\n}\n";

    if (!write_file(out_path, json)) {
        return 1;
    }
    std::printf("wrote %s\n", out_path.c_str());
    return 0;
}
