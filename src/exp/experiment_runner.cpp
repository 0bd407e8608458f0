#include "exp/experiment_runner.h"

#include <algorithm>
#include <chrono>

#include "util/mem.h"
#include "util/parallel.h"

namespace pqs::exp {

std::uint64_t trial_seed(std::uint64_t run_seed, std::uint64_t trial_index) {
    std::uint64_t state = run_seed ^ trial_index;
    return util::splitmix64(state);
}

ExperimentRunner::ExperimentRunner(RunnerOptions options)
    : options_(options),
      threads_(options.threads != 0 ? options.threads
                                    : util::default_thread_count()) {}

RunReport ExperimentRunner::run(
    std::size_t points,
    const std::function<core::ScenarioParams(std::size_t)>& make) const {
    // Deliberate wall-clock use: events/s perf reporting, never results.
    using Clock = std::chrono::steady_clock;  // pqs-lint: allow(raw-timestamp)
    const int runs = std::max(1, options_.runs_per_point);
    const std::size_t trial_count =
        points * static_cast<std::size_t>(runs);

    RunReport report;
    report.threads = threads_;
    report.trials.resize(trial_count);

    const auto run_start = Clock::now();  // pqs-lint: allow(raw-timestamp)
    util::parallel_for(trial_count, threads_, [&](std::size_t trial) {
        TrialRecord& record = report.trials[trial];
        record.point = trial / static_cast<std::size_t>(runs);
        record.rep = static_cast<int>(trial % static_cast<std::size_t>(runs));
        record.seed = trial_seed(options_.run_seed, trial);
        core::ScenarioParams params = make(record.point);
        params.world.seed = record.seed;
        const auto trial_start = Clock::now();  // pqs-lint: allow(raw-timestamp)
        record.result = core::run_scenario(params);
        record.wall_seconds =
            std::chrono::duration<double>(Clock::now() - trial_start)  // pqs-lint: allow(raw-timestamp)
                .count();
    });
    report.wall_seconds =
        std::chrono::duration<double>(Clock::now() - run_start)  // pqs-lint: allow(raw-timestamp)
            .count();

    // Reduce on the caller's thread in grid order: bit-identical output
    // for every thread count.
    report.points.reserve(points);
    std::vector<core::ScenarioResult> reps(static_cast<std::size_t>(runs));
    for (std::size_t p = 0; p < points; ++p) {
        PointSummary summary;
        summary.point = p;
        for (int r = 0; r < runs; ++r) {
            const TrialRecord& record =
                report.trials[p * static_cast<std::size_t>(runs) +
                              static_cast<std::size_t>(r)];
            reps[static_cast<std::size_t>(r)] = record.result;
            summary.wall_seconds += record.wall_seconds;
        }
        summary.stats = core::aggregate_scenarios(reps);
        // The aggregate's kernel block is summed over the point's runs.
        const auto events =
            static_cast<double>(summary.stats.mean.kernel.events_fired);
        report.total_events += events;
        summary.events_per_second =
            summary.wall_seconds > 0.0 ? events / summary.wall_seconds : 0.0;
        report.points.push_back(std::move(summary));
    }
    report.events_per_second = report.wall_seconds > 0.0
                                   ? report.total_events / report.wall_seconds
                                   : 0.0;
    return report;
}

RunReport ExperimentRunner::run(
    const SweepGrid& grid,
    const std::function<core::ScenarioParams(const SweepPoint&)>& make)
    const {
    return run(grid.size(), [&](std::size_t index) {
        return make(grid.point(index));
    });
}

void report_perf(const RunReport& report, const char* label,
                 std::FILE* stream) {
    std::fprintf(stream,
                 "[perf] %s: %zu trials on %zu thread%s, %.2fs wall, "
                 "%.3g events, %.3g events/s\n",
                 label, report.trials.size(), report.threads,
                 report.threads == 1 ? "" : "s", report.wall_seconds,
                 report.total_events, report.events_per_second);
    for (const TrialRecord& trial : report.trials) {
        std::fprintf(stream,
                     "[perf]   trial point=%zu rep=%d seed=%016llx "
                     "wall=%.3fs events=%llu\n",
                     trial.point, trial.rep,
                     static_cast<unsigned long long>(trial.seed),
                     trial.wall_seconds,
                     static_cast<unsigned long long>(
                         trial.result.kernel.events_fired));
    }
    // Kernel counter block merged over every trial: deterministic for the
    // run seed, so two runs of the same experiment must print identical
    // kernel lines even though the wall times above differ.
    util::KernelStats kernel;
    for (const TrialRecord& trial : report.trials) {
        kernel += trial.result.kernel;
    }
    util::report_kernel_stats(kernel, label, stream);
    // Memory telemetry: peak RSS is host-dependent (stays out of the
    // deterministic result set, like wall times); the arena high-water is
    // deterministic per seed, reported as the max over trials since each
    // trial's world owns its own arena.
    double arena_hwm = 0.0;
    for (const TrialRecord& trial : report.trials) {
        arena_hwm = std::max(arena_hwm, trial.result.arena_high_water);
    }
    std::fprintf(stream,
                 "[perf] %s: peak_rss=%.1fMiB arena_high_water=%.2fMiB "
                 "(max/trial)\n",
                 label,
                 static_cast<double>(util::peak_rss_bytes()) /
                     (1024.0 * 1024.0),
                 arena_hwm / (1024.0 * 1024.0));
    // Successful-lookup latency quantiles merged over every trial; like the
    // kernel block, deterministic for the run seed.
    obs::LatencyHistogram latency;
    for (const TrialRecord& trial : report.trials) {
        latency.merge(trial.result.latency_hist);
    }
    if (latency.total() > 0) {
        std::fprintf(stream,
                     "[perf] %s: lookup latency (n=%llu ok) "
                     "p50=%.1fms p95=%.1fms p99=%.1fms\n",
                     label,
                     static_cast<unsigned long long>(latency.total()),
                     latency.quantile(0.50) * 1e3,
                     latency.quantile(0.95) * 1e3,
                     latency.quantile(0.99) * 1e3);
    }
    // §3 load and availability, averaged over trials: mrw_load is the MRW
    // access-probability load L(S) (max node touch fraction); availability
    // is the hit ratio net of vote-inconclusive lookups. Deterministic per
    // seed like the kernel block.
    double mrw_load = 0.0;
    double hit_ratio = 0.0;
    double inconclusive = 0.0;
    for (const TrialRecord& trial : report.trials) {
        mrw_load += trial.result.load.mrw_load;
        hit_ratio += trial.result.hit_ratio;
        inconclusive += trial.result.inconclusive_rate;
    }
    if (!report.trials.empty()) {
        const auto trials = static_cast<double>(report.trials.size());
        std::fprintf(stream,
                     "[perf] %s: mrw_load=%.4f availability=%.4f "
                     "inconclusive=%.4f (mean/trial)\n",
                     label, mrw_load / trials, hit_ratio / trials,
                     inconclusive / trials);
    }
}

}  // namespace pqs::exp
