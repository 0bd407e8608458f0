// The continuous-churn scenario mode (live.enabled): the FaultPlan /
// refresh / retry / sampling machinery runs end to end, results stay
// bit-identical per seed and across thread counts (the golden fingerprint
// the benches depend on), and total-kill churn aborts cleanly instead of
// hitting UB in the driver.
#include <gtest/gtest.h>

#include "core/scenario.h"
#include "exp/experiment_runner.h"
#include "same_results.h"

namespace pqs::core {
namespace {

ScenarioParams live_params(std::size_t n, std::uint64_t seed) {
    ScenarioParams p;
    p.world.n = n;
    p.world.seed = seed;
    p.world.oracle_neighbors = true;
    p.world.avg_degree = 15.0;  // stay connected under sustained churn
    p.spec.advertise.kind = StrategyKind::kRandom;
    p.spec.lookup.kind = StrategyKind::kRandom;
    p.spec.eps = 0.05;
    p.advertise_count = 12;
    p.lookup_count = 60;
    p.lookup_nodes = 8;
    p.warmup = 2 * sim::kSecond;
    p.op_spacing = 200 * sim::kMillisecond;
    p.live.enabled = true;
    p.live.crash_fraction_per_sec = 0.01;
    p.live.join_fraction_per_sec = 0.01;
    p.live.sample_period = 5 * sim::kSecond;
    return p;
}

TEST(LiveChurn, EngineRunsAndSamples) {
    const ScenarioResult r = run_scenario(live_params(80, 21));
    EXPECT_DOUBLE_EQ(r.aborted, 0.0);
    EXPECT_GT(r.live_crashes, 0.0);
    EXPECT_GT(r.live_joins, 0.0);
    EXPECT_DOUBLE_EQ(r.live_recoveries, 0.0);  // recovery off by default
    ASSERT_FALSE(r.live_samples.empty());
    double lookups = 0.0;
    for (const LiveSample& s : r.live_samples) {
        lookups += s.lookups;
        EXPECT_GT(s.t_s, 0.0);
        EXPECT_GE(s.lookups, s.hits);
        EXPECT_GE(s.intersections, s.hits);
    }
    // Every resolved lookup lands in a bucket (dead-origin lookups are
    // skipped without resolving, so the total may fall short of 60).
    EXPECT_GT(lookups, 0.0);
    EXPECT_LE(lookups, 60.0);
    EXPECT_GT(r.hit_ratio, 0.5);  // mild churn, not collapse
}

TEST(LiveChurn, GoldenFingerprintBitIdentical) {
    const ScenarioResult a = run_scenario(live_params(80, 22));
    const ScenarioResult b = run_scenario(live_params(80, 22));
    expect_same_results(a, b);
    ASSERT_EQ(a.live_samples.size(), b.live_samples.size());
    for (std::size_t i = 0; i < a.live_samples.size(); ++i) {
        EXPECT_EQ(a.live_samples[i].lookups, b.live_samples[i].lookups);
        EXPECT_EQ(a.live_samples[i].hits, b.live_samples[i].hits);
        EXPECT_EQ(a.live_samples[i].intersections,
                  b.live_samples[i].intersections);
        EXPECT_EQ(a.live_samples[i].alive_nodes,
                  b.live_samples[i].alive_nodes);
    }
}

TEST(LiveChurn, IdenticalAcrossThreadCounts) {
    const auto make = [](std::size_t) { return live_params(70, 0); };
    exp::RunnerOptions opts;
    opts.runs_per_point = 2;
    opts.run_seed = 31;

    opts.threads = 1;
    const exp::RunReport serial = exp::ExperimentRunner(opts).run(1, make);
    opts.threads = 4;
    const exp::RunReport parallel = exp::ExperimentRunner(opts).run(1, make);

    expect_same_results(serial.points[0].stats.mean,
                        parallel.points[0].stats.mean, "mean.");
    const auto& s_mean = serial.points[0].stats.mean.live_samples;
    const auto& p_mean = parallel.points[0].stats.mean.live_samples;
    ASSERT_EQ(s_mean.size(), p_mean.size());
    for (std::size_t i = 0; i < s_mean.size(); ++i) {
        EXPECT_EQ(s_mean[i].intersections, p_mean[i].intersections);
        EXPECT_EQ(s_mean[i].lookups, p_mean[i].lookups);
    }
}

TEST(LiveChurn, RefreshPerformsRefreshes) {
    ScenarioParams p = live_params(80, 23);
    p.live.refresh = true;
    p.live.refresh_interval = 3 * sim::kSecond;
    const ScenarioResult r = run_scenario(p);
    EXPECT_GT(r.live_refreshes, 0.0);
}

TEST(LiveChurn, RecoveriesHappenWhenEnabled) {
    ScenarioParams p = live_params(80, 24);
    p.live.crash_fraction_per_sec = 0.03;
    p.live.recover_probability = 1.0;
    p.live.recover_delay_mean = 2 * sim::kSecond;
    const ScenarioResult r = run_scenario(p);
    EXPECT_GT(r.live_crashes, 0.0);
    EXPECT_GT(r.live_recoveries, 0.0);
}

TEST(LiveChurn, RetryRecoversSomeFailedOps) {
    // With link-level drops, a second attempt should never lower the hit
    // ratio; run both configurations on the same seed and compare.
    ScenarioParams once = live_params(80, 25);
    once.live.crash_fraction_per_sec = 0.0;
    once.live.join_fraction_per_sec = 0.0;
    once.live.link_drop = 0.15;
    once.op_max_attempts = 1;
    ScenarioParams twice = once;
    twice.op_max_attempts = 2;
    const ScenarioResult r_once = run_scenario(once);
    const ScenarioResult r_twice = run_scenario(twice);
    // The expected gap (one retry halves the per-op miss rate) dwarfs the
    // sampling noise; allow a small slack so the test is not seed-brittle.
    EXPECT_GT(r_twice.hit_ratio, r_once.hit_ratio - 0.05);
}

TEST(LiveChurn, ExhaustedRetriesAllCountAsTimeouts) {
    // Every lookup exhausts 3 attempts against a link that drops every
    // frame, so each takes 3 × op_timeout + backoffs. The closed loop's
    // deadline must budget for the retries: the pre-fix driver sized it
    // from op_timeout alone and silently dropped the last 17 of 40
    // lookups (timeout_rate 0.575 with hit_ratio 0).
    ScenarioParams p;
    p.world.n = 60;
    p.world.seed = 5;
    p.world.oracle_neighbors = true;
    p.spec.advertise.kind = StrategyKind::kRandom;
    p.spec.lookup.kind = StrategyKind::kRandom;
    p.lookup_count = 40;
    p.op_timeout = sim::kSecond;
    p.op_max_attempts = 3;
    p.live.enabled = true;
    p.live.link_drop = 1.0;
    const ScenarioResult r = run_scenario(p);
    EXPECT_DOUBLE_EQ(r.hit_ratio, 0.0);
    EXPECT_DOUBLE_EQ(r.timeout_rate, 1.0);
}

TEST(LiveChurn, TotalStepChurnAbortsCleanly) {
    // fail_fraction = 1.0 leaves nobody to look up from; pre-fix this
    // indexed an empty vector (UB). Now the scenario flags a clean abort.
    ScenarioParams p = live_params(60, 26);
    p.live.enabled = false;
    p.fail_fraction = 1.0;
    const ScenarioResult r = run_scenario(p);
    EXPECT_DOUBLE_EQ(r.aborted, 1.0);
    EXPECT_DOUBLE_EQ(r.hit_ratio, 0.0);
}

TEST(LiveChurn, TotalLiveChurnAbortsOrSurvives) {
    // Aggressive live crash rate with no joins may empty the network while
    // lookups are in flight; whatever happens must terminate cleanly.
    ScenarioParams p = live_params(40, 27);
    p.live.crash_fraction_per_sec = 0.5;
    p.live.join_fraction_per_sec = 0.0;
    const ScenarioResult r = run_scenario(p);
    EXPECT_GE(r.live_crashes, 0.0);
    EXPECT_LE(r.hit_ratio, 1.0);
}

}  // namespace
}  // namespace pqs::core
