// End-to-end scenario tests exercising the full experiment driver used by
// the benches (reduced scales so the suite stays fast).
#include "core/scenario.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

namespace pqs::core {
namespace {

ScenarioParams base_params(std::size_t n, std::uint64_t seed = 1) {
    ScenarioParams p;
    p.world.n = n;
    p.world.seed = seed;
    p.world.oracle_neighbors = true;
    p.spec.advertise.kind = StrategyKind::kRandom;
    p.spec.lookup.kind = StrategyKind::kUniquePath;
    p.spec.eps = 0.1;
    p.advertise_count = 20;
    p.lookup_count = 60;
    p.lookup_nodes = 10;
    p.warmup = 2 * sim::kSecond;
    p.op_spacing = 100 * sim::kMillisecond;
    return p;
}

TEST(Scenario, RandomUniquePathBaseline) {
    const ScenarioResult r = run_scenario(base_params(80));
    EXPECT_EQ(r.n, 80u);
    EXPECT_GT(r.advertise_quorum, 0u);
    EXPECT_GT(r.lookup_quorum, 0u);
    // Lemma 5.2 with eps=0.1: expect >= 0.9 minus noise.
    EXPECT_GE(r.hit_ratio, 0.8);
    EXPECT_GE(r.intersect_ratio, r.hit_ratio);
    EXPECT_GT(r.msgs_per_advertise, 0.0);
    EXPECT_GT(r.msgs_per_lookup, 0.0);
    EXPECT_GT(r.advertise_ok_ratio, 0.9);
}

TEST(Scenario, UniquePathLookupCheaperThanRandomLookup) {
    ScenarioParams up = base_params(100, 2);
    const ScenarioResult r_up = run_scenario(up);

    ScenarioParams rnd = base_params(100, 2);
    rnd.spec.lookup.kind = StrategyKind::kRandom;
    const ScenarioResult r_rnd = run_scenario(rnd);

    // §8.3: UNIQUE-PATH lookups cost far fewer messages than RANDOM (which
    // pays multihop routes) at comparable hit ratios.
    EXPECT_LT(r_up.msgs_per_lookup, r_rnd.msgs_per_lookup);
    EXPECT_GE(r_up.hit_ratio, 0.75);
    EXPECT_GE(r_rnd.hit_ratio, 0.75);
    // And invokes no routing at all.
    EXPECT_DOUBLE_EQ(r_up.routing_per_lookup, 0.0);
    EXPECT_GT(r_rnd.routing_per_lookup, 0.0);
}

TEST(Scenario, HitRatioGrowsWithLookupQuorum) {
    ScenarioParams small = base_params(100, 3);
    small.spec.advertise.quorum_size = 20;
    small.spec.lookup.quorum_size = 2;
    const ScenarioResult r_small = run_scenario(small);

    ScenarioParams large = base_params(100, 3);
    large.spec.advertise.quorum_size = 20;
    large.spec.lookup.quorum_size = 30;
    const ScenarioResult r_large = run_scenario(large);

    EXPECT_GT(r_large.hit_ratio, r_small.hit_ratio);
}

TEST(Scenario, ChurnDegradesGracefully) {
    // Fig. 14(f): with fail+join churn and adjusted lookups, intersection
    // degrades slowly (0.95 -> ~0.87 at 50% churn per the paper).
    ScenarioParams p = base_params(100, 4);
    p.world.avg_degree = 15.0;  // keep connectivity under churn
    p.spec.eps = 0.05;
    p.fail_fraction = 0.3;
    p.join_fraction = 0.3;
    p.adjust_lookup_to_network = true;
    const ScenarioResult r = run_scenario(p);
    EXPECT_GE(r.hit_ratio, 0.6);  // well above collapse, below pristine
}

TEST(Scenario, NoChurnBeatsHeavyChurn) {
    ScenarioParams clean = base_params(100, 5);
    clean.world.avg_degree = 15.0;
    const ScenarioResult r_clean = run_scenario(clean);

    ScenarioParams churned = clean;
    churned.fail_fraction = 0.5;
    churned.join_fraction = 0.5;
    const ScenarioResult r_churned = run_scenario(churned);

    EXPECT_GE(r_clean.hit_ratio, r_churned.hit_ratio);
    EXPECT_GT(r_churned.hit_ratio, 0.4);  // resilience, not collapse
}

TEST(Scenario, MobileUniquePathKeepsWorking) {
    // §8.3: UNIQUE-PATH performs ~identically in mobile networks at
    // walking speeds.
    ScenarioParams p = base_params(80, 6);
    p.world.oracle_neighbors = false;  // realistic stale neighbor tables
    p.world.mobile = true;
    p.world.waypoint.min_speed = 0.5;
    p.world.waypoint.max_speed = 2.0;
    p.warmup = 25 * sim::kSecond;  // let heartbeats populate
    const ScenarioResult r = run_scenario(p);
    EXPECT_GE(r.hit_ratio, 0.7);
}

TEST(Scenario, TimedOutLookupsExcludedFromLatencyMean) {
    // Regression: avg_lookup_latency_s used to average *all* resolved
    // lookups, so a run where every lookup timed out reported a "mean
    // latency" equal to the op-timeout constant instead of reporting the
    // timeouts. With a timeout no access can beat (50 us is below a single
    // MAC transmission), every lookup must surface in timeout_rate and the
    // success-only latency mean must stay exactly zero.
    ScenarioParams p = base_params(60, 9);
    p.advertise_count = 5;
    p.lookup_count = 20;
    p.op_timeout = 50 * sim::kMicrosecond;
    // Never-advertised keys: a lookup cannot resolve at its origin's own
    // store at t=0, so no access can beat the timeout.
    p.lookup_missing_keys = true;
    const ScenarioResult r = run_scenario(p);
    EXPECT_DOUBLE_EQ(r.timeout_rate, 1.0);
    EXPECT_DOUBLE_EQ(r.hit_ratio, 0.0);
    EXPECT_DOUBLE_EQ(r.avg_lookup_latency_s, 0.0);
    EXPECT_EQ(r.latency_hist.total(), 0u);
}

TEST(Scenario, SuccessfulLookupsPopulateLatencyHistogram) {
    const ScenarioParams p = base_params(80, 10);
    const ScenarioResult r = run_scenario(p);
    ASSERT_GT(r.hit_ratio, 0.0);
    const auto hits = static_cast<std::uint64_t>(std::llround(
        r.hit_ratio * static_cast<double>(p.lookup_count)));
    EXPECT_EQ(r.latency_hist.total(), hits);
    // Quantiles are monotone and in a sane range for an 80-node network.
    const double p50 = r.latency_hist.quantile(0.5);
    const double p99 = r.latency_hist.quantile(0.99);
    EXPECT_GT(p50, 0.0);
    EXPECT_GE(p99, p50);
    EXPECT_LT(p99, sim::to_seconds(p.op_timeout));
    EXPECT_NEAR(r.timeout_rate, 0.0, 0.2);
}

TEST(Scenario, AveragedRunsAggregate) {
    ScenarioParams p = base_params(60, 7);
    p.advertise_count = 10;
    p.lookup_count = 30;
    const ScenarioAggregate agg = run_scenario_averaged(p, 3, 100);
    EXPECT_EQ(agg.runs, 3);
    EXPECT_EQ(agg.mean.n, 60u);
    EXPECT_GT(agg.mean.hit_ratio, 0.0);
    EXPECT_LE(agg.mean.hit_ratio, 1.0);
    // The paper's error bars: stddev is populated and finite.
    EXPECT_GE(agg.stddev.hit_ratio, 0.0);
    EXPECT_LE(agg.stddev.hit_ratio, 1.0);
    EXPECT_GT(agg.mean.kernel.events_fired, 0u);
}

TEST(Scenario, MissingKeyLookupsAllMiss) {
    ScenarioParams p = base_params(80, 9);
    p.lookup_missing_keys = true;
    const ScenarioResult r = run_scenario(p);
    EXPECT_DOUBLE_EQ(r.hit_ratio, 0.0);
    EXPECT_DOUBLE_EQ(r.intersect_ratio, 0.0);
    // A miss pays the full quorum (no early halting possible).
    EXPECT_NEAR(r.avg_lookup_nodes, static_cast<double>(r.lookup_quorum),
                1.0);
}

TEST(Scenario, MembershipViewOverride) {
    // A full-view membership allows quorums beyond 2*sqrt(n).
    ScenarioParams p = base_params(60, 10);
    p.membership_view = 60;
    p.spec.advertise.quorum_size = 40;  // > 2*sqrt(60) ~ 16
    p.spec.lookup.quorum_size = 5;
    const ScenarioResult r = run_scenario(p);
    EXPECT_GT(r.avg_advertise_nodes, 30.0);
}

TEST(Scenario, DeterministicForSeed) {
    const ScenarioResult a = run_scenario(base_params(60, 8));
    const ScenarioResult b = run_scenario(base_params(60, 8));
    EXPECT_DOUBLE_EQ(a.hit_ratio, b.hit_ratio);
    EXPECT_DOUBLE_EQ(a.msgs_per_lookup, b.msgs_per_lookup);
    EXPECT_DOUBLE_EQ(a.msgs_per_advertise, b.msgs_per_advertise);
}

}  // namespace
}  // namespace pqs::core
