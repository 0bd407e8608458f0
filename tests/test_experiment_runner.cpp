// The deterministic parallel experiment runner: seed derivation is a
// stable contract, results are bit-identical for every thread count, and
// the generic aggregator's stddev matches a hand computation.
#include "exp/experiment_runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <set>
#include <string>

#include "same_results.h"
#include "util/parallel.h"

namespace pqs::exp {
namespace {

core::ScenarioParams tiny_scenario(std::size_t n) {
    core::ScenarioParams p;
    p.world.n = n;
    p.world.oracle_neighbors = true;
    p.spec.advertise.kind = core::StrategyKind::kRandom;
    p.spec.lookup.kind = core::StrategyKind::kUniquePath;
    p.advertise_count = 5;
    p.lookup_count = 10;
    p.lookup_nodes = 5;
    p.warmup = 1 * sim::kSecond;
    p.op_spacing = 50 * sim::kMillisecond;
    return p;
}

TEST(TrialSeed, MatchesSplitmix64Contract) {
    // Contract: trial_seed(run_seed, i) == splitmix64(run_seed ^ i).
    for (const std::uint64_t run_seed : {1ull, 42ull, 0xdeadbeefull}) {
        for (std::uint64_t i = 0; i < 16; ++i) {
            std::uint64_t state = run_seed ^ i;
            EXPECT_EQ(trial_seed(run_seed, i), util::splitmix64(state));
        }
    }
}

TEST(TrialSeed, StableAndDistinct) {
    // Stability: these values are part of recorded experiments; changing
    // the derivation invalidates every archived sweep.
    EXPECT_EQ(trial_seed(1, 0), 0x910A2DEC89025CC1ull);
    EXPECT_EQ(trial_seed(1, 1), 0xE220A8397B1DCDAFull);
    EXPECT_EQ(trial_seed(150, 7), trial_seed(150, 7));
    std::set<std::uint64_t> seeds;
    for (std::uint64_t i = 0; i < 1000; ++i) {
        seeds.insert(trial_seed(99, i));
    }
    EXPECT_EQ(seeds.size(), 1000u);
}

TEST(ParallelFor, CoversEveryIndexOnce) {
    std::vector<std::atomic<int>> hits(257);
    util::parallel_for(hits.size(), 4, [&](std::size_t i) {
        hits[i].fetch_add(1);
    });
    for (const auto& h : hits) {
        EXPECT_EQ(h.load(), 1);
    }
}

TEST(ParallelFor, PropagatesExceptions) {
    EXPECT_THROW(
        util::parallel_for(8, 2,
                           [](std::size_t i) {
                               if (i == 5) {
                                   throw std::runtime_error("boom");
                               }
                           }),
        std::runtime_error);
}

TEST(SweepGrid, RowMajorEnumeration) {
    SweepGrid grid;
    grid.axis("n", {50, 100}).axis("ttl", {1, 2, 3});
    ASSERT_EQ(grid.size(), 6u);
    const SweepPoint p0 = grid.point(0);
    EXPECT_DOUBLE_EQ(p0.at("n"), 50.0);
    EXPECT_DOUBLE_EQ(p0.at("ttl"), 1.0);
    const SweepPoint p4 = grid.point(4);
    EXPECT_DOUBLE_EQ(p4.at("n"), 100.0);
    EXPECT_DOUBLE_EQ(p4.at("ttl"), 2.0);
    EXPECT_EQ(p4.index_at("n"), 100u);
    EXPECT_THROW(grid.point(6), std::out_of_range);
    EXPECT_THROW(p0.at("nope"), std::out_of_range);
}

TEST(SweepGrid, EmptyGridHasOnePoint) {
    SweepGrid grid;
    EXPECT_EQ(grid.size(), 1u);
    EXPECT_TRUE(grid.point(0).values.empty());
}

TEST(Aggregate, StddevMatchesHandComputation) {
    std::vector<core::ScenarioResult> runs(3);
    runs[0].hit_ratio = 0.2;
    runs[1].hit_ratio = 0.4;
    runs[2].hit_ratio = 0.6;
    runs[0].msgs_per_lookup = 10.0;
    runs[1].msgs_per_lookup = 10.0;
    runs[2].msgs_per_lookup = 10.0;
    for (auto& r : runs) {
        r.n = 80;
        r.advertise_quorum = 18;
    }
    const core::ScenarioAggregate agg = core::aggregate_scenarios(runs);
    EXPECT_EQ(agg.runs, 3);
    EXPECT_EQ(agg.mean.n, 80u);
    EXPECT_EQ(agg.stddev.advertise_quorum, 18u);
    EXPECT_DOUBLE_EQ(agg.mean.hit_ratio, 0.4);
    // Sample stddev of {0.2, 0.4, 0.6} = sqrt(0.04) = 0.2.
    EXPECT_NEAR(agg.stddev.hit_ratio, 0.2, 1e-12);
    EXPECT_DOUBLE_EQ(agg.mean.msgs_per_lookup, 10.0);
    EXPECT_DOUBLE_EQ(agg.stddev.msgs_per_lookup, 0.0);
}

TEST(Aggregate, SingleRunHasZeroStddev) {
    std::vector<core::ScenarioResult> runs(1);
    runs[0].hit_ratio = 0.9;
    const core::ScenarioAggregate agg = core::aggregate_scenarios(runs);
    EXPECT_DOUBLE_EQ(agg.mean.hit_ratio, 0.9);
    EXPECT_DOUBLE_EQ(agg.stddev.hit_ratio, 0.0);
}

TEST(ExperimentRunner, ResultsIdenticalAcrossThreadCounts) {
    const auto make = [](std::size_t point) {
        return tiny_scenario(40 + 10 * point);
    };
    RunnerOptions opts;
    opts.runs_per_point = 2;
    opts.run_seed = 7;

    opts.threads = 1;
    const RunReport serial = ExperimentRunner(opts).run(2, make);
    opts.threads = 4;
    const RunReport parallel = ExperimentRunner(opts).run(2, make);

    ASSERT_EQ(serial.points.size(), parallel.points.size());
    ASSERT_EQ(serial.trials.size(), parallel.trials.size());
    for (std::size_t t = 0; t < serial.trials.size(); ++t) {
        EXPECT_EQ(serial.trials[t].seed, parallel.trials[t].seed);
    }
    for (std::size_t p = 0; p < serial.points.size(); ++p) {
        const std::string at = "point " + std::to_string(p) + ": ";
        core::expect_same_results(serial.points[p].stats.mean,
                                  parallel.points[p].stats.mean,
                                  at + "mean.");
        core::expect_same_results(serial.points[p].stats.stddev,
                                  parallel.points[p].stats.stddev,
                                  at + "stddev.");
    }
}

TEST(ExperimentRunner, MapIsDeterministicAndOrdered) {
    ExperimentRunner one(RunnerOptions{.threads = 1});
    ExperimentRunner four(RunnerOptions{.threads = 4});
    const auto draw = [](std::size_t trial, util::Rng& rng) {
        return static_cast<double>(trial) + rng.uniform01();
    };
    const auto a = one.map<double>(123, 64, draw);
    const auto b = four.map<double>(123, 64, draw);
    ASSERT_EQ(a.size(), 64u);
    EXPECT_EQ(a, b);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_GE(a[i], static_cast<double>(i));
        EXPECT_LT(a[i], static_cast<double>(i) + 1.0);
    }
}

TEST(RunScenarioAveraged, ReportsStddevAcrossSeeds) {
    core::ScenarioParams p = tiny_scenario(50);
    const core::ScenarioAggregate agg =
        core::run_scenario_averaged(p, 3, 11);
    EXPECT_EQ(agg.runs, 3);
    EXPECT_EQ(agg.mean.n, 50u);
    // The kernel block is summed over the runs.
    std::uint64_t events = 0;
    for (std::uint64_t seed = 11; seed < 14; ++seed) {
        core::ScenarioParams one = p;
        one.world.seed = seed;
        events += core::run_scenario(one).kernel.events_fired;
    }
    EXPECT_GT(events, 0u);
    EXPECT_EQ(agg.mean.kernel.events_fired, events);
    // Different seeds produce different message counts, so the error bar
    // on the per-lookup message cost is nonzero.
    EXPECT_GT(agg.stddev.msgs_per_lookup, 0.0);
    // And the aggregate itself is reproducible.
    const core::ScenarioAggregate again =
        core::run_scenario_averaged(p, 3, 11);
    core::expect_same_results(agg.mean, again.mean);
}

}  // namespace
}  // namespace pqs::exp
