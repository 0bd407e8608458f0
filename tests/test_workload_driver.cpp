// Service-layer workload tests: exact Zipf sampling, open-loop
// determinism (single- and multi-threaded fan-out), advertise batching,
// the per-key quorum-cache staleness regression (satellite 2), and the
// in-flight censoring regression (satellite 3).
#include "svc/workload_driver.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "core/maintenance.h"
#include "exp/experiment_runner.h"
#include "membership/oracle_membership.h"
#include "stat_test_util.h"

namespace pqs::svc {
namespace {

TEST(ZipfSampler, PmfIsExactAndNormalized) {
    const ZipfSampler zipf(100, 0.99);
    double total = 0.0;
    for (std::size_t i = 0; i < zipf.keys(); ++i) {
        total += zipf.pmf(i);
        if (i > 0) {
            EXPECT_LT(zipf.pmf(i), zipf.pmf(i - 1)) << "i=" << i;
        }
    }
    EXPECT_NEAR(total, 1.0, 1e-12);
    // theta = 0 degenerates to uniform.
    const ZipfSampler flat(64, 0.0);
    for (std::size_t i = 0; i < flat.keys(); ++i) {
        EXPECT_NEAR(flat.pmf(i), 1.0 / 64.0, 1e-12);
    }
}

// Observed key frequencies must match the sampler's own pmf to exact
// binomial tails — this is what "exact inverse-CDF" buys over the YCSB
// rejection approximation.
TEST(ZipfSampler, SampledFrequenciesMatchBinomialTails) {
    const ZipfSampler zipf(50, 0.99);
    util::Rng rng(7);
    constexpr std::size_t kDraws = 20000;
    std::vector<std::size_t> counts(zipf.keys(), 0);
    for (std::size_t i = 0; i < kDraws; ++i) {
        ++counts[zipf.sample(rng)];
    }
    for (const std::size_t key : {std::size_t{0}, std::size_t{1},
                                  std::size_t{10}, std::size_t{49}}) {
        test::expect_rate_near(counts[key], kDraws, zipf.pmf(key));
    }
}

struct WorkloadFixture : ::testing::Test {
    std::unique_ptr<net::World> world;
    std::unique_ptr<membership::OracleMembership> membership;
    std::unique_ptr<core::LocationService> location;
    std::unique_ptr<KvService> kv;

    void build(std::size_t n, std::uint64_t seed = 1, double eps = 0.05,
               KvParams params = {}) {
        // Rebuilding: tear down in reverse dependency order first, or the
        // old service destructors touch a freed world.
        kv.reset();
        location.reset();
        membership.reset();
        world.reset();
        net::WorldParams p;
        p.n = n;
        p.seed = seed;
        p.oracle_neighbors = true;
        world = std::make_unique<net::World>(p);
        membership = std::make_unique<membership::OracleMembership>(*world);
        core::BiquorumSpec spec;
        spec.eps = eps;
        spec.advertise.kind = core::StrategyKind::kRandom;
        spec.advertise.monotonic_store = true;
        spec.lookup.kind = core::StrategyKind::kRandom;
        spec.lookup.collect_all_replies = true;
        location = std::make_unique<core::LocationService>(*world, spec,
                                                           membership.get());
        kv = std::make_unique<KvService>(*location, params);
        world->start();
    }

    void drive(bool& done, sim::Time budget = 120 * sim::kSecond) {
        const sim::Time deadline = world->simulator().now() + budget;
        while (!done && world->simulator().now() < deadline &&
               world->simulator().step()) {
        }
        ASSERT_TRUE(done);
    }

    KvWriteResult write(util::NodeId origin, util::Key key,
                        std::uint32_t data) {
        bool done = false;
        KvWriteResult out;
        kv->write(origin, key, data, [&](const KvWriteResult& r) {
            out = r;
            done = true;
        });
        drive(done);
        return out;
    }

    // Seed every workload key once so Zipfian reads have data to find.
    void prepopulate(const KvWorkloadParams& wp) {
        for (util::Key key = wp.key_base; key < wp.key_base + wp.key_count;
             ++key) {
            ASSERT_TRUE(write(0, key, 1).ok);
        }
    }

    KvReadResult read(util::NodeId origin, util::Key key) {
        bool done = false;
        KvReadResult out;
        kv->read(origin, key, [&](const KvReadResult& r) {
            out = r;
            done = true;
        });
        drive(done);
        return out;
    }
};

std::vector<std::uint64_t> fingerprint(const KvWorkloadReport& r) {
    auto hist = [](const obs::LatencyHistogram& h) {
        std::uint64_t sum = 0;
        for (std::size_t i = 0; i < obs::LatencyHistogram::kBucketCount;
             ++i) {
            sum += (i + 1) * h.bucket_count(i);
        }
        return sum;
    };
    return {r.issued,       r.completed,    r.reads,
            r.writes,       r.read_ok,      r.write_ok,
            r.timeouts,     r.inconclusive, r.censored,
            r.cache_hits,   r.cache_misses, r.cache_invalidations,
            hist(r.read_latency), hist(r.write_latency)};
}

KvWorkloadParams small_workload() {
    KvWorkloadParams wp;
    wp.key_count = 40;
    wp.zipf_theta = 0.99;
    wp.read_fraction = 0.8;
    wp.arrival_rate = 10.0;
    wp.horizon = 8 * sim::kSecond;
    wp.drain = 40 * sim::kSecond;
    wp.seed = 42;
    return wp;
}

// Same seed, same world => bit-identical report, including tails. Also
// pins the open loop itself: the arrival count tracks rate × horizon.
TEST_F(WorkloadFixture, OpenLoopRunIsSeedDeterministic) {
    const KvWorkloadParams wp = small_workload();
    build(80, 3);
    prepopulate(wp);
    KvWorkloadDriver first(*kv, wp);
    const KvWorkloadReport a = first.run();

    build(80, 3);
    prepopulate(wp);
    KvWorkloadDriver second(*kv, wp);
    const KvWorkloadReport b = second.run();

    EXPECT_EQ(fingerprint(a), fingerprint(b));
    // Poisson(rate × horizon = 80) arrivals: a 5-sigma band is [35, 125].
    EXPECT_GE(a.issued, 35u);
    EXPECT_LE(a.issued, 125u);
    EXPECT_GT(a.completed, 0u);
    EXPECT_GT(a.read_ok + a.write_ok, a.issued / 2);
}

// The ExperimentRunner fan-out must produce the same per-trial reports on
// one worker and on four (PQS_THREADS bit-identity, satellite 4).
TEST(WorkloadThreads, FanOutIsBitIdenticalAcrossThreadCounts) {
    const auto trial = [](std::size_t index,
                          util::Rng& rng) -> std::vector<std::uint64_t> {
        net::WorldParams p;
        p.n = 60;
        p.seed = rng();  // deterministic per trial via trial_seed
        p.oracle_neighbors = true;
        net::World world(p);
        membership::OracleMembership membership(world);
        core::BiquorumSpec spec;
        spec.eps = 0.05;
        spec.advertise.kind = core::StrategyKind::kRandom;
        spec.advertise.monotonic_store = true;
        spec.lookup.kind = core::StrategyKind::kRandom;
        spec.lookup.collect_all_replies = true;
        core::LocationService location(world, spec, &membership);
        KvService kv(location);
        world.start();
        KvWorkloadParams wp = small_workload();
        wp.horizon = 4 * sim::kSecond;
        wp.seed = 1000 + index;
        KvWorkloadDriver driver(kv, wp);
        return fingerprint(driver.run());
    };

    exp::RunnerOptions one;
    one.threads = 1;
    exp::RunnerOptions four;
    four.threads = 4;
    const auto a =
        exp::ExperimentRunner(one).map<std::vector<std::uint64_t>>(9, 4,
                                                                   trial);
    const auto b =
        exp::ExperimentRunner(four).map<std::vector<std::uint64_t>>(9, 4,
                                                                    trial);
    EXPECT_EQ(a, b);
}

// Batching: concurrent writes to one key within a flush window must
// resolve through a single advertise access, and the surviving value must
// be the newest one — equivalent to what unbatched writes converge to.
TEST_F(WorkloadFixture, BatchingCoalescesAdvertisesPerKey) {
    KvParams params;
    params.batch_window = 500 * sim::kMillisecond;
    build(80, 5, 0.05, params);
    const util::Key key = 9;

    const std::uint64_t accesses_before =
        kv->biquorum().context().load.accesses();
    int completions = 0;
    int oks = 0;
    for (std::uint32_t i = 0; i < 5; ++i) {
        kv->write(2 + i, key, 100 + i, [&](const KvWriteResult& r) {
            ++completions;
            if (r.ok) ++oks;
        });
    }
    bool drained = false;
    world->simulator().schedule_in(30 * sim::kSecond,
                                   [&] { drained = true; });
    drive(drained);
    EXPECT_EQ(completions, 5);
    EXPECT_EQ(oks, 5);
    // 5 phase-1 lookups + ONE coalesced phase-2 advertise.
    EXPECT_EQ(kv->batch_flushes(), 1u);
    EXPECT_EQ(kv->biquorum().context().load.accesses() - accesses_before,
              6u);

    // The flush advertised the newest pending value: all five raced from
    // base version 0, so version 1 with the max data wins — exactly what
    // five unbatched monotonic advertises would converge to.
    const KvReadResult r = read(1, key);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.value.version, 1u);
    EXPECT_EQ(r.value.data, 104u);
}

// Satellite 2: after a churn burst, a never-invalidated per-key quorum
// cache keeps directing reads at dead members and the hit rate (and read
// success rate) never recovers; with invalidation wired to the
// QuorumRefresher the cache empties on the next refresh and recovers.
TEST_F(WorkloadFixture, CacheRecoversFromChurnOnlyWithInvalidation) {
    struct Outcome {
        std::uint64_t post_ok = 0;
        std::uint64_t post_hits = 0;
        std::uint64_t post_timeouts = 0;
        std::uint64_t invalidations = 0;
    };
    const auto churn_round = [&](bool invalidate) -> Outcome {
        KvParams params;
        params.cache_invalidation = invalidate;
        build(150, 11, 0.05, params);
        core::QuorumRefresher::Params rp;
        rp.explicit_interval = 5 * sim::kSecond;
        core::QuorumRefresher refresher(*location, rp);
        refresher.set_on_refresh(
            [&](util::NodeId node) { kv->on_node_refreshed(node); });

        const util::NodeId writer = 0;
        const util::NodeId reader = 1;
        for (util::Key key = 1; key <= 10; ++key) {
            EXPECT_TRUE(
                write(writer, key, static_cast<std::uint32_t>(500 + key)).ok);
        }
        // Warm the cache: cold read fills it, second read must hit.
        for (util::Key key = 1; key <= 10; ++key) {
            EXPECT_TRUE(read(reader, key).ok);
        }
        for (util::Key key = 1; key <= 10; ++key) {
            const KvReadResult r = read(reader, key);
            EXPECT_TRUE(r.ok);
            EXPECT_TRUE(r.from_cache);
        }

        // Churn burst aimed at the cache: kill every cached quorum member
        // (sparing writer/reader). A random 50% kill is too kind — the
        // alive half of a cached quorum still answers and the ε guarantee
        // papers over the rest, which is exactly why this staleness went
        // unnoticed. Then let one refresh interval elapse.
        refresher.start_node(writer);
        std::set<util::NodeId> victims;
        for (util::Key key = 1; key <= 10; ++key) {
            for (const util::NodeId id : kv->cached_quorum(key)) {
                if (id > reader) {
                    victims.insert(id);
                }
            }
        }
        for (const util::NodeId id : victims) {
            world->fail_node(id);
        }
        EXPECT_GT(world->alive_count(),
                  kv->biquorum().lookup_strategy().config().quorum_size);
        bool settled = false;
        world->simulator().schedule_in(6 * sim::kSecond,
                                       [&] { settled = true; });
        drive(settled);
        // Freeze the refresher for the measurement: its job (signalling
        // the churn) is done, and further ticks would keep emptying the
        // cache we are trying to watch refill.
        refresher.stop();

        Outcome out;
        for (int round = 0; round < 2; ++round) {
            for (util::Key key = 1; key <= 10; ++key) {
                const KvReadResult r = read(reader, key);
                if (r.ok) ++out.post_ok;
                if (r.from_cache) ++out.post_hits;
                if (r.timed_out) ++out.post_timeouts;
            }
        }
        out.invalidations = kv->cache_invalidations();
        return out;
    };

    const Outcome stale = churn_round(false);
    const Outcome fixed = churn_round(true);

    // Pre-fix: nothing was ever evicted; every read keeps aiming at a
    // dead cached quorum and fails, forever.
    EXPECT_EQ(stale.invalidations, 0u);
    test::expect_rate_le(stale.post_ok, 20, 0.25);
    test::expect_rate_le(stale.post_hits, 20, 0.2);
    // Post-fix: the refresh emptied the cache, post-churn reads resolve
    // against live quorums, and by the second pass the refilled cache is
    // hitting again — the hit rate recovers.
    EXPECT_GT(fixed.invalidations, 0u);
    test::expect_rate_ge(fixed.post_ok, 20, 0.85);
    test::expect_rate_ge(fixed.post_hits, 20, 0.4);
    EXPECT_GT(fixed.post_ok, stale.post_ok);
    EXPECT_GT(fixed.post_hits, stale.post_hits);
}

// Operations still in flight at the end of the measurement window must be
// censored into the tail and the timeout rate, not silently dropped.
TEST_F(WorkloadFixture, InFlightOpsAtHorizonAreCensoredNotDropped) {
    KvWorkloadParams wp = small_workload();
    wp.arrival_rate = 30.0;
    wp.horizon = 4 * sim::kSecond;
    wp.drain = 0;  // cut the window right at the last arrivals

    build(80, 17);
    KvWorkloadDriver driver(*kv, wp);
    const KvWorkloadReport r = driver.run();

    ASSERT_GT(r.censored, 0u);
    // Every issued op resolved or was censored, exactly once...
    EXPECT_EQ(r.issued, r.completed + r.censored);
    // ...and left exactly one latency sample: a censored op enters its
    // histogram at the time it waited.
    EXPECT_EQ(r.read_latency.total() + r.write_latency.total(),
              r.completed + r.censored);
    // A censored op is a de-facto timeout.
    EXPECT_GE(r.timeouts, r.censored);
    // MRW load is taken over resolved accesses only: the censored ops
    // already touched nodes, so counting them would deflate L(S).
    const core::LoadAccountant& load = location->biquorum().context().load;
    EXPECT_LT(load.resolved(), load.accesses());
    EXPECT_DOUBLE_EQ(r.load.mrw_load,
                     r.load.max / static_cast<double>(load.resolved()));
}

}  // namespace
}  // namespace pqs::svc
