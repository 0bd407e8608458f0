// Tests for the §7 optimizations: bystander caching of replies and
// en-route advertisements, and promiscuous overhearing (§7.2).
#include <gtest/gtest.h>

#include "core/location_service.h"
#include "membership/oracle_membership.h"
#include "util/stats.h"

namespace pqs::core {
namespace {

struct OptFixture : ::testing::Test {
    std::unique_ptr<net::World> world;
    std::unique_ptr<membership::OracleMembership> membership;
    std::unique_ptr<LocationService> service;

    void build(std::size_t n, std::uint64_t seed,
               std::function<void(BiquorumSpec&)> tweak,
               bool promiscuous = false) {
        net::WorldParams p;
        p.n = n;
        p.seed = seed;
        p.oracle_neighbors = true;
        p.abstract_link.promiscuous = promiscuous;
        world = std::make_unique<net::World>(p);
        membership = std::make_unique<membership::OracleMembership>(*world);
        BiquorumSpec spec;
        spec.advertise.kind = StrategyKind::kRandom;
        spec.lookup.kind = StrategyKind::kUniquePath;
        spec.eps = 0.05;
        tweak(spec);
        service = std::make_unique<LocationService>(*world, spec,
                                                    membership.get());
        world->start();
    }

    AccessResult advertise(util::NodeId origin, util::Key key, Value value) {
        AccessResult out;
        bool done = false;
        service->advertise(origin, key, value, [&](const AccessResult& r) {
            out = r;
            done = true;
        });
        drive(done);
        return out;
    }

    AccessResult lookup(util::NodeId origin, util::Key key) {
        AccessResult out;
        bool done = false;
        service->lookup(origin, key, [&](const AccessResult& r) {
            out = r;
            done = true;
        });
        drive(done);
        return out;
    }

    void drive(bool& done) {
        const sim::Time deadline = world->simulator().now() + 90 * sim::kSecond;
        while (!done && world->simulator().now() < deadline &&
               world->simulator().step()) {
        }
        ASSERT_TRUE(done);
    }

    std::size_t bystander_count(util::Key key) {
        std::size_t count = 0;
        for (const util::NodeId id : world->alive_nodes()) {
            const LocalStore& store = service->store(id);
            count += (store.has(key) && !store.is_owner(key)) ? 1 : 0;
        }
        return count;
    }
};

TEST_F(OptFixture, ReplyCachingCreatesBystanders) {
    build(80, 1, [](BiquorumSpec& spec) {
        spec.lookup.cache_replies = true;
        spec.lookup.reply_path_reduction = false;  // longer reply paths
    });
    advertise(3, 42, 420);
    const std::size_t before = bystander_count(42);
    for (int i = 0; i < 10; ++i) {
        lookup(static_cast<util::NodeId>(10 + i * 5), 42);
    }
    EXPECT_GT(bystander_count(42), before);
}

TEST_F(OptFixture, NoCachingNoBystanders) {
    build(80, 1, [](BiquorumSpec& spec) {
        spec.lookup.cache_replies = false;
    });
    advertise(3, 42, 420);
    for (int i = 0; i < 10; ++i) {
        lookup(static_cast<util::NodeId>(10 + i * 5), 42);
    }
    EXPECT_EQ(bystander_count(42), 0u);
}

TEST_F(OptFixture, CachingShortensLaterLookups) {
    build(100, 2, [](BiquorumSpec& spec) {
        spec.lookup.cache_replies = true;
    });
    advertise(3, 7, 70);
    util::Accumulator early;
    util::Accumulator late;
    for (int i = 0; i < 30; ++i) {
        const auto r = lookup(static_cast<util::NodeId>((i * 13) % 100), 7);
        if (r.ok) {
            (i < 10 ? early : late).add(
                static_cast<double>(r.nodes_contacted));
        }
    }
    ASSERT_FALSE(late.empty());
    // With caches accumulating, popular keys are found faster (§7.1).
    EXPECT_LE(late.mean(), early.mean() + 0.5);
}

TEST_F(OptFixture, EnRouteAdvertiseCaching) {
    build(80, 3, [](BiquorumSpec& spec) {
        spec.advertise.enroute_cache = true;
    });
    advertise(3, 9, 90);
    // Relay nodes of the routed advertise kept bystander copies.
    EXPECT_GT(bystander_count(9), 0u);
}

TEST_F(OptFixture, BystandersServeLookups) {
    build(80, 4, [](BiquorumSpec& spec) {
        spec.advertise.enroute_cache = true;
        // Tiny lookup quorum: hits now mostly come from the enlarged
        // effective advertise footprint.
        spec.advertise.quorum_size = 10;
        spec.lookup.quorum_size = 25;
    });
    advertise(3, 11, 110);
    int hits = 0;
    for (int i = 0; i < 20; ++i) {
        hits += lookup(static_cast<util::NodeId>((i * 7) % 80), 11).ok;
    }
    EXPECT_GT(hits, 10);
}

TEST_F(OptFixture, OverhearingAnswersAndHaltsWalks) {
    build(100, 5,
          [](BiquorumSpec& spec) {
              spec.lookup.overhearing = true;
              // Large advertise quorum => overhearers are plentiful.
              spec.advertise.quorum_size = 30;
              spec.lookup.quorum_size = 40;
          },
          /*promiscuous=*/true);
    advertise(3, 21, 210);
    int hits = 0;
    util::Accumulator contacted;
    for (int i = 0; i < 15; ++i) {
        const auto r = lookup(static_cast<util::NodeId>((i * 11) % 100), 21);
        hits += r.ok ? 1 : 0;
        if (r.ok) {
            contacted.add(static_cast<double>(r.nodes_contacted));
        }
    }
    EXPECT_GE(hits, 13);
    // Walks stop early: far fewer than the 40-node target quorum visited.
    EXPECT_LT(contacted.mean(), 20.0);
}

TEST_F(OptFixture, OverhearingOffNeedsPromiscuousWorldToMatter) {
    // overhearing=true but the world is not promiscuous: behaves like the
    // baseline (no overhear events are generated).
    build(100, 5,
          [](BiquorumSpec& spec) {
              spec.lookup.overhearing = true;
              spec.advertise.quorum_size = 30;
              spec.lookup.quorum_size = 40;
          },
          /*promiscuous=*/false);
    advertise(3, 21, 210);
    const auto r = lookup(50, 21);
    EXPECT_TRUE(r.ok || r.intersected || !r.timed_out);
}

}  // namespace
}  // namespace pqs::core
