// FLOODING strategy internals: dedup/parent recording, reply relaying
// along parent chains, expanding-ring escalation, TTL scoping, and
// robustness when parents die mid-reply.
#include <gtest/gtest.h>

#include "core/location_service.h"
#include "membership/oracle_membership.h"

namespace pqs::core {
namespace {

struct FloodFixture : ::testing::Test {
    std::unique_ptr<net::World> world;
    std::unique_ptr<membership::OracleMembership> membership;
    std::unique_ptr<LocationService> service;

    void build(std::size_t n, std::uint64_t seed,
               std::function<void(BiquorumSpec&)> tweak = {}) {
        net::WorldParams p;
        p.n = n;
        p.seed = seed;
        p.oracle_neighbors = true;
        world = std::make_unique<net::World>(p);
        membership = std::make_unique<membership::OracleMembership>(*world);
        BiquorumSpec spec;
        spec.advertise.kind = StrategyKind::kRandom;
        spec.lookup.kind = StrategyKind::kFlooding;
        spec.lookup.flood_ttl = 3;
        if (tweak) {
            tweak(spec);
        }
        service = std::make_unique<LocationService>(*world, spec,
                                                    membership.get());
        world->start();
    }

    AccessResult lookup(util::NodeId origin, util::Key key,
                        sim::Time budget = 90 * sim::kSecond) {
        AccessResult out;
        bool done = false;
        service->lookup(origin, key, [&](const AccessResult& r) {
            out = r;
            done = true;
        });
        const sim::Time deadline = world->simulator().now() + budget;
        while (!done && world->simulator().now() < deadline &&
               world->simulator().step()) {
        }
        EXPECT_TRUE(done);
        return out;
    }

    void advertise(util::NodeId origin, util::Key key, Value value) {
        bool done = false;
        service->advertise(origin, key, value,
                           [&](const AccessResult&) { done = true; });
        while (!done && world->simulator().step()) {
        }
    }
};

TEST_F(FloodFixture, CoverageMatchesBfsWithinTtl) {
    build(100, 1);
    const AccessResult r = lookup(7, /*missing key=*/9999);
    const std::size_t bfs = world->snapshot_graph().nodes_within_hops(7, 3);
    EXPECT_EQ(r.nodes_contacted, bfs);
}

TEST_F(FloodFixture, EachNodeBroadcastsAtMostOncePerFlood) {
    build(100, 2);
    const std::uint64_t before = world->metrics().net_data_tx;
    const AccessResult r = lookup(7, 9999);
    const std::uint64_t broadcasts = world->metrics().net_data_tx - before;
    // Non-leaf covered nodes rebroadcast once; leaves (last ring) do not.
    EXPECT_LE(broadcasts, r.nodes_contacted);
    EXPECT_GT(broadcasts, 0.0);
}

TEST_F(FloodFixture, MultipleHoldersSendMultipleReplies) {
    build(100, 3, [](BiquorumSpec& spec) {
        spec.advertise.quorum_size = 40;  // many holders within TTL
    });
    advertise(3, 5, 50);
    const std::uint64_t before = world->metrics().net_data_tx;
    const AccessResult r = lookup(50, 5);
    EXPECT_TRUE(r.ok);
    // No early halting (§4.4): flood expands fully and several holders
    // reply, costing more than a single-reply scheme would.
    world->simulator().run_until(world->simulator().now() +
                                 5 * sim::kSecond);
    const std::uint64_t msgs = world->metrics().net_data_tx - before;
    EXPECT_GT(msgs, r.nodes_contacted);
}

TEST_F(FloodFixture, ReplySurvivesWhenOneParentDies) {
    build(100, 4, [](BiquorumSpec& spec) {
        spec.advertise.quorum_size = 35;
    });
    advertise(3, 8, 80);
    // Kill some random nodes right before the lookup: some parent chains
    // break, but with 35 holders many reply paths exist.
    util::Rng rng(5);
    auto alive = world->alive_nodes();
    rng.shuffle(alive);
    for (std::size_t i = 0; i < 10; ++i) {
        if (alive[i] != 50) {
            world->fail_node(alive[i]);
        }
    }
    const AccessResult r = lookup(50, 8);
    EXPECT_TRUE(r.ok);
}

TEST_F(FloodFixture, ExpandingRingUsesMinimalTtlForNearbyData) {
    build(100, 6, [](BiquorumSpec& spec) {
        spec.lookup.expanding_ring = true;
        spec.lookup.flood_ttl = 5;
        spec.advertise.quorum_size = 50;  // holders everywhere
    });
    advertise(3, 12, 120);
    const AccessResult r = lookup(40, 12);
    ASSERT_TRUE(r.ok);
    // Ring 1 (or 2) should suffice with half the network holding the key:
    // far fewer nodes covered than a TTL-5 flood.
    const std::size_t full = world->snapshot_graph().nodes_within_hops(40, 5);
    EXPECT_LT(r.nodes_contacted, full / 2);
}

TEST_F(FloodFixture, ExpandingRingEscalatesToFindFarData) {
    build(120, 7, [](BiquorumSpec& spec) {
        spec.lookup.expanding_ring = true;
        spec.lookup.flood_ttl = 6;
        spec.advertise.quorum_size = 1;  // a single holder
    });
    // Store the key at exactly one node far from the looker.
    util::NodeId looker = 0;
    util::NodeId holder = 0;
    const auto dist = world->snapshot_graph().bfs_distances(0);
    for (util::NodeId v = 0; v < world->node_count(); ++v) {
        if (dist[v] != geom::kUnreachable && dist[v] == 4) {
            holder = v;
        }
    }
    ASSERT_NE(holder, 0u);
    service->store(holder).store_owner(77, 770);
    const AccessResult r = lookup(looker, 77, 120 * sim::kSecond);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.value, 770u);
}

TEST_F(FloodFixture, TtlOneOnlyCoversNeighbors) {
    build(100, 8, [](BiquorumSpec& spec) { spec.lookup.flood_ttl = 1; });
    const AccessResult r = lookup(7, 9999);
    EXPECT_EQ(r.nodes_contacted,
              world->physical_neighbors(7).size() + 1);
}

TEST_F(FloodFixture, OriginHoldingKeyAnswersInstantly) {
    build(80, 9);
    service->store(33).store_owner(64, 640);
    const AccessResult r = lookup(33, 64);
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.value, 640u);
    EXPECT_EQ(r.nodes_contacted, 1u);
}

}  // namespace
}  // namespace pqs::core
