#include "net/aodv.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/node_stack.h"
#include "net/route_table.h"
#include "net/rreq_flood.h"
#include "net/world.h"
#include "util/rng.h"

namespace pqs::net {
namespace {

struct Ping final : AppMessage {};

WorldParams abstract_world(std::size_t n, std::uint64_t seed = 1) {
    WorldParams p;
    p.n = n;
    p.seed = seed;
    p.oracle_neighbors = true;  // no warm-up needed
    return p;
}

// Farthest alive node from `from` (guaranteed multihop at our densities).
util::NodeId farthest(World& w, util::NodeId from) {
    util::NodeId best_node = from;
    double best = -1.0;
    for (const util::NodeId v : w.alive_nodes()) {
        const double d = geom::distance(w.position(from), w.position(v));
        if (d > best) {
            best = d;
            best_node = v;
        }
    }
    return best_node;
}

TEST(Aodv, DiscoversRouteAndDelivers) {
    World w(abstract_world(80));
    w.start();
    const util::NodeId dst = farthest(w, 0);
    ASSERT_GT(geom::distance(w.position(0), w.position(dst)), w.range());

    int received = 0;
    w.stack(dst).add_app_handler(
        [&](util::NodeId, util::NodeId src, const AppMsgPtr&) {
            EXPECT_EQ(src, 0u);
            ++received;
            return true;
        });
    bool delivered = false;
    w.stack(0).send_routed(dst, std::make_shared<Ping>(),
                           [&](bool ok) { delivered = ok; });
    w.simulator().run_until(30 * sim::kSecond);
    EXPECT_TRUE(delivered);
    EXPECT_EQ(received, 1);
    EXPECT_TRUE(w.stack(0).aodv().has_valid_route(dst));
    EXPECT_GT(w.metrics().net_routing_tx, 0u);
}

TEST(Aodv, RouteReuseAvoidsRediscovery) {
    World w(abstract_world(80));
    w.start();
    const util::NodeId dst = farthest(w, 0);
    int delivered = 0;
    w.stack(0).send_routed(dst, std::make_shared<Ping>(),
                           [&](bool ok) { delivered += ok; });
    w.simulator().run_until(30 * sim::kSecond);
    const std::uint64_t routing_after_first = w.metrics().net_routing_tx;
    for (int i = 0; i < 5; ++i) {
        w.stack(0).send_routed(dst, std::make_shared<Ping>(),
                               [&](bool ok) { delivered += ok; });
    }
    w.simulator().run_until(60 * sim::kSecond);
    EXPECT_EQ(delivered, 6);
    // Reuse: no further route discovery traffic.
    EXPECT_EQ(w.metrics().net_routing_tx, routing_after_first);
}

TEST(Aodv, LoopbackDeliversLocally) {
    World w(abstract_world(30));
    w.start();
    int received = 0;
    w.stack(3).add_app_handler(
        [&](util::NodeId, util::NodeId, const AppMsgPtr&) {
            ++received;
            return true;
        });
    bool ok = false;
    w.stack(3).send_routed(3, std::make_shared<Ping>(),
                           [&](bool d) { ok = d; });
    EXPECT_TRUE(ok);
    EXPECT_EQ(received, 1);
    EXPECT_EQ(w.metrics().net_data_tx, 0u);
}

TEST(Aodv, ScopedDiscoveryFailsForFarTarget) {
    World w(abstract_world(150, 3));
    w.start();
    const util::NodeId dst = farthest(w, 0);
    const auto hops = w.snapshot_graph().bfs_distances(0)[dst];
    ASSERT_GT(hops, 3u) << "topology too small for a scoped-failure test";

    bool failed = false;
    RouteSendOptions opts;
    opts.max_discovery_ttl = 2;
    w.stack(0).send_routed(dst, std::make_shared<Ping>(),
                           [&](bool ok) { failed = !ok; }, opts);
    w.simulator().run_until(30 * sim::kSecond);
    EXPECT_TRUE(failed);
    EXPECT_FALSE(w.stack(0).aodv().has_valid_route(dst));
}

TEST(Aodv, ScopedDiscoveryReachesNearTarget) {
    World w(abstract_world(150, 3));
    w.start();
    // A node exactly 2 hops away.
    const auto dist = w.snapshot_graph().bfs_distances(0);
    util::NodeId dst = util::kInvalidNode;
    for (util::NodeId v = 0; v < w.node_count(); ++v) {
        if (dist[v] == 2) {
            dst = v;
            break;
        }
    }
    ASSERT_NE(dst, util::kInvalidNode);
    bool delivered = false;
    RouteSendOptions opts;
    opts.max_discovery_ttl = 3;
    w.stack(0).send_routed(dst, std::make_shared<Ping>(),
                           [&](bool ok) { delivered = ok; }, opts);
    w.simulator().run_until(30 * sim::kSecond);
    EXPECT_TRUE(delivered);
}

TEST(Aodv, BrokenRouteReportsFailure) {
    World w(abstract_world(100, 5));
    w.start();
    const util::NodeId dst = farthest(w, 0);
    bool first = false;
    w.stack(0).send_routed(dst, std::make_shared<Ping>(),
                           [&](bool ok) { first = ok; });
    w.simulator().run_until(30 * sim::kSecond);
    ASSERT_TRUE(first);
    // Kill the destination: the next send must fail (and may need the MAC
    // retry budget to notice).
    w.fail_node(dst);
    bool second_ok = true;
    w.stack(0).send_routed(dst, std::make_shared<Ping>(),
                           [&](bool ok) { second_ok = ok; });
    w.simulator().run_until(90 * sim::kSecond);
    EXPECT_FALSE(second_ok);
}

TEST(Aodv, IntermediateFailureTriggersRerrAndFailureCallback) {
    World w(abstract_world(100, 8));
    w.start();
    const util::NodeId dst = farthest(w, 0);
    bool first = false;
    w.stack(0).send_routed(dst, std::make_shared<Ping>(),
                           [&](bool ok) { first = ok; });
    w.simulator().run_until(30 * sim::kSecond);
    ASSERT_TRUE(first);
    // Kill every neighbor of the destination: any cached route must break
    // at its last hop.
    for (const util::NodeId v : w.physical_neighbors(dst)) {
        w.fail_node(v);
    }
    bool ok2 = true;
    w.stack(0).send_routed(dst, std::make_shared<Ping>(),
                           [&](bool ok) { ok2 = ok; });
    w.simulator().run_until(120 * sim::kSecond);
    EXPECT_FALSE(ok2);
}

TEST(Aodv, ManyConcurrentSendsAllDeliver) {
    World w(abstract_world(100, 11));
    w.start();
    util::Rng rng(99);
    int delivered = 0;
    const int kSends = 30;
    for (int i = 0; i < kSends; ++i) {
        const auto src = static_cast<util::NodeId>(rng.index(100));
        const auto dst = static_cast<util::NodeId>(rng.index(100));
        w.stack(src).send_routed(dst, std::make_shared<Ping>(),
                                 [&](bool ok) { delivered += ok; });
    }
    w.simulator().run_until(60 * sim::kSecond);
    EXPECT_EQ(delivered, kSends);
}

TEST(Aodv, LocalRepairSurvivesMidPathBreak) {
    // Deliver once to warm the route, break an interior hop, then send
    // again: the node holding the packet rediscovers (RFC 3561 §6.12) and
    // the packet still arrives.
    World w(abstract_world(120, 21));
    w.start();
    const util::NodeId dst = farthest(w, 0);
    bool first = false;
    w.stack(0).send_routed(dst, std::make_shared<Ping>(),
                           [&](bool ok) { first = ok; });
    w.simulator().run_until(30 * sim::kSecond);
    ASSERT_TRUE(first);

    // Kill the first hop of the shortest path toward dst: any cached route
    // through it breaks at the first transmission.
    const auto dist = w.snapshot_graph().bfs_distances(dst);
    util::NodeId first_hop = util::kInvalidNode;
    for (const util::NodeId v : w.physical_neighbors(0)) {
        if (dist[v] + 1 == dist[0]) {
            first_hop = v;
            break;
        }
    }
    ASSERT_NE(first_hop, util::kInvalidNode);
    w.fail_node(first_hop);

    bool second = false;
    bool resolved = false;
    w.stack(0).send_routed(dst, std::make_shared<Ping>(), [&](bool ok) {
        second = ok;
        resolved = true;
    });
    w.simulator().run_until(120 * sim::kSecond);
    ASSERT_TRUE(resolved);
    EXPECT_TRUE(second);  // repaired around the dead hop
}

TEST(Aodv, RouteLifetimeRefreshOnUse) {
    // A route used continuously must not expire even past route_lifetime.
    WorldParams params = abstract_world(80, 23);
    params.aodv.route_lifetime = 5 * sim::kSecond;
    World w(params);
    w.start();
    const util::NodeId dst = farthest(w, 0);
    int delivered = 0;
    const int sends = 30;  // spread over 15 s > route_lifetime
    std::function<void(int)> send_next = [&](int i) {
        if (i >= sends) {
            return;
        }
        w.stack(0).send_routed(dst, std::make_shared<Ping>(),
                               [&, i](bool ok) {
                                   delivered += ok ? 1 : 0;
                                   w.simulator().schedule_in(
                                       500 * sim::kMillisecond,
                                       [&, i] { send_next(i + 1); });
                               });
    };
    send_next(0);
    w.simulator().run_until(120 * sim::kSecond);
    EXPECT_EQ(delivered, sends);
}

TEST(Aodv, RouteHopsReasonable) {
    World w(abstract_world(120, 13));
    w.start();
    const util::NodeId dst = farthest(w, 0);
    bool done = false;
    w.stack(0).send_routed(dst, std::make_shared<Ping>(),
                           [&](bool) { done = true; });
    w.simulator().run_until(30 * sim::kSecond);
    ASSERT_TRUE(done);
    const auto shortest = w.snapshot_graph().bfs_distances(0)[dst];
    const auto via_aodv = w.stack(0).aodv().route_hops(dst);
    EXPECT_GE(via_aodv, shortest);
    EXPECT_LE(via_aodv, shortest + 3);
}

// The lowest-id node with at least `count` neighbours, and its
// neighbours; kInvalidNode and none if there is no such node.
std::pair<util::NodeId, std::vector<util::NodeId>> node_with_neighbors(
    World& w, std::size_t count) {
    for (util::NodeId v = 0; v < w.node_count(); ++v) {
        std::vector<util::NodeId> nbrs = w.physical_neighbors(v);
        if (nbrs.size() >= count) {
            return {v, std::move(nbrs)};
        }
    }
    return {util::kInvalidNode, {}};
}

// One copy of a hand-built RREQ from `origin` for `target`, as `relay`
// rebroadcasts it after `hops` hops.
PacketPtr rreq_copy(World& w, const FloodRef& flood, util::NodeId origin,
                    util::NodeId target, util::NodeId relay,
                    std::uint16_t hops) {
    auto p = w.new_packet();
    p->link_src = relay;
    p->link_dst = kBroadcast;
    p->ttl = 6;
    RreqBody rreq;
    rreq.origin = origin;
    rreq.target = target;
    rreq.origin_seq = 7;
    rreq.rreq_id = 1;
    rreq.hop_count = hops;
    rreq.flood = flood;
    p->body = std::move(rreq);
    return p;
}

// A copy of an RREQ that reaches a node late, over a longer path, is
// still a duplicate: the node neither re-forwards nor reroutes.
TEST(Aodv, LateDuplicateOverLongerPathIsSuppressed) {
    World w(abstract_world(80, 4));
    w.start();
    // The flood starts at `origin` and reaches `node` directly; the late
    // copy comes from `other` as if it had travelled five hops.
    const auto [node, nbrs] = node_with_neighbors(w, 2);
    ASSERT_NE(node, util::kInvalidNode);
    const util::NodeId origin = nbrs[0];
    const util::NodeId other = nbrs[1];
    const util::NodeId target = farthest(w, node);
    ASSERT_NE(target, origin);

    FloodRef flood = w.flood_pool().acquire();
    flood->test_and_set(origin);
    w.deliver(node, rreq_copy(w, flood, origin, target, origin, 0));
    w.simulator().run_until(2 * sim::kSecond);
    EXPECT_FALSE(flood->test_and_set(node));  // marked by the first copy
    EXPECT_EQ(w.stack(node).aodv().route_hops(origin), 1u);
    const std::uint64_t routing = w.metrics().net_routing_tx;
    EXPECT_GT(routing, 0u);  // the first copy was forwarded

    w.deliver(node, rreq_copy(w, flood, origin, target, other, 4));
    w.simulator().run_until(4 * sim::kSecond);
    EXPECT_EQ(w.metrics().net_routing_tx, routing);
    EXPECT_EQ(w.stack(node).aodv().route_hops(origin), 1u);
}

// An RREP caught in a reverse-route loop dies when its TTL runs out
// instead of circulating for ever. The first copy of the RREQ reaches
// `node` from `other`, which never heard the flood: when `node`
// rebroadcasts, `other` takes `node` as its next hop back to the origin
// while `node` routes back through `other`. The target, a third
// neighbour of `node`, answers through `node`, and the RREP then
// bounces between `node` and `other`.
TEST(Aodv, RrepInReverseRouteLoopExpires) {
    World w(abstract_world(80, 4));
    w.start();
    const auto [node, nbrs] = node_with_neighbors(w, 3);
    ASSERT_NE(node, util::kInvalidNode);
    const util::NodeId origin = nbrs[0];
    const util::NodeId other = nbrs[1];
    const util::NodeId target = nbrs[2];

    FloodRef flood = w.flood_pool().acquire();
    flood->test_and_set(origin);
    w.deliver(node, rreq_copy(w, flood, origin, target, other, 4));
    w.simulator().run_until(2 * sim::kSecond);
    const std::uint64_t routing = w.metrics().net_routing_tx;
    EXPECT_GT(routing, 0u);
    // Nothing else in this idle world sends routing traffic, so once the
    // looping RREP has spent its TTL the counter stops.
    w.simulator().run_until(4 * sim::kSecond);
    EXPECT_EQ(w.metrics().net_routing_tx, routing);
}

// A node that joins mid-flood has an id above every id the flood's record
// has marked; it still processes the flood like any other node.
TEST(Aodv, JoinerSpawnedMidFloodProcessesIt) {
    World w(abstract_world(60, 6));
    w.start();
    const util::NodeId dst = farthest(w, 0);
    bool delivered = false;
    w.stack(0).send_routed(dst, std::make_shared<Ping>(),
                           [&](bool ok) { delivered = ok; });
    // The origin's first ring (TTL 2) is on the air; the joiner lands next
    // to the origin and hears the neighbors' rebroadcasts, not the
    // origin's own copy.
    const util::NodeId joiner = w.spawn_node();
    ASSERT_EQ(joiner, w.node_count() - 1);
    w.set_position(joiner, w.position(0));
    // Before the second ring (2 * TTL * 20 ms = 80 ms).
    w.simulator().run_until(60 * sim::kMillisecond);
    EXPECT_TRUE(w.stack(joiner).aodv().has_valid_route(0));
    EXPECT_EQ(w.stack(joiner).aodv().route_hops(0), 2u);
    w.simulator().run_until(30 * sim::kSecond);
    EXPECT_TRUE(delivered);
}

TEST(Aodv, FloodRecordReleasedWithItsLastPacket) {
    World w(abstract_world(80));
    w.start();
    const util::NodeId dst = farthest(w, 0);
    EXPECT_EQ(w.flood_pool().live(), 0u);
    bool delivered = false;
    w.stack(0).send_routed(dst, std::make_shared<Ping>(),
                           [&](bool ok) { delivered = ok; });
    EXPECT_EQ(w.flood_pool().live(), 1u);  // the origin's packet holds it
    w.simulator().run_until(30 * sim::kSecond);
    ASSERT_TRUE(delivered);
    EXPECT_EQ(w.flood_pool().live(), 0u);

    // Copies share one record; the last one out returns it.
    FloodRef a = w.flood_pool().acquire();
    FloodRef b = a;
    EXPECT_EQ(a.get(), b.get());
    a.reset();
    EXPECT_EQ(w.flood_pool().live(), 1u);
    b.reset();
    EXPECT_EQ(w.flood_pool().live(), 0u);
}

TEST(RreqFlood, TestAndSetAcrossGrowthAndReuse) {
    FloodPool pool;
    RreqFlood* record = nullptr;
    {
        FloodRef flood = pool.acquire();
        record = flood.get();
        for (util::NodeId v = 0; v < 1000; ++v) {
            EXPECT_TRUE(flood->test_and_set(v * 7));
        }
        EXPECT_EQ(flood->size(), 1000u);
        for (util::NodeId v = 0; v < 1000; ++v) {
            EXPECT_FALSE(flood->test_and_set(v * 7));
        }
        // Ids above every marked one, up to the largest valid id.
        EXPECT_TRUE(flood->test_and_set(1'000'000));
        EXPECT_TRUE(flood->test_and_set(util::kInvalidNode - 1));
        EXPECT_FALSE(flood->test_and_set(1'000'000));
        EXPECT_FALSE(flood->test_and_set(util::kInvalidNode - 1));
        EXPECT_EQ(flood->size(), 1002u);
    }
    // The record comes back cleared, keeping a table sized to that flood.
    FloodRef again = pool.acquire();
    ASSERT_EQ(again.get(), record);
    EXPECT_EQ(again->size(), 0u);
    EXPECT_GE(again->capacity(), 2048u);
    EXPECT_TRUE(again->test_and_set(7));
    again.reset();
    // A small flood in a big table frees it rather than clearing it.
    FloodRef small = pool.acquire();
    ASSERT_EQ(small.get(), record);
    EXPECT_EQ(small->capacity(), 0u);
    EXPECT_TRUE(small->test_and_set(7));
}

// Differential test of the flat route table against std::unordered_map
// under random install, invalidate, lookup and growth.
TEST(RouteTable, MatchesUnorderedMapModel) {
    util::Rng rng(17);
    RouteTable table;
    std::unordered_map<util::NodeId, Route> model;
    auto random_id = [&] {
        // Mostly dense ids, some far above them (late joiners).
        return rng.bernoulli(0.9)
                   ? static_cast<util::NodeId>(rng.index(600))
                   : static_cast<util::NodeId>(1'000'000 + rng.index(50));
    };
    auto same = [](const Route& a, const Route& b) {
        return a.next_hop == b.next_hop && a.hops == b.hops &&
               a.seq == b.seq && a.seq_known == b.seq_known &&
               a.valid == b.valid && a.expiry == b.expiry;
    };
    for (int step = 0; step < 20000; ++step) {
        const util::NodeId dst = random_id();
        const double op = rng.uniform(0.0, 1.0);
        if (op < 0.4) {  // install (insert or overwrite)
            Route r;
            r.next_hop = static_cast<util::NodeId>(rng.index(600));
            r.hops = static_cast<std::uint16_t>(1 + rng.index(20));
            r.seq = static_cast<util::SeqNum>(rng.index(1000));
            r.seq_known = rng.bernoulli(0.8);
            r.valid = true;
            r.expiry = static_cast<sim::Time>(rng.index(1'000'000));
            table[dst] = r;
            model[dst] = r;
        } else if (op < 0.55) {  // invalidate
            Route* r = table.find(dst);
            const auto it = model.find(dst);
            ASSERT_EQ(r != nullptr, it != model.end());
            if (r != nullptr) {
                r->valid = false;
                it->second.valid = false;
            }
        } else if (op < 0.6) {  // default-insert, as install_route does
            Route& r = table[dst];
            Route& m = model[dst];
            ASSERT_TRUE(same(r, m));
        } else {  // lookup
            const RouteTable& view = table;
            const Route* r = view.find(dst);
            const auto it = model.find(dst);
            ASSERT_EQ(r != nullptr, it != model.end());
            if (r != nullptr) {
                ASSERT_TRUE(same(*r, it->second));
            }
        }
        ASSERT_EQ(table.size(), model.size());
    }
    std::size_t walked = 0;
    for (const auto& [dst, route] : table) {
        const auto it = model.find(dst);
        ASSERT_NE(it, model.end());
        EXPECT_TRUE(same(route, it->second));
        ++walked;
    }
    EXPECT_EQ(walked, model.size());
    EXPECT_GT(model.size(), 500u);  // grew well past the initial index
}

}  // namespace
}  // namespace pqs::net
