#include "net/packet.h"

#include <gtest/gtest.h>

namespace pqs::net {
namespace {

using util::KernelStats;

TEST(Packet, HelloBuilder) {
    util::BlockPool pool;
    const PacketPtr p = make_hello(pool, 7);
    EXPECT_EQ(p->link_src, 7u);
    EXPECT_EQ(p->link_dst, kBroadcast);
    EXPECT_EQ(p->ttl, 1);
    EXPECT_TRUE(std::holds_alternative<HelloBody>(p->body));
    EXPECT_EQ(packet_tx_counter(*p), &KernelStats::net_hello_tx);
}

TEST(Packet, DataBuilder) {
    struct Msg final : AppMessage {
        std::size_t size_bytes() const override { return 100; }
    };
    util::BlockPool pool;
    auto tracker = std::make_shared<DeliveryTracker>();
    const PacketPtr p =
        make_data(pool, 1, 2, 1, 9, std::make_shared<Msg>(), tracker, 16);
    EXPECT_EQ(p->link_src, 1u);
    EXPECT_EQ(p->link_dst, 2u);
    EXPECT_EQ(p->ttl, 16);
    ASSERT_TRUE(p->is_data());
    EXPECT_EQ(p->data().net_src, 1u);
    EXPECT_EQ(p->data().net_dst, 9u);
    EXPECT_EQ(p->data().tracker, tracker);
    EXPECT_EQ(packet_tx_counter(*p), &KernelStats::net_data_tx);
    // App payload size plus framing overhead.
    EXPECT_EQ(p->size_bytes(), 100u + 48u);
}

TEST(Packet, DefaultAppMessageSize) {
    struct Msg final : AppMessage {};
    util::BlockPool pool;
    const PacketPtr p = make_data(pool, 1, 2, 1, 2, std::make_shared<Msg>());
    EXPECT_EQ(p->size_bytes(), 512u + 48u);
}

TEST(Packet, RoutingCategories) {
    Packet p;
    p.body = RreqBody{};
    EXPECT_EQ(packet_tx_counter(p), &KernelStats::net_routing_tx);
    p.body = RrepBody{};
    EXPECT_EQ(packet_tx_counter(p), &KernelStats::net_routing_tx);
    p.body = RerrBody{};
    EXPECT_EQ(packet_tx_counter(p), &KernelStats::net_routing_tx);
}

TEST(Packet, RerrSizeGrowsWithEntries) {
    Packet p;
    RerrBody small;
    small.unreachable.emplace_back(1, 2);
    p.body = small;
    const std::size_t s1 = p.size_bytes();
    RerrBody big;
    for (util::NodeId i = 0; i < 10; ++i) {
        big.unreachable.emplace_back(i, i);
    }
    p.body = big;
    EXPECT_GT(p.size_bytes(), s1);
}

TEST(DeliveryTrackerTest, ResolvesOnce) {
    DeliveryTracker t;
    int calls = 0;
    bool last = false;
    t.done = [&](bool ok) {
        ++calls;
        last = ok;
    };
    t.resolve(true);
    t.resolve(false);  // ignored
    EXPECT_EQ(calls, 1);
    EXPECT_TRUE(last);
}

TEST(DeliveryTrackerTest, NullCallbackSafe) {
    DeliveryTracker t;
    t.resolve(false);
    EXPECT_TRUE(t.resolved);
}

TEST(AccessIdTest, HashAndEquality) {
    const util::AccessId a{1, 2};
    const util::AccessId b{1, 2};
    const util::AccessId c{1, 3};
    const util::AccessId d{2, 2};
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    EXPECT_NE(a, d);
    const std::hash<util::AccessId> h;
    EXPECT_EQ(h(a), h(b));
    EXPECT_NE(h(a), h(c));  // astronomically unlikely to collide
}

}  // namespace
}  // namespace pqs::net
