#include "net/packet.h"

namespace pqs::net {

namespace {

struct SizeVisitor {
    std::size_t operator()(const HelloBody&) const { return 32; }
    std::size_t operator()(const RreqBody&) const { return 24; }
    std::size_t operator()(const RrepBody&) const { return 20; }
    std::size_t operator()(const RerrBody& body) const {
        return 8 + 8 * body.unreachable.size();
    }
    std::size_t operator()(const DataBody& body) const {
        return body.app ? body.app->size_bytes() : 512;
    }
};

}  // namespace

std::size_t Packet::size_bytes() const {
    // Body plus IP/MAC/PHY framing overhead, as in the paper's message-size
    // accounting (512 bytes + headers).
    return std::visit(SizeVisitor{}, body) + 48;
}

std::uint64_t util::KernelStats::*packet_tx_counter(const Packet& packet) {
    if (std::holds_alternative<HelloBody>(packet.body)) {
        return &util::KernelStats::net_hello_tx;
    }
    return packet.is_data() ? &util::KernelStats::net_data_tx
                            : &util::KernelStats::net_routing_tx;
}

std::shared_ptr<Packet> alloc_packet(util::BlockPool& pool) {
    return std::allocate_shared<Packet>(util::PoolAllocator<Packet>{&pool});
}

PacketPtr make_hello(util::BlockPool& pool, util::NodeId src) {
    std::shared_ptr<Packet> p = alloc_packet(pool);
    p->link_src = src;
    p->link_dst = kBroadcast;
    p->ttl = 1;
    p->body = HelloBody{};
    return p;
}

PacketPtr make_data(util::BlockPool& pool, util::NodeId src,
                    util::NodeId link_dst, util::NodeId net_src,
                    util::NodeId net_dst, AppMsgPtr app,
                    std::shared_ptr<DeliveryTracker> tracker, int ttl) {
    std::shared_ptr<Packet> p = alloc_packet(pool);
    p->link_src = src;
    p->link_dst = link_dst;
    p->ttl = ttl;
    p->trace = app ? app->trace : obs::TraceId{0};
    p->body = DataBody{net_src, net_dst, std::move(app), std::move(tracker)};
    return p;
}

}  // namespace pqs::net
