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

struct CategoryVisitor {
    std::string operator()(const HelloBody&) const { return "hello"; }
    std::string operator()(const RreqBody&) const { return "routing"; }
    std::string operator()(const RrepBody&) const { return "routing"; }
    std::string operator()(const RerrBody&) const { return "routing"; }
    std::string operator()(const DataBody&) const { return "data"; }
};

const std::string kHelloTx = "net.hello.tx";
const std::string kRoutingTx = "net.routing.tx";
const std::string kDataTx = "net.data.tx";

}  // namespace

std::size_t Packet::size_bytes() const {
    // Body plus IP/MAC/PHY framing overhead, as in the paper's message-size
    // accounting (512 bytes + headers).
    return std::visit(SizeVisitor{}, body) + 48;
}

std::string packet_category(const Packet& packet) {
    return std::visit(CategoryVisitor{}, packet.body);
}

const std::string& packet_tx_metric(const Packet& packet) {
    if (std::holds_alternative<HelloBody>(packet.body)) {
        return kHelloTx;
    }
    return packet.is_data() ? kDataTx : kRoutingTx;
}

std::shared_ptr<Packet> alloc_packet(util::BlockPool& pool) {
    return std::allocate_shared<Packet>(util::PoolAllocator<Packet>{&pool});
}

namespace {

PacketPtr fill_hello(std::shared_ptr<Packet> p, util::NodeId src) {
    p->link_src = src;
    p->link_dst = kBroadcast;
    p->ttl = 1;
    p->body = HelloBody{};
    return p;
}

PacketPtr fill_data(std::shared_ptr<Packet> p, util::NodeId src,
                    util::NodeId link_dst, util::NodeId net_src,
                    util::NodeId net_dst, AppMsgPtr app,
                    std::shared_ptr<DeliveryTracker> tracker, int ttl) {
    p->link_src = src;
    p->link_dst = link_dst;
    p->ttl = ttl;
    p->trace = app ? app->trace : obs::TraceId{0};
    p->body = DataBody{net_src, net_dst, std::move(app), std::move(tracker)};
    return p;
}

}  // namespace

PacketPtr make_hello(util::NodeId src) {
    return fill_hello(std::make_shared<Packet>(), src);
}

PacketPtr make_hello(util::BlockPool& pool, util::NodeId src) {
    return fill_hello(alloc_packet(pool), src);
}

PacketPtr make_data(util::NodeId src, util::NodeId link_dst,
                    util::NodeId net_src, util::NodeId net_dst, AppMsgPtr app,
                    std::shared_ptr<DeliveryTracker> tracker, int ttl) {
    return fill_data(std::make_shared<Packet>(), src, link_dst, net_src,
                     net_dst, std::move(app), std::move(tracker), ttl);
}

PacketPtr make_data(util::BlockPool& pool, util::NodeId src,
                    util::NodeId link_dst, util::NodeId net_src,
                    util::NodeId net_dst, AppMsgPtr app,
                    std::shared_ptr<DeliveryTracker> tracker, int ttl) {
    return fill_data(alloc_packet(pool), src, link_dst, net_src, net_dst,
                     std::move(app), std::move(tracker), ttl);
}

}  // namespace pqs::net
