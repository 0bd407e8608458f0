#include "net/node_stack.h"

#include <algorithm>

#include "net/tamper.h"
#include "net/world.h"
#include "obs/trace.h"

namespace pqs::net {

NodeStack::NodeStack(World& world, util::NodeId id, util::Rng rng)
    : world_(world),
      id_(id),
      rng_(rng),
      neighbor_table_(world.params().heartbeat),
      aodv_(*this, world.params().aodv) {}

void NodeStack::start() {
    if (heartbeat_timer_ != sim::kInvalidEvent) {
        world_.simulator().cancel(heartbeat_timer_);
    }
    running_ = true;
    suspended_ = false;
    // Desynchronize heartbeats across nodes within the first cycle.
    const auto cycle = static_cast<std::uint64_t>(world_.params().heartbeat);
    heartbeat_timer_ = world_.simulator().schedule_in(
        static_cast<sim::Time>(rng_.uniform_u64(cycle + 1)),
        [this] { heartbeat(); });
}

void NodeStack::heartbeat() {
    heartbeat_timer_ = sim::kInvalidEvent;
    if (!running_ || suspended_) {
        return;
    }
    link_broadcast(make_hello(world_.packet_pool(), id_));
    heartbeat_timer_ = world_.simulator().schedule_in(
        world_.params().heartbeat, [this] { heartbeat(); });
}

void NodeStack::shutdown() {
    running_ = false;
    suspended_ = false;
    if (heartbeat_timer_ != sim::kInvalidEvent) {
        world_.simulator().cancel(heartbeat_timer_);
        heartbeat_timer_ = sim::kInvalidEvent;
    }
    app_handlers_.clear();
    snoop_handlers_.clear();
    overhear_handlers_.clear();
}

void NodeStack::suspend() {
    if (!running_ || suspended_) {
        return;
    }
    suspended_ = true;
    if (heartbeat_timer_ != sim::kInvalidEvent) {
        world_.simulator().cancel(heartbeat_timer_);
        heartbeat_timer_ = sim::kInvalidEvent;
    }
}

void NodeStack::resume() {
    if (!running_ || !suspended_) {
        return;
    }
    suspended_ = false;
    // Announce the wake-up soon, jittered so co-waking nodes do not
    // synchronize their hellos (same desync rationale as start()).
    const auto cycle = static_cast<std::uint64_t>(world_.params().heartbeat);
    heartbeat_timer_ = world_.simulator().schedule_in(
        static_cast<sim::Time>(rng_.uniform_u64(cycle / 4 + 1)),
        [this] { heartbeat(); });
}

void NodeStack::on_overhear(const PacketPtr& p) {
    if (!running_) {
        return;
    }
    for (const OverhearHandler& handler : overhear_handlers_) {
        handler(*p);
    }
}

void NodeStack::link_unicast(PacketPtr p, LinkTxCallback done) {
    world_.link().unicast(std::move(p), std::move(done));
}

void NodeStack::link_broadcast(PacketPtr p) {
    world_.link().broadcast(std::move(p));
}

void NodeStack::send_unicast(util::NodeId to, AppMsgPtr msg,
                             LinkTxCallback done) {
    if (ReplyTamper* tamper = world_.tamper()) {
        AppMsgPtr forged;
        switch (tamper->on_send(id_, msg, forged)) {
            case TamperVerdict::kPass:
                break;
            case TamperVerdict::kDrop:
                // The faulty node pretends the frame went out and was
                // acked; the origin just never hears back.
                if (done) {
                    done(true);
                }
                return;
            case TamperVerdict::kReplace:
                msg = std::move(forged);
                break;
        }
    }
    obs::record(msg ? msg->trace : 0, obs::EventKind::kPacketSend, id_, to);
    link_unicast(make_data(world_.packet_pool(), id_, to, id_, to,
                           std::move(msg)),
                 std::move(done));
}

void NodeStack::send_broadcast(AppMsgPtr msg) {
    obs::record(msg ? msg->trace : 0, obs::EventKind::kPacketSend, id_,
                kBroadcast);
    link_broadcast(make_data(world_.packet_pool(), id_, kBroadcast, id_,
                             kBroadcast, std::move(msg)));
}

void NodeStack::send_routed(util::NodeId dst, AppMsgPtr msg,
                            RoutedCallback done, RouteSendOptions opts) {
    if (ReplyTamper* tamper = world_.tamper()) {
        AppMsgPtr forged;
        switch (tamper->on_send(id_, msg, forged)) {
            case TamperVerdict::kPass:
                break;
            case TamperVerdict::kDrop:
                // Pretend the message was delivered (Byzantine silence).
                if (done) {
                    done(true);
                }
                return;
            case TamperVerdict::kReplace:
                msg = std::move(forged);
                break;
        }
    }
    obs::record(msg ? msg->trace : 0, obs::EventKind::kPacketSend, id_, dst);
    if (dst == id_) {
        // Loopback: the originator can be a member of its own quorum at no
        // message cost (§8.3).
        deliver_local(id_, id_, msg);
        if (done) {
            done(true);
        }
        return;
    }
    auto tracker = std::make_shared<DeliveryTracker>();
    tracker->done = std::move(done);
    // Scoped sends (TTL-capped discovery) must stay scoped: no mid-path
    // repair with unrestricted rediscovery.
    const std::uint8_t repairs = opts.max_discovery_ttl >= 0 ? 0 : 1;
    aodv_.send_data(dst, std::move(msg), std::move(tracker),
                    opts.max_discovery_ttl, repairs);
}

std::vector<util::NodeId> NodeStack::neighbors() const {
    if (world_.params().oracle_neighbors) {
        return world_.physical_neighbors(id_);
    }
    return neighbor_table_.neighbors(world_.simulator().now());
}

bool NodeStack::is_neighbor(util::NodeId id) const {
    if (world_.params().oracle_neighbors) {
        const auto n = world_.physical_neighbors(id_);
        return std::find(n.begin(), n.end(), id) != n.end();
    }
    return neighbor_table_.is_neighbor(id, world_.simulator().now());
}

void NodeStack::deliver_local(util::NodeId prev_hop, util::NodeId net_src,
                              const AppMsgPtr& msg) {
    for (const AppHandler& handler : app_handlers_) {
        if (handler(prev_hop, net_src, msg)) {
            return;
        }
    }
}

// pqs-hot: once per packet reception on every node.
void NodeStack::on_receive(PacketPtr p) {
    if (!running_) {
        return;
    }
    const util::NodeId from = p->link_src;
    // Any overheard packet proves the sender is a live neighbor. Oracle
    // neighbors never read the table, so it is not kept.
    if (!world_.params().oracle_neighbors) {
        neighbor_table_.on_hello(from, world_.simulator().now());
    }

    if (std::holds_alternative<HelloBody>(p->body)) {
        return;
    }
    if (const auto* rreq = std::get_if<RreqBody>(&p->body)) {
        aodv_.on_rreq(from, *rreq, p->ttl);
        return;
    }
    if (const auto* rrep = std::get_if<RrepBody>(&p->body)) {
        aodv_.on_rrep(from, *rrep, p->ttl);
        return;
    }
    if (const auto* rerr = std::get_if<RerrBody>(&p->body)) {
        aodv_.on_rerr(from, *rerr);
        return;
    }
    const DataBody& data = p->data();
    if (data.net_dst == id_ || data.net_dst == kBroadcast) {
        obs::record(p->trace, obs::EventKind::kPacketDeliver, id_, from);
        if (data.tracker) {
            data.tracker->resolve(true);
        }
        deliver_local(from, data.net_src, data.app);
        return;
    }
    obs::record(p->trace, obs::EventKind::kPacketForward, id_, from);
    // In transit: give cross-layer snoopers a chance to consume it.
    for (const SnoopHandler& snoop : snoop_handlers_) {
        if (snoop(*p)) {
            return;
        }
    }
    aodv_.forward_data(std::move(p));
}

}  // namespace pqs::net
