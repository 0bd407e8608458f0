#include "net/aodv.h"

#include <algorithm>

#include "net/node_stack.h"
#include "net/world.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace pqs::net {

namespace {
// Sequence-number comparison (no wraparound handling; runs are short).
bool seq_newer(util::SeqNum a, util::SeqNum b) { return a > b; }
}  // namespace

Aodv::Aodv(NodeStack& stack, AodvParams params)
    : stack_(stack), params_(params) {}

bool Aodv::route_usable(const Route& route) const {
    return route.valid && route.expiry > stack_.world().simulator().now();
}

void Aodv::touch_route(Route& route) {
    // Active routes stay alive (RFC 3561 ACTIVE_ROUTE_TIMEOUT semantics):
    // every use pushes the expiry out.
    route.expiry = stack_.world().simulator().now() + params_.route_lifetime;
}

bool Aodv::has_valid_route(util::NodeId dst) const {
    const Route* route = routes_.find(dst);
    return route != nullptr && route_usable(*route);
}

std::size_t Aodv::valid_route_count() const {
    std::size_t count = 0;
    for (const auto& [dst, route] : routes_) {
        if (route_usable(route)) {
            ++count;
        }
    }
    return count;
}

std::uint16_t Aodv::route_hops(util::NodeId dst) const {
    const Route* route = routes_.find(dst);
    return route != nullptr && route_usable(*route) ? route->hops : 0;
}

void Aodv::install_route(util::NodeId dst, util::NodeId next_hop,
                         std::uint16_t hops, util::SeqNum seq,
                         bool seq_known) {
    if (dst == stack_.id()) {
        return;
    }
    Route& route = routes_[dst];
    // Prefer fresher sequence numbers; among equal freshness prefer fewer
    // hops; always replace an invalid route.
    const bool replace = !route_usable(route) ||
                         (seq_known && !route.seq_known) ||
                         (seq_known && route.seq_known &&
                          seq_newer(seq, route.seq)) ||
                         (seq_known == route.seq_known && seq == route.seq &&
                          hops < route.hops);
    if (!replace) {
        return;
    }
    route.next_hop = next_hop;
    route.hops = hops;
    route.seq = seq;
    route.seq_known = seq_known;
    route.valid = true;
    route.expiry = stack_.world().simulator().now() + params_.route_lifetime;
}

void Aodv::send_data(util::NodeId dst, AppMsgPtr msg,
                     std::shared_ptr<DeliveryTracker> tracker,
                     int max_discovery_ttl, std::uint8_t repairs) {
    if (has_valid_route(dst)) {
        transmit_data(dst, std::move(msg), std::move(tracker), repairs);
        return;
    }
    const obs::TraceId trace = msg ? msg->trace : 0;
    auto [it, inserted] = pending_.try_emplace(dst);
    it->second.queue.push_back(
        QueuedData{std::move(msg), std::move(tracker), repairs});
    if (inserted) {
        obs::record(trace, obs::EventKind::kRouteDiscovery, stack_.id(), dst);
        start_discovery(dst, max_discovery_ttl);
    }
}

void Aodv::transmit_data(util::NodeId dst, AppMsgPtr msg,
                         std::shared_ptr<DeliveryTracker> tracker,
                         std::uint8_t repairs) {
    Route* route = routes_.find(dst);
    if (route == nullptr || !route_usable(*route)) {
        obs::record(msg ? msg->trace : 0, obs::EventKind::kPacketDrop,
                    stack_.id(), dst);
        if (tracker) {
            tracker->resolve(false);
        }
        return;
    }
    touch_route(*route);
    const util::NodeId next_hop = route->next_hop;
    auto packet = stack_.world().new_packet();
    packet->link_src = stack_.id();
    packet->link_dst = next_hop;
    packet->trace = msg ? msg->trace : 0;
    packet->body = DataBody{stack_.id(), dst, std::move(msg), tracker,
                            repairs};
    PacketPtr p = packet;
    stack_.link_unicast(p, [this, dst, next_hop, p](bool ok) {
        if (ok) {
            return;
        }
        // Cross-layer notification: the hop is gone. Invalidate every
        // route through it and tell the neighborhood (§6.2).
        handle_broken_link(next_hop);
        const DataBody& data = p->data();
        if (data.repairs_left > 0) {
            // Rediscover and retry (RFC 3561 §6.12 repair at the source).
            send_data(dst, data.app, data.tracker, -1,
                      static_cast<std::uint8_t>(data.repairs_left - 1));
            return;
        }
        obs::record(p->trace, obs::EventKind::kPacketDrop, stack_.id(),
                    next_hop);
        if (data.tracker) {
            data.tracker->resolve(false);
        }
    });
}

void Aodv::forward_data(PacketPtr p) {
    const DataBody& data = p->data();
    const util::NodeId dst = data.net_dst;
    if (p->ttl <= 1) {
        obs::record(p->trace, obs::EventKind::kPacketDrop, stack_.id(), dst);
        if (data.tracker) {
            data.tracker->resolve(false);
        }
        return;
    }
    Route* route = routes_.find(dst);
    if (route == nullptr || !route_usable(*route)) {
        // No route at an intermediate node: warn the neighborhood, then
        // try a local repair (rediscover from here) if budget remains.
        RerrBody rerr;
        rerr.unreachable.emplace_back(dst, route == nullptr ? 0 : route->seq);
        auto out = stack_.world().new_packet();
        out->link_src = stack_.id();
        out->link_dst = kBroadcast;
        out->ttl = 1;
        out->body = std::move(rerr);
        stack_.link_broadcast(std::move(out));
        if (data.repairs_left > 0) {
            send_data(dst, data.app, data.tracker, -1,
                      static_cast<std::uint8_t>(data.repairs_left - 1));
        } else {
            obs::record(p->trace, obs::EventKind::kPacketDrop, stack_.id(),
                        dst);
            if (data.tracker) {
                data.tracker->resolve(false);
            }
        }
        return;
    }
    touch_route(*route);
    const util::NodeId next_hop = route->next_hop;
    auto fwd = stack_.world().clone_packet(*p);
    fwd->link_src = stack_.id();
    fwd->link_dst = next_hop;
    fwd->ttl = p->ttl - 1;
    PacketPtr fwd_const = fwd;
    stack_.link_unicast(fwd_const, [this, dst, next_hop,
                                    fwd_const](bool ok) {
        if (ok) {
            return;
        }
        handle_broken_link(next_hop);
        const DataBody& broken = fwd_const->data();
        if (broken.repairs_left > 0) {
            // Local repair (RFC 3561 §6.12): this node rediscovers the
            // destination and resumes forwarding the packet itself.
            send_data(dst, broken.app, broken.tracker, -1,
                      static_cast<std::uint8_t>(broken.repairs_left - 1));
            return;
        }
        obs::record(fwd_const->trace, obs::EventKind::kPacketDrop,
                    stack_.id(), next_hop);
        if (broken.tracker) {
            broken.tracker->resolve(false);
        }
    });
}

void Aodv::handle_broken_link(util::NodeId next_hop) {
    RerrBody rerr;
    for (auto& [dst, route] : routes_) {
        if (route.valid && route.next_hop == next_hop) {
            route.valid = false;
            rerr.unreachable.emplace_back(dst, route.seq);
        }
    }
    if (rerr.unreachable.empty()) {
        return;
    }
    auto p = stack_.world().new_packet();
    p->link_src = stack_.id();
    p->link_dst = kBroadcast;
    p->ttl = 1;
    p->body = std::move(rerr);
    stack_.link_broadcast(std::move(p));
}

void Aodv::start_discovery(util::NodeId dst, int max_ttl) {
    Discovery& d = pending_[dst];
    d.max_ttl = max_ttl;
    d.retries_left = max_ttl >= 0 ? 0 : params_.rreq_retries;
    d.ttl = params_.ttl_start;
    if (max_ttl >= 0) {
        d.ttl = std::min(d.ttl, max_ttl);
    }
    broadcast_rreq(dst, d.ttl);
}

void Aodv::broadcast_rreq(util::NodeId dst, int ttl) {
    RreqBody rreq;
    rreq.origin = stack_.id();
    rreq.target = dst;
    rreq.origin_seq = ++my_seq_;
    rreq.rreq_id = next_rreq_id_++;
    if (const Route* route = routes_.find(dst);
        route != nullptr && route->seq_known) {
        rreq.target_seq = route->seq;
        rreq.target_seq_unknown = false;
    }
    // One seen-record per flood; the origin never processes its own RREQ.
    rreq.flood = stack_.world().flood_pool().acquire();
    rreq.flood->test_and_set(stack_.id());

    auto p = stack_.world().new_packet();
    p->link_src = stack_.id();
    p->link_dst = kBroadcast;
    p->ttl = ttl;
    p->body = std::move(rreq);
    stack_.link_broadcast(std::move(p));

    Discovery& d = pending_[dst];
    const sim::Time wait =
        2 * static_cast<sim::Time>(ttl) * params_.node_traversal_time;
    d.timer = stack_.world().simulator().schedule_in(
        wait, [this, dst] { discovery_timeout(dst); });
}

void Aodv::discovery_timeout(util::NodeId dst) {
    const auto it = pending_.find(dst);
    if (it == pending_.end()) {
        return;
    }
    if (has_valid_route(dst)) {
        discovery_succeeded(dst);
        return;
    }
    Discovery& d = it->second;
    int next_ttl = d.ttl;
    if (d.ttl < params_.ttl_threshold) {
        next_ttl = d.ttl + params_.ttl_increment;
    } else if (d.ttl < params_.net_diameter) {
        next_ttl = params_.net_diameter;
    } else if (d.retries_left > 0) {
        --d.retries_left;
        next_ttl = params_.net_diameter;
    } else {
        discovery_failed(dst);
        return;
    }
    if (d.max_ttl >= 0 && next_ttl > d.max_ttl) {
        // Scoped search: never expand beyond the cap.
        if (d.ttl >= d.max_ttl) {
            discovery_failed(dst);
            return;
        }
        next_ttl = d.max_ttl;
    }
    d.ttl = next_ttl;
    broadcast_rreq(dst, d.ttl);
}

void Aodv::discovery_succeeded(util::NodeId dst) {
    const auto it = pending_.find(dst);
    if (it == pending_.end()) {
        return;
    }
    Discovery d = std::move(it->second);
    if (d.timer != sim::kInvalidEvent) {
        stack_.world().simulator().cancel(d.timer);
    }
    pending_.erase(it);
    for (auto& queued : d.queue) {
        transmit_data(dst, std::move(queued.msg), std::move(queued.tracker),
                      queued.repairs);
    }
}

void Aodv::discovery_failed(util::NodeId dst) {
    const auto it = pending_.find(dst);
    if (it == pending_.end()) {
        return;
    }
    Discovery d = std::move(it->second);
    if (d.timer != sim::kInvalidEvent) {
        stack_.world().simulator().cancel(d.timer);
    }
    pending_.erase(it);
    PQS_DEBUG("aodv: node " << stack_.id() << " failed discovery of " << dst);
    for (auto& queued : d.queue) {
        obs::record(queued.msg ? queued.msg->trace : 0,
                    obs::EventKind::kPacketDrop, stack_.id(), dst);
        if (queued.tracker) {
            queued.tracker->resolve(false);
        }
    }
}

// pqs-hot: once per RREQ reception, duplicates included — the bulk of
// AODV's work.
void Aodv::on_rreq(util::NodeId from, const RreqBody& body, int ttl) {
    if (body.origin == stack_.id()) {
        return;
    }
    // Each node processes a flood once: the first copy to arrive marks it
    // in the flood's record. A hand-built RREQ with no record is dropped.
    if (!body.flood || !body.flood->test_and_set(stack_.id())) {
        return;  // duplicate
    }
    // Reverse route to the origin through the neighbor we heard this from.
    install_route(body.origin, from,
                  static_cast<std::uint16_t>(body.hop_count + 1),
                  body.origin_seq, /*seq_known=*/true);

    if (body.target == stack_.id()) {
        my_seq_ = std::max(my_seq_, body.target_seq);
        RrepBody rrep;
        rrep.origin = body.origin;
        rrep.target = stack_.id();
        rrep.target_seq = ++my_seq_;
        rrep.hop_count = 0;
        send_rrep_towards(body.origin, rrep, params_.net_diameter);
        return;
    }
    // Intermediate reply when we have a fresh-enough route — with enough
    // remaining lifetime that the data following the RREP will still find
    // it usable here.
    const Route* route = routes_.find(body.target);
    const sim::Time min_remaining = 10 * params_.node_traversal_time;
    if (route != nullptr && route_usable(*route) &&
        route->expiry - stack_.world().simulator().now() > min_remaining &&
        route->seq_known &&
        (body.target_seq_unknown || !seq_newer(body.target_seq, route->seq))) {
        RrepBody rrep;
        rrep.origin = body.origin;
        rrep.target = body.target;
        rrep.target_seq = route->seq;
        rrep.hop_count = route->hops;
        send_rrep_towards(body.origin, rrep, params_.net_diameter);
        return;
    }
    if (ttl <= 1) {
        return;
    }
    RreqBody fwd = body;
    fwd.hop_count = static_cast<std::uint16_t>(body.hop_count + 1);
    auto p = stack_.world().new_packet();
    p->link_src = stack_.id();
    p->link_dst = kBroadcast;
    p->ttl = ttl - 1;
    p->body = std::move(fwd);
    // Forwarding jitter desynchronizes neighbor rebroadcasts (RFC 5148).
    const sim::Time jitter = static_cast<sim::Time>(stack_.rng().uniform_u64(
        static_cast<std::uint64_t>(params_.rreq_jitter) + 1));
    // pqs-lint: fire-and-forget(Aodv lives inside the arena-placed
    // NodeStack for the whole run; the body re-checks running() first)
    stack_.world().simulator().schedule_in(jitter, [this, p] {
        if (stack_.running()) {
            stack_.link_broadcast(p);
        }
    });
}

void Aodv::send_rrep_towards(util::NodeId origin, const RrepBody& body,
                             int ttl) {
    const Route* route = routes_.find(origin);
    if (route == nullptr || !route_usable(*route)) {
        return;  // reverse route evaporated; the origin will retry
    }
    const util::NodeId next_hop = route->next_hop;
    auto p = stack_.world().new_packet();
    p->link_src = stack_.id();
    p->link_dst = next_hop;
    p->ttl = ttl;
    p->body = body;
    PacketPtr pc = p;
    stack_.link_unicast(pc, [this, next_hop](bool ok) {
        if (!ok) {
            handle_broken_link(next_hop);
        }
    });
}

void Aodv::on_rrep(util::NodeId from, const RrepBody& body, int ttl) {
    // Forward route to the target through the RREP sender.
    install_route(body.target, from,
                  static_cast<std::uint16_t>(body.hop_count + 1),
                  body.target_seq, /*seq_known=*/true);
    if (body.origin == stack_.id()) {
        discovery_succeeded(body.target);
        return;
    }
    // The TTL bounds an RREP caught in a reverse-route loop (two nodes
    // whose routes to the origin point at each other).
    if (ttl <= 1) {
        return;
    }
    RrepBody fwd = body;
    fwd.hop_count = static_cast<std::uint16_t>(body.hop_count + 1);
    send_rrep_towards(body.origin, fwd, ttl - 1);
}

void Aodv::on_rerr(util::NodeId from, const RerrBody& body) {
    RerrBody propagated;
    for (const auto& [dst, seq] : body.unreachable) {
        Route* route = routes_.find(dst);
        if (route != nullptr && route->valid && route->next_hop == from) {
            route->valid = false;
            propagated.unreachable.emplace_back(dst, seq);
        }
    }
    if (propagated.unreachable.empty()) {
        return;
    }
    auto p = stack_.world().new_packet();
    p->link_src = stack_.id();
    p->link_dst = kBroadcast;
    p->ttl = 1;
    p->body = std::move(propagated);
    stack_.link_broadcast(std::move(p));
}

}  // namespace pqs::net
