// Ad hoc On-demand Distance Vector routing (simplified RFC 3561), used by
// the RANDOM / RANDOM-OPT strategies and by the reply-path local-repair
// technique (TTL-3 scoped discovery, §6.2).
//
// Implemented features: expanding-ring RREQ search, reverse-route
// installation, destination and intermediate-node RREPs, hop-by-hop data
// forwarding over MAC-acknowledged unicasts, RERR propagation on link
// breakage, route lifetimes, data queuing during discovery, and a caller
// supplied TTL cap for scoped discovery. Omitted: gratuitous RREPs,
// precursor lists (RERRs are one-hop broadcasts re-propagated by affected
// nodes) and local repair at intermediate nodes.
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>

#include "net/packet.h"
#include "net/route_table.h"
#include "sim/simulator.h"
#include "util/ids.h"

namespace pqs::net {

class NodeStack;

struct AodvParams {
    int ttl_start = 2;
    int ttl_increment = 2;
    int ttl_threshold = 7;
    int net_diameter = 35;
    int rreq_retries = 2;  // extra attempts at full diameter
    // Per-ring wait is 2 * ttl * node_traversal_time.
    sim::Time node_traversal_time = 20 * sim::kMillisecond;
    sim::Time route_lifetime = 60 * sim::kSecond;
    // Random forwarding jitter applied before RREQ rebroadcast.
    sim::Time rreq_jitter = 10 * sim::kMillisecond;
};

class Aodv {
public:
    Aodv(NodeStack& stack, AodvParams params);

    // Sends application data to `dst`, discovering a route if needed.
    // max_discovery_ttl >= 0 caps the search ring (single attempt, no
    // escalation beyond the cap) — used for scoped local repair.
    // The tracker (optional) resolves true on end-to-end delivery and false
    // on discovery failure or a broken forwarding hop that exhausted its
    // local-repair budget (`repairs`).
    void send_data(util::NodeId dst, AppMsgPtr msg,
                   std::shared_ptr<DeliveryTracker> tracker,
                   int max_discovery_ttl = -1, std::uint8_t repairs = 1);

    // Control-plane input from the stack.
    void on_rreq(util::NodeId from, const RreqBody& body, int ttl);
    void on_rrep(util::NodeId from, const RrepBody& body, int ttl);
    void on_rerr(util::NodeId from, const RerrBody& body);
    // Data packet addressed past this node.
    void forward_data(PacketPtr p);

    bool has_valid_route(util::NodeId dst) const;
    std::size_t valid_route_count() const;
    // Hop count of the valid route to dst (0 if none).
    std::uint16_t route_hops(util::NodeId dst) const;

private:
    struct QueuedData {
        AppMsgPtr msg;
        std::shared_ptr<DeliveryTracker> tracker;
        std::uint8_t repairs = 1;
    };

    struct Discovery {
        int ttl = 0;
        int retries_left = 0;
        int max_ttl = -1;  // -1: unrestricted
        std::deque<QueuedData> queue;
        sim::EventId timer = sim::kInvalidEvent;
    };

    bool route_usable(const Route& route) const;
    void touch_route(Route& route);
    void install_route(util::NodeId dst, util::NodeId next_hop,
                       std::uint16_t hops, util::SeqNum seq, bool seq_known);
    void transmit_data(util::NodeId dst, AppMsgPtr msg,
                       std::shared_ptr<DeliveryTracker> tracker,
                       std::uint8_t repairs);
    void start_discovery(util::NodeId dst, int max_ttl);
    void broadcast_rreq(util::NodeId dst, int ttl);
    void discovery_timeout(util::NodeId dst);
    void discovery_succeeded(util::NodeId dst);
    void discovery_failed(util::NodeId dst);
    void handle_broken_link(util::NodeId next_hop);
    void send_rrep_towards(util::NodeId origin, const RrepBody& body,
                           int ttl);

    NodeStack& stack_;
    AodvParams params_;
    RouteTable routes_;
    std::unordered_map<util::NodeId, Discovery> pending_;
    util::SeqNum my_seq_ = 1;
    std::uint32_t next_rreq_id_ = 1;
};

}  // namespace pqs::net
