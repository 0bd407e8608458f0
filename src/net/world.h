// Composition root of a simulated ad hoc network: node placement (RGG
// density scaling per §2.4), liveness/churn, mobility, the link layer at
// the chosen fidelity, per-node protocol stacks, and run-wide metrics.
#pragma once

#include <memory>
#include <vector>

#include "geom/rgg.h"
#include "geom/spatial_grid.h"
#include "mac/csma_mac.h"
#include "mobility/mobility.h"
#include "mobility/random_waypoint.h"
#include "net/abstract_network.h"
#include "net/aodv.h"
#include "net/link.h"
#include "net/packet.h"
#include "net/rreq_flood.h"
#include "phy/channel.h"
#include "sim/energy_model.h"
#include "sim/simulator.h"
#include "util/alive_set.h"
#include "util/arena.h"
#include "util/kernel_stats.h"
#include "util/pool.h"
#include "util/rng.h"

namespace pqs::net {

class NodeStack;
class ReplyTamper;

enum class Fidelity {
    kAbstract,  // unit-disk link, ideal MAC, fast
    kFull,      // SINR radio + CSMA/CA MAC
};

struct WorldParams {
    std::size_t n = 100;
    double range = 200.0;      // meters (ideal reception range)
    double avg_degree = 10.0;  // d_avg; scales the area (a² = πr²n/d_avg)
    Fidelity fidelity = Fidelity::kAbstract;
    std::uint64_t seed = 1;
    // Resample initial placement until the unit-disk graph is connected
    // (the paper reports d_avg >= 7 keeps networks connected).
    bool ensure_connected = true;

    bool mobile = false;
    mobility::RandomWaypointParams waypoint;

    sim::Time heartbeat = 10 * sim::kSecond;
    // If true, NodeStack::neighbors() consults ground truth instead of the
    // hello-driven table (no staleness; useful in unit tests).
    bool oracle_neighbors = false;

    // Battery + duty-cycle model; enabled=false adds no events, RNG
    // draws or allocations (golden fingerprints stay byte-identical).
    sim::EnergyModelParams energy;

    AbstractLinkParams abstract_link;
    phy::PropagationParams propagation;
    phy::RadioThresholds thresholds;
    mac::MacParams mac;
    AodvParams aodv;
};

class World final : public phy::PositionProvider,
                    public mobility::MobilityHost {
public:
    explicit World(WorldParams params);
    ~World() override;
    World(const World&) = delete;
    World& operator=(const World&) = delete;

    const WorldParams& params() const { return params_; }
    sim::Simulator& simulator() override { return simulator_; }
    util::Rng& rng() { return rng_; }
    // The counters components write directly: message counts, load
    // accounting, Byzantine tampers, leases, refresher deferrals. Merged
    // into kernel_stats(); the kernel-owned fields read zero here.
    util::KernelStats& metrics() { return metrics_; }

    // The whole counter block: metrics() plus the event queue, spatial
    // grid, packet pool, snapshot and energy counters; deterministic for
    // a fixed seed, reported per trial on the [perf] stderr channel.
    util::KernelStats kernel_stats() const {
        util::KernelStats stats = simulator_.kernel_stats();
        stats += grid_->stats();
        stats.packet_allocs =
            packet_pool_.fresh_allocs() + packet_pool_.misfit_allocs();
        stats.packet_pool_reuses = packet_pool_.reuses();
        stats.alive_snapshots = alive_snapshots_;
        stats += metrics_;
        if (energy_) {
            stats.energy_sleep_transitions = energy_->sleep_transitions();
            stats.energy_depletions = energy_->depletions();
        }
        return stats;
    }

    // Byzantine reply tampering (see net/tamper.h). Null by default: the
    // send paths check one pointer and move on, so an adversary-free run
    // is bit-identical to a build without the hook.
    void set_tamper(ReplyTamper* tamper) { tamper_ = tamper; }
    ReplyTamper* tamper() const { return tamper_; }

    // Bytes of node-lifetime state (stacks, radios, MACs) placed in the
    // per-world arena — the deterministic companion to peak RSS.
    std::size_t arena_high_water() const { return arena_.high_water(); }

    // --- topology ---
    std::size_t node_count() const { return positions_.size(); }
    std::size_t alive_count() const { return alive_.count(); }
    // Liveness bitset with rank/select: alive_set().select(r) is exactly
    // alive_nodes()[r] without materializing the vector — the hot-path
    // replacement for snapshot-then-index draws.
    const util::AliveSet& alive_set() const { return alive_; }
    // Materialized snapshot (ascending ids). O(n) copy, counted in
    // kernel_stats().alive_snapshots — keep it out of per-op hot paths.
    std::vector<util::NodeId> alive_nodes() const;
    bool alive(util::NodeId id) const override;
    // --- three-state liveness (alive / asleep / dead) ---
    // awake = alive with the radio on. Sleeping nodes (duty cycling) keep
    // their positions, stores and handlers but neither receive, overhear
    // nor acknowledge anything; dead nodes lost their handlers too. With
    // no energy model every alive node is awake, so awake() == alive().
    bool awake(util::NodeId id) const override;
    bool asleep(util::NodeId id) const { return asleep_.test(id); }
    std::size_t asleep_count() const { return asleep_.count(); }
    std::size_t awake_count() const {
        return alive_.count() - asleep_.count();
    }
    // Radio off: cancels the heartbeat loop, keeps everything else.
    void sleep_node(util::NodeId id);
    // Radio back on. Unlike revive_node this does NOT re-run start() or
    // fire spawn listeners — the node never lost its handlers, so firing
    // them would install duplicates (the sleep-is-not-crash bug). Returns
    // false for dead nodes: a pending wake timer must never resurrect a
    // node whose battery depleted mid-sleep.
    bool wake_node(util::NodeId id);
    geom::Vec2 position(util::NodeId id) const override;
    void set_position(util::NodeId id, geom::Vec2 pos) override;
    // Closed-form motion (waypoint.lazy): position(id) is computed from
    // the in-flight leg on demand; the grid stays exact via cell-crossing
    // events, so mobility cost scales with crossings, not node count.
    bool supports_lazy_legs() const override { return lazy_mobility_; }
    sim::Time begin_leg(util::NodeId id, geom::Vec2 target,
                        double speed) override;
    double side() const override { return side_; }
    double range() const { return params_.range; }
    void nodes_within(geom::Vec2 center, double radius,
                      std::vector<util::NodeId>& out,
                      util::NodeId exclude) const override;
    // Ground-truth nodes currently within radio range of `id`. The
    // vector-returning form is a per-call allocation (counted in
    // alive_snapshots); hot paths use nodes_within with a reused buffer.
    std::vector<util::NodeId> physical_neighbors(util::NodeId id) const;
    // Unit-disk connectivity graph over currently alive nodes. Vertices are
    // indexed by NodeId (dead nodes appear isolated).
    geom::Graph snapshot_graph() const;

    NodeStack& stack(util::NodeId id);
    LinkLayer& link() { return *link_; }

    // Begins heartbeats and mobility. Call once before running.
    void start();
    bool started() const { return started_; }

    // --- churn ---
    void fail_node(util::NodeId id);
    util::NodeId spawn_node();
    // Warm restart of a previously failed node: it rejoins at its last
    // known position with its stores intact (the paper's recovering node,
    // §6.1 "failures and joins"). Spawn listeners fire so services can
    // reinstall the handlers that shutdown() cleared. Returns false if the
    // node is alive/unknown or the world runs at full fidelity (the MAC /
    // radio teardown in fail_node is not reversible there).
    bool revive_node(util::NodeId id);
    // Invoked (in registration order) whenever spawn_node creates a node;
    // lets services install their per-node handlers on late joiners.
    void add_spawn_listener(std::function<void(util::NodeId)> listener) {
        spawn_listeners_.push_back(std::move(listener));
    }

    // --- energy (null when params.energy.enabled is false) ---
    const sim::EnergyModel* energy() const { return energy_.get(); }
    // Per-byte airtime charges from the abstract link; one null check
    // and out when the model is disabled.
    void charge_tx_bytes(util::NodeId id, std::size_t bytes) {
        if (energy_) {
            energy_->charge_tx_bytes(id, bytes);
        }
    }
    void charge_rx_bytes(util::NodeId id, std::size_t bytes) {
        if (energy_) {
            energy_->charge_rx_bytes(id, bytes);
        }
    }
    // Network-lifetime marks, in seconds of simulated time; < 0 when the
    // mark was never reached. First partition = the alive unit-disk graph
    // first went disconnected on a battery depletion; half depletion =
    // half the initial population depleted.
    double time_to_first_partition_s() const { return first_partition_s_; }
    double time_to_half_depletion_s() const { return half_depletion_s_; }

    // --- link receive path (called by link implementations) ---
    void deliver(util::NodeId to, PacketPtr p);
    // Promiscuous delivery of packets not addressed to `listener` (§7.2).
    void overhear(util::NodeId listener, PacketPtr p);

    // Pooled packet construction: one recycled allocation for the Packet
    // and its shared_ptr control block (KernelStats packet_allocs /
    // packet_pool_reuses). The pool outlives the simulator, so packets
    // captured in queued events always die before it.
    std::shared_ptr<Packet> new_packet();
    std::shared_ptr<Packet> clone_packet(const Packet& original);
    util::BlockPool& packet_pool() { return packet_pool_; }
    // RREQ flood seen-records (net/rreq_flood.h); declared before the
    // packet pool, so every packet holding a FloodRef dies first.
    FloodPool& flood_pool() { return flood_pool_; }

private:
    // Lazy-mobility leg state: while `moving`, the node's exact position
    // is origin + velocity * (now - t0), clamped at t_end; positions_
    // holds the last committed point. `epoch` orphans cell-crossing events
    // queued before a commit, fail or new leg.
    struct MotionState {
        geom::Vec2 origin{};
        geom::Vec2 velocity{};  // m/s
        sim::Time t0 = 0;
        sim::Time t_end = 0;
        std::uint32_t epoch = 0;
        bool moving = false;
    };

    void create_node_internals(util::NodeId id);
    void schedule_crossing(util::NodeId id);
    void end_motion(util::NodeId id);

    WorldParams params_;
    // Node-lifetime object storage and the packet recycler are declared
    // before the simulator: queued events hold PacketPtrs and raw pointers
    // into the arena, and members die in reverse declaration order.
    util::Arena arena_;
    FloodPool flood_pool_;
    util::BlockPool packet_pool_;
    sim::Simulator simulator_;
    util::Rng rng_;
    util::KernelStats metrics_;
    double side_;

    // SoA node state, indexed by NodeId.
    std::vector<geom::Vec2> positions_;  // last committed, incl. dead nodes
    util::AliveSet alive_;
    // Duty-cycle sleep bits; a set bit implies the alive bit is also set
    // (fail_node clears both). Always sized — testing it is one load —
    // but only the energy model ever sets bits.
    util::AliveSet asleep_;
    std::unique_ptr<geom::SpatialGrid> grid_;  // alive nodes only
    bool lazy_mobility_ = false;         // params_.mobile && waypoint.lazy
    std::vector<MotionState> motion_;    // sized only in lazy mode
    // Candidate buffer for lazy-mode nodes_within (query_cells + exact
    // distance filter); mutable because queries are logically const.
    mutable std::vector<util::NodeId> query_scratch_;

    std::unique_ptr<mobility::MobilityModel> mobility_;
    std::unique_ptr<LinkLayer> link_;
    std::vector<NodeStack*> stacks_;  // arena-placed, destroyed in ~World
    std::vector<std::function<void(util::NodeId)>> spawn_listeners_;
    bool started_ = false;

    // Full-fidelity internals (null in abstract mode; arena-placed).
    std::unique_ptr<phy::Channel> channel_;
    std::vector<phy::Radio*> radios_;
    std::vector<mac::CsmaMac*> macs_;

    mutable std::uint64_t alive_snapshots_ = 0;
    ReplyTamper* tamper_ = nullptr;

    // Battery/duty-cycle model; constructed (and a child RNG forked) only
    // when params.energy.enabled.
    std::unique_ptr<sim::EnergyModel> energy_;
    std::size_t initial_population_ = 0;
    double first_partition_s_ = -1.0;
    double half_depletion_s_ = -1.0;
    void on_depletion(util::NodeId id);
    bool alive_subgraph_connected() const;

    friend class MacLink;
};

}  // namespace pqs::net
