#include "net/world.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "net/node_stack.h"
#include "util/check.h"

namespace pqs::net {

// Full-fidelity link layer: every hop goes through the CSMA/CA MAC and the
// SINR radio/channel. Lives here because it needs World's internals.
class MacLink final : public LinkLayer {
public:
    explicit MacLink(World& world) : world_(world) {}

    void unicast(PacketPtr p, LinkTxCallback done) override {
        send(std::move(p), std::move(done));
    }

    void broadcast(PacketPtr p) override { send(std::move(p), nullptr); }

private:
    void send(PacketPtr p, LinkTxCallback done) {
        const util::NodeId src = p->link_src;
        // awake, not alive: an asleep node's pending timers may still try
        // to transmit, but its radio is off.
        if (!world_.awake(src) || src >= world_.macs_.size() ||
            world_.macs_[src] == nullptr) {
            if (done) {
                done(false);
            }
            return;
        }
        ++(world_.metrics().*packet_tx_counter(*p));
        phy::Frame frame;
        frame.dst = p->link_dst == kBroadcast ? phy::kBroadcastId
                                              : p->link_dst;
        frame.bytes = p->size_bytes();
        frame.trace = p->trace;
        frame.payload = std::static_pointer_cast<const void>(p);
        world_.macs_[src]->send(std::move(frame), std::move(done));
    }

    World& world_;
};

World::World(WorldParams params)
    : params_(params), rng_(params.seed) {
    geom::RggParams rgg{params_.n, params_.range, params_.avg_degree,
                        geom::Metric::kPlane};
    side_ = rgg.side();
    grid_ = std::make_unique<geom::SpatialGrid>(side_, params_.range);

    // Place nodes; optionally resample until the topology is connected.
    for (int attempt = 0;; ++attempt) {
        positions_.clear();
        for (std::size_t i = 0; i < params_.n; ++i) {
            positions_.push_back(geom::Vec2{rng_.uniform(0.0, side_),
                                            rng_.uniform(0.0, side_)});
        }
        if (!params_.ensure_connected ||
            build_unit_disk_graph(positions_, params_.range, side_)
                .is_connected()) {
            break;
        }
        if (attempt > 100) {
            throw std::runtime_error(
                "World: could not find a connected placement; raise "
                "avg_degree");
        }
    }
    alive_.assign(params_.n, true);
    asleep_.assign(params_.n, false);
    initial_population_ = params_.n;
    for (util::NodeId id = 0; id < params_.n; ++id) {
        grid_->insert(id, positions_[id]);
    }

    if (params_.energy.enabled) {
        sim::EnergyHooks hooks;
        hooks.sleep_one = [this](util::NodeId id) { sleep_node(id); };
        hooks.wake_one = [this](util::NodeId id) { wake_node(id); };
        hooks.deplete_one = [this](util::NodeId id) { on_depletion(id); };
        hooks.population = [this] { return node_count(); };
        hooks.alive = [this](util::NodeId id) { return alive(id); };
        energy_ = std::make_unique<sim::EnergyModel>(
            simulator_, params_.energy, std::move(hooks), rng_.fork());
    }

    if (params_.mobile) {
        if (params_.waypoint.lazy) {
            lazy_mobility_ = true;
            motion_.resize(params_.n);
            mobility_ = std::make_unique<mobility::LazyRandomWaypoint>(
                params_.waypoint);
        } else {
            mobility_ =
                std::make_unique<mobility::RandomWaypoint>(params_.waypoint);
        }
    } else {
        mobility_ = mobility::make_static_mobility();
    }

    if (params_.fidelity == Fidelity::kFull) {
        channel_ = std::make_unique<phy::Channel>(
            simulator_, *this, params_.propagation, params_.thresholds);
        link_ = std::make_unique<MacLink>(*this);
    } else {
        link_ = std::make_unique<AbstractLink>(*this, params_.abstract_link);
    }

    for (util::NodeId id = 0; id < params_.n; ++id) {
        create_node_internals(id);
    }
}

World::~World() {
    // Arena objects need their destructors run by hand, in the same
    // relative order the old unique_ptr members produced: MACs first
    // (while the channel is still alive), then radios, then stacks (the
    // simulator, arena and pool outlive all of them by declaration order).
    for (mac::CsmaMac* mac : macs_) {
        util::Arena::destroy(mac);
    }
    for (phy::Radio* radio : radios_) {
        util::Arena::destroy(radio);
    }
    for (NodeStack* stack : stacks_) {
        util::Arena::destroy(stack);
    }
}

void World::create_node_internals(util::NodeId id) {
    if (params_.fidelity == Fidelity::kFull) {
        radios_.resize(std::max<std::size_t>(radios_.size(), id + 1));
        macs_.resize(std::max<std::size_t>(macs_.size(), id + 1));
        radios_[id] = arena_.create<phy::Radio>(params_.thresholds);
        macs_[id] = arena_.create<mac::CsmaMac>(
            id, simulator_, *channel_, *radios_[id], params_.mac,
            rng_.fork());
        channel_->attach(id, radios_[id]);
        macs_[id]->set_rx_handler([this, id](const phy::Frame& frame) {
            deliver(id, std::static_pointer_cast<const Packet>(frame.payload));
        });
        macs_[id]->set_promiscuous_handler(
            [this, id](const phy::Frame& frame) {
                overhear(id, std::static_pointer_cast<const Packet>(
                                 frame.payload));
            });
        if (energy_) {
            macs_[id]->set_tx_airtime_listener([this, id](double seconds) {
                energy_->charge_tx_seconds(id, seconds);
            });
            radios_[id]->set_energy_listener(
                [this, id](const phy::Frame& frame) {
                    const bool slow_rate =
                        frame.is_ack || frame.dst == phy::kBroadcastId;
                    const double bps = slow_rate ? params_.mac.broadcast_bps
                                                 : params_.mac.unicast_bps;
                    const double seconds =
                        sim::to_seconds(params_.mac.preamble) +
                        static_cast<double>(frame.bytes) * 8.0 / bps;
                    energy_->charge_rx_seconds(id, seconds);
                });
        }
    }
    stacks_.resize(std::max<std::size_t>(stacks_.size(), id + 1));
    stacks_[id] = arena_.create<NodeStack>(*this, id, rng_.fork());
}

std::vector<util::NodeId> World::alive_nodes() const {
    ++alive_snapshots_;
    std::vector<util::NodeId> out;
    out.reserve(alive_.count());
    alive_.for_each([&out](util::NodeId id) { out.push_back(id); });
    return out;
}

bool World::alive(util::NodeId id) const { return alive_.test(id); }

// pqs-hot: consulted on every delivery/overhear; two bit tests.
bool World::awake(util::NodeId id) const {
    return alive_.test(id) && !asleep_.test(id);
}

void World::sleep_node(util::NodeId id) {
    if (!alive(id) || asleep_.test(id)) {
        return;
    }
    // The node stays in the grid: it is physically present (a neighbor
    // for membership views and route caches that will now silently fail)
    // — only its radio is off.
    asleep_.set(id);
    stacks_[id]->suspend();
}

bool World::wake_node(util::NodeId id) {
    // Refusing dead nodes is load-bearing: a wake timer scheduled before
    // a mid-sleep battery depletion (or crash) must not resurrect the
    // node — that is revive_node's job, with its spawn-listener refire.
    if (!alive(id) || !asleep_.test(id)) {
        return false;
    }
    asleep_.reset(id);
    stacks_[id]->resume();
    return true;
}

geom::Vec2 World::position(util::NodeId id) const {
    if (lazy_mobility_) {
        const MotionState& m = motion_.at(id);
        if (m.moving) {
            const sim::Time t = std::min(simulator_.now(), m.t_end);
            const double dt = sim::to_seconds(t - m.t0);
            return geom::Vec2{m.origin.x + m.velocity.x * dt,
                              m.origin.y + m.velocity.y * dt};
        }
    }
    return positions_.at(id);
}

void World::set_position(util::NodeId id, geom::Vec2 pos) {
    if (lazy_mobility_) {
        end_motion(id);  // an explicit position overrides any leg in flight
    }
    positions_.at(id) = pos;
    if (alive(id)) {
        grid_->move(id, pos);
    }
}

void World::end_motion(util::NodeId id) {
    MotionState& m = motion_.at(id);
    m.moving = false;
    ++m.epoch;
}

sim::Time World::begin_leg(util::NodeId id, geom::Vec2 target, double speed) {
    PQS_DCHECK(lazy_mobility_, "begin_leg requires waypoint.lazy mode");
    MotionState& m = motion_.at(id);
    ++m.epoch;  // orphan crossings from the previous leg
    const geom::Vec2 from = positions_.at(id);
    const geom::Vec2 delta = target - from;
    const double dist = delta.norm();
    if (dist <= 1e-12 || speed <= 0.0) {
        m.moving = false;
        return 0;
    }
    m.origin = from;
    m.velocity = delta * (speed / dist);
    m.t0 = simulator_.now();
    m.t_end = m.t0 + static_cast<sim::Time>(std::ceil(
                         dist / speed * static_cast<double>(sim::kSecond)));
    m.moving = true;
    schedule_crossing(id);
    return m.t_end - m.t0;
}

void World::schedule_crossing(util::NodeId id) {
    const MotionState& m = motion_[id];
    const sim::Time now = simulator_.now();
    if (!m.moving || now >= m.t_end) {
        return;
    }
    const geom::Vec2 pos = position(id);
    const double cell = grid_->cell_size();
    const double vs[2] = {m.velocity.x, m.velocity.y};
    const double ps[2] = {pos.x, pos.y};
    double dt = std::numeric_limits<double>::infinity();
    for (int axis = 0; axis < 2; ++axis) {
        const double v = vs[axis];
        if (std::abs(v) < 1e-12) {
            continue;
        }
        const double rel = ps[axis] / cell;
        const double boundary = v > 0.0 ? (std::floor(rel) + 1.0) * cell
                                        : (std::ceil(rel) - 1.0) * cell;
        double d = (boundary - ps[axis]) / v;
        if (d < 1e-9) {  // sitting on the boundary: take the next one
            d += cell / std::abs(v);
        }
        dt = std::min(dt, d);
    }
    if (!std::isfinite(dt)) {
        return;
    }
    // +1 ns lands strictly past the boundary, so the cell re-derived from
    // the exact position is the new one.
    const sim::Time delay =
        static_cast<sim::Time>(dt * static_cast<double>(sim::kSecond)) + 1;
    if (now + delay >= m.t_end) {
        return;  // the arrival commit performs the final cell move
    }
    const std::uint32_t epoch = m.epoch;
    // pqs-lint: fire-and-forget(epoch check orphans crossing events from a
    // node's previous leg/life; World outlives the event queue it drains)
    simulator_.schedule_in(delay, [this, id, epoch] {
        const MotionState& s = motion_[id];
        if (epoch != s.epoch || !s.moving || !alive(id)) {
            return;
        }
        grid_->move(id, position(id));
        schedule_crossing(id);
    });
}

void World::nodes_within(geom::Vec2 center, double radius,
                         std::vector<util::NodeId>& out,
                         util::NodeId exclude) const {
    if (!lazy_mobility_) {
        grid_->query(center, radius, out, exclude);
        return;
    }
    // Cell membership is exact in lazy mode but the grid's stored
    // positions may be stale; take cell candidates and distance-test them
    // against the closed-form positions.
    query_scratch_.clear();
    grid_->query_cells(center, radius, query_scratch_, exclude);
    const double r2 = radius * radius;
    for (const util::NodeId id : query_scratch_) {
        const geom::Vec2 d = position(id) - center;
        if (d.x * d.x + d.y * d.y <= r2) {
            out.push_back(id);
        }
    }
}

std::vector<util::NodeId> World::physical_neighbors(util::NodeId id) const {
    ++alive_snapshots_;
    std::vector<util::NodeId> out;
    nodes_within(position(id), params_.range, out, id);
    return out;
}

geom::Graph World::snapshot_graph() const {
    geom::Graph g(node_count());
    std::vector<util::NodeId> near;
    for (util::NodeId v = 0; v < node_count(); ++v) {
        if (!alive(v)) {
            continue;
        }
        near.clear();
        nodes_within(position(v), params_.range, near, v);
        for (const util::NodeId u : near) {
            if (u > v) {
                g.add_edge(v, u);
            }
        }
    }
    return g;
}

NodeStack& World::stack(util::NodeId id) { return *stacks_.at(id); }

void World::start() {
    if (started_) {
        throw std::logic_error("World::start called twice");
    }
    started_ = true;
    for (util::NodeId id = 0; id < node_count(); ++id) {
        if (alive(id)) {
            stacks_[id]->start();
            mobility_->start_node(*this, id, rng_);
        }
    }
    if (energy_) {
        energy_->start();
    }
}

void World::on_depletion(util::NodeId id) {
    fail_node(id);
    const double now_s = sim::to_seconds(simulator_.now());
    if (half_depletion_s_ < 0.0 && energy_ &&
        energy_->depletions() * 2 >= initial_population_) {
        half_depletion_s_ = now_s;
    }
    if (first_partition_s_ < 0.0 && !alive_subgraph_connected()) {
        first_partition_s_ = now_s;
    }
}

bool World::alive_subgraph_connected() const {
    // BFS over the alive unit-disk graph; dead nodes are skipped rather
    // than treated as isolated vertices. Only runs on depletion events.
    const std::size_t alive_n = alive_.count();
    if (alive_n <= 1) {
        return false;  // an empty or single-node network is partitioned
    }
    util::NodeId seed_node = alive_.select(0);
    std::vector<char> seen(node_count(), 0);
    std::vector<util::NodeId> frontier{seed_node};
    seen[seed_node] = 1;
    std::size_t reached = 1;
    std::vector<util::NodeId> near;
    while (!frontier.empty()) {
        const util::NodeId v = frontier.back();
        frontier.pop_back();
        near.clear();
        nodes_within(position(v), params_.range, near, v);
        for (const util::NodeId u : near) {
            if (!seen[u] && alive(u)) {
                seen[u] = 1;
                ++reached;
                frontier.push_back(u);
            }
        }
    }
    return reached == alive_n;
}

void World::fail_node(util::NodeId id) {
    if (!alive(id)) {
        return;
    }
    if (lazy_mobility_) {
        positions_.at(id) = position(id);  // freeze the exact point
        end_motion(id);
    }
    alive_.reset(id);
    asleep_.reset(id);  // dead overrides asleep
    grid_->remove(id);
    stacks_[id]->shutdown();
    if (params_.fidelity == Fidelity::kFull) {
        macs_[id]->shutdown();
        channel_->detach(id);
    }
    link_->on_node_failed(id);
    if (energy_) {
        energy_->on_node_failed(id);
    }
}

bool World::revive_node(util::NodeId id) {
    if (id >= alive_.size() || alive_.test(id) ||
        params_.fidelity == Fidelity::kFull) {
        return false;
    }
    alive_.set(id);
    grid_->insert(id, positions_[id]);
    link_->on_node_spawned(id);
    if (started_) {
        stacks_[id]->start();
        mobility_->start_node(*this, id, rng_);
    }
    for (const auto& listener : spawn_listeners_) {
        listener(id);
    }
    return true;
}

util::NodeId World::spawn_node() {
    const auto id = static_cast<util::NodeId>(positions_.size());
    positions_.push_back(
        geom::Vec2{rng_.uniform(0.0, side_), rng_.uniform(0.0, side_)});
    alive_.push_back(true);
    asleep_.push_back(false);
    if (lazy_mobility_) {
        motion_.resize(positions_.size());
    }
    grid_->insert(id, positions_[id]);
    create_node_internals(id);
    link_->on_node_spawned(id);
    if (started_) {
        stacks_[id]->start();
        mobility_->start_node(*this, id, rng_);
    }
    for (const auto& listener : spawn_listeners_) {
        listener(id);
    }
    return id;
}

void World::deliver(util::NodeId to, PacketPtr p) {
    // awake, not alive: sleeping nodes miss quorum probes — they neither
    // receive nor acknowledge, though they keep their stored values.
    if (!awake(to)) {
        return;
    }
    stacks_[to]->on_receive(std::move(p));
}

void World::overhear(util::NodeId listener, PacketPtr p) {
    if (!awake(listener)) {
        return;
    }
    stacks_[listener]->on_overhear(p);
}

std::shared_ptr<Packet> World::new_packet() {
    return std::allocate_shared<Packet>(
        util::PoolAllocator<Packet>{&packet_pool_});
}

std::shared_ptr<Packet> World::clone_packet(const Packet& original) {
    return std::allocate_shared<Packet>(
        util::PoolAllocator<Packet>{&packet_pool_}, original);
}

}  // namespace pqs::net
