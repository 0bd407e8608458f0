// Byzantine fault injection: marks up to b nodes as adversarial and
// assigns each a reply-path behavior. The plan is the FaultPlan of the
// lying-node world — same layering (opaque node ids, all randomness from
// the injected util::Rng, bit-identical per seed) but simpler lifetime:
// it schedules nothing, so there are no pending events to cancel. How a
// marked node actually misbehaves is the host's business (the simulator
// binds the plan to the net-layer tamper hook via
// core::ByzantineAdversary); the plan only answers "is this node faulty,
// and how does it lie?".
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/ids.h"
#include "util/rng.h"

namespace pqs::sim {

// Per-node reply misbehavior (the b-masking threat model: faulty members
// ack advertises like honest nodes to stay within the budget, then drop
// or forge lookup replies).
enum class ByzantineBehavior : std::uint8_t {
    kDropReply,     // suppress replies while pretending they were sent
    kLieStale,      // answer with the oldest value the adversary ever saw
    kLieFabricate,  // answer with a colluding per-key fabricated value
    kReplay,        // answer with the previously captured reply
};
inline constexpr std::size_t kByzantineBehaviorCount = 4;

const char* byzantine_behavior_name(ByzantineBehavior behavior);

struct ByzantinePlanParams {
    // Fault budget: total nodes the adversary may control.
    std::size_t b = 0;
    // Behaviors dealt round-robin to marked nodes; empty = all fabricate
    // (the worst case for value voting: every forged reply concurs).
    std::vector<ByzantineBehavior> mix;
    // Hold back this many of the b slots from static recruitment and fill
    // them from late joiners instead (churn-recruited adversaries).
    // Clamped to b; 0 = fully static.
    std::size_t recruit_joiners = 0;
};

class ByzantinePlan {
public:
    ByzantinePlan(ByzantinePlanParams params, util::Rng rng);

    // Marks the static part of the budget among the initial nodes [0, n),
    // uniformly without replacement. Call once before traffic starts.
    void recruit_static(std::size_t n);

    // Offers a late joiner to the adversary; it is marked while unfilled
    // recruit_joiners slots remain. Wire to World::add_spawn_listener.
    void on_join(util::NodeId id);

    bool faulty(util::NodeId id) const {
        return id < flags_.size() && flags_[id] != 0;
    }
    // Only meaningful when faulty(id).
    ByzantineBehavior behavior(util::NodeId id) const {
        return static_cast<ByzantineBehavior>(flags_[id] - 1);
    }

    std::size_t marked() const { return marked_; }
    const ByzantinePlanParams& params() const { return params_; }

private:
    void mark(util::NodeId id);

    ByzantinePlanParams params_;
    util::Rng rng_;
    std::vector<std::uint8_t> flags_;  // 0 = honest, else behavior + 1
    std::size_t marked_ = 0;
    std::size_t next_behavior_ = 0;
};

}  // namespace pqs::sim
