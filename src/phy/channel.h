// Shared wireless medium: when a node transmits, the channel computes the
// received power at every radio within the interference cutoff (two-ray
// model) and schedules frame_begin/frame_end at each of them. Propagation
// delay is ignored (sub-microsecond at these ranges), as in SWANS.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "geom/vec2.h"
#include "phy/propagation.h"
#include "phy/radio.h"
#include "sim/simulator.h"
#include "util/ids.h"

namespace pqs::phy {

// Narrow view of the world the channel needs: who is where and alive.
class PositionProvider {
public:
    virtual ~PositionProvider() = default;
    virtual geom::Vec2 position(util::NodeId id) const = 0;
    virtual bool alive(util::NodeId id) const = 0;
    // Alive with the radio powered on; a duty-cycled node that is asleep
    // is alive but not awake, and hears nothing. Defaults to alive for
    // providers without a sleep state.
    virtual bool awake(util::NodeId id) const { return alive(id); }
    virtual void nodes_within(geom::Vec2 center, double radius,
                              std::vector<util::NodeId>& out,
                              util::NodeId exclude) const = 0;
};

class Channel {
public:
    Channel(sim::Simulator& simulator, const PositionProvider& positions,
            PropagationParams propagation, RadioThresholds thresholds);

    // Registers the radio for a node; the channel does not own radios.
    // The table is indexed by NodeId, so it grows to the largest id.
    void attach(util::NodeId id, Radio* radio);
    // Later transmissions skip the node; frames already in flight still
    // end at its radio.
    void detach(util::NodeId id);

    // Transmits `frame` from `src` for `duration`. The source radio is put
    // in transmit state for the duration; every attached, alive radio
    // within the interference cutoff observes the frame.
    void transmit(util::NodeId src, Frame frame, sim::Time duration);

    // Distance beyond which received power falls below the thermal noise
    // floor and the transmission is ignored entirely.
    double interference_cutoff_m() const { return cutoff_m_; }

    std::uint64_t next_frame_id() { return next_frame_id_++; }

private:
    Radio* radio_of(util::NodeId id) const {
        return id < radios_.size() ? radios_[id] : nullptr;
    }

    sim::Simulator& simulator_;
    const PositionProvider& positions_;
    PropagationParams propagation_;
    RadioThresholds thresholds_;
    double cutoff_m_;
    std::vector<Radio*> radios_;  // by NodeId; null = no radio attached
    std::vector<util::NodeId> listeners_;  // transmit()'s reused buffer
    std::uint64_t next_frame_id_ = 1;
};

}  // namespace pqs::phy
