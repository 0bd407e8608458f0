#include "phy/channel.h"

#include <stdexcept>

namespace pqs::phy {

Channel::Channel(sim::Simulator& simulator, const PositionProvider& positions,
                 PropagationParams propagation, RadioThresholds thresholds)
    : simulator_(simulator),
      positions_(positions),
      propagation_(propagation),
      thresholds_(thresholds),
      cutoff_m_(two_ray_range_for_threshold(propagation,
                                            thresholds.noise_floor_mw)) {}

void Channel::attach(util::NodeId id, Radio* radio) {
    if (id == util::kInvalidNode) {
        throw std::invalid_argument("Channel::attach: invalid node id");
    }
    if (id >= radios_.size()) {
        radios_.resize(static_cast<std::size_t>(id) + 1, nullptr);
    }
    radios_[id] = radio;
}

void Channel::detach(util::NodeId id) {
    if (id < radios_.size()) {
        radios_[id] = nullptr;
    }
}

// pqs-hot: once per MAC transmission; fans out to every radio in range.
void Channel::transmit(util::NodeId src, Frame frame, sim::Time duration) {
    if (frame.frame_id == 0) {
        frame.frame_id = next_frame_id();
    }
    const geom::Vec2 origin = positions_.position(src);

    if (Radio* tx_radio = radio_of(src)) {
        tx_radio->begin_transmit();
        // pqs-lint: fire-and-forget(radios register for the channel's whole
        // lifetime; end_transmit just flips the carrier state back)
        simulator_.schedule_in(duration,
                               [tx_radio] { tx_radio->end_transmit(); });
    }

    // Nothing below re-enters transmit(): frame_begin only updates the
    // radio, and the frame_end events fire later.
    listeners_.clear();
    positions_.nodes_within(origin, cutoff_m_, listeners_, src);
    for (const util::NodeId id : listeners_) {
        Radio* radio = radio_of(id);
        // awake, not alive: a sleeping radio hears nothing (it neither
        // receives nor interferes-locks on quorum probes).
        if (radio == nullptr || !positions_.awake(id)) {
            continue;
        }
        const double d = geom::distance(origin, positions_.position(id));
        if (d <= 0.0) {
            continue;  // co-located; treat as unreceivable
        }
        const double power = two_ray_rx_power_mw(propagation_, d);
        if (power < thresholds_.noise_floor_mw) {
            continue;
        }
        radio->frame_begin(frame, power);
        const std::uint64_t frame_id = frame.frame_id;
        // pqs-lint: fire-and-forget(frame_end is keyed by frame_id, so a
        // stale event misses; radios outlive the channel's event horizon)
        simulator_.schedule_in(
            duration, [radio, frame_id] { radio->frame_end(frame_id); });
    }
}

}  // namespace pqs::phy
