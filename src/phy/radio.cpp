#include "phy/radio.h"

namespace pqs::phy {

bool Radio::carrier_busy() const {
    return transmitting_ || total_power_mw_ >= thresholds_.cs_threshold_mw;
}

void Radio::begin_transmit() {
    transmitting_ = true;
    // Half duplex: any reception in progress is lost.
    if (locked_) {
        locked_corrupted_ = true;
    }
}

void Radio::end_transmit() { transmitting_ = false; }

double Radio::interference_for(std::uint64_t excluded_frame) const {
    double sum = thresholds_.noise_floor_mw;
    for (const Arrival& arrival : inflight_) {
        if (arrival.frame_id != excluded_frame) {
            sum += arrival.power_mw;
        }
    }
    return sum;
}

void Radio::update_locked_sinr() {
    if (!locked_ || locked_corrupted_) {
        return;
    }
    // The locked frame is in flight until its frame_end unlocks it.
    for (const Arrival& arrival : inflight_) {
        if (arrival.frame_id == locked_frame_.frame_id) {
            const double sinr =
                arrival.power_mw / interference_for(arrival.frame_id);
            if (sinr < thresholds_.sinr_capture) {
                locked_corrupted_ = true;
            }
            return;
        }
    }
}

// pqs-hot: once per transmission and listening radio.
void Radio::frame_begin(const Frame& frame, double rx_power_mw) {
    inflight_.push_back(Arrival{frame.frame_id, rx_power_mw});
    total_power_mw_ += rx_power_mw;

    if (!locked_ && !transmitting_ &&
        rx_power_mw >= thresholds_.rx_threshold_mw) {
        const double sinr = rx_power_mw / interference_for(frame.frame_id);
        if (sinr >= thresholds_.sinr_capture) {
            locked_ = true;
            locked_frame_ = frame;
            locked_corrupted_ = false;
            return;
        }
    }
    // New arrival interferes with any ongoing locked reception.
    update_locked_sinr();
}

// pqs-hot: once per transmission and listening radio.
void Radio::frame_end(std::uint64_t frame_id) {
    std::size_t i = 0;
    while (i < inflight_.size() && inflight_[i].frame_id != frame_id) {
        ++i;
    }
    if (i == inflight_.size()) {
        return;  // unknown or already ended
    }
    const double power_mw = inflight_[i].power_mw;
    inflight_[i] = inflight_.back();
    inflight_.pop_back();
    total_power_mw_ -= power_mw;
    if (total_power_mw_ < 0.0) {
        total_power_mw_ = 0.0;  // guard against FP drift
    }

    if (locked_ && frame_id == locked_frame_.frame_id) {
        const bool ok = !locked_corrupted_ && !transmitting_;
        locked_ = false;
        // Moved out: the radio holds no payload reference once idle.
        const Frame frame = std::move(locked_frame_);
        if (energy_) {
            energy_(frame);  // the receive chain ran either way
        }
        if (ok) {
            ++frames_received_;
            if (handler_) {
                handler_(frame, power_mw);
            }
        } else {
            ++frames_corrupted_;
        }
    }
}

}  // namespace pqs::phy
