#include "mac/csma_mac.h"

#include <algorithm>
#include <utility>

#include "obs/trace.h"

namespace pqs::mac {

CsmaMac::CsmaMac(util::NodeId self, sim::Simulator& simulator,
                 phy::Channel& channel, phy::Radio& radio, MacParams params,
                 util::Rng rng)
    : self_(self),
      simulator_(simulator),
      channel_(channel),
      radio_(radio),
      params_(params),
      rng_(rng) {
    radio_.set_rx_handler(
        [this](const phy::Frame& frame, double) { on_radio_frame(frame); });
}

sim::Time CsmaMac::frame_duration(std::size_t bytes, bool broadcast) const {
    const double bps = broadcast ? params_.broadcast_bps : params_.unicast_bps;
    const double seconds = static_cast<double>(bytes) * 8.0 / bps;
    return params_.preamble + sim::from_seconds(seconds);
}

void CsmaMac::send(phy::Frame frame, TxCallback done) {
    if (!alive_) {
        return;
    }
    frame.src = self_;
    frame.mac_seq = next_seq_++;
    queue_.push_back(Pending{std::move(frame), std::move(done), 0,
                             params_.cw_min});
    kick();
}

void CsmaMac::shutdown() {
    alive_ = false;
    ++generation_;
    queue_.clear();
    busy_ = false;
    if (ack_timer_ != sim::kInvalidEvent) {
        simulator_.cancel(ack_timer_);
        ack_timer_ = sim::kInvalidEvent;
    }
}

void CsmaMac::kick() {
    if (!busy_ && !queue_.empty()) {
        busy_ = true;
        attempt();
    }
}

void CsmaMac::attempt() {
    // DIFS plus a uniform backoff in [0, cw] slots; if the medium is busy at
    // the end of the deferral we redraw (see header for the simplification).
    const Pending& head = queue_.front();
    obs::record(head.frame.trace, obs::EventKind::kMacBackoff, self_,
                static_cast<std::uint64_t>(head.cw));
    const sim::Time defer =
        params_.difs +
        params_.slot * static_cast<sim::Time>(
                           rng_.index(static_cast<std::size_t>(head.cw) + 1));
    const std::uint64_t gen = generation_;
    // pqs-lint: fire-and-forget(generation check orphans the backoff after
    // shutdown(), which the destructor runs; stale timers become no-ops)
    simulator_.schedule_in(defer, [this, gen] {
        if (gen != generation_ || !busy_) {
            return;
        }
        if (radio_.carrier_busy()) {
            attempt();
        } else {
            transmit_head();
        }
    });
}

void CsmaMac::transmit_head() {
    Pending& head = queue_.front();
    const bool broadcast = head.frame.dst == phy::kBroadcastId;
    const sim::Time duration = frame_duration(head.frame.bytes, broadcast);
    head.frame.frame_id = channel_.next_frame_id();
    ++tx_attempts_;
    obs::record(head.frame.trace, obs::EventKind::kMacTx, self_,
                head.frame.bytes);
    channel_.transmit(self_, head.frame, duration);
    if (tx_airtime_) {
        tx_airtime_(sim::to_seconds(duration));
    }
    const std::uint64_t gen = generation_;
    // pqs-lint: fire-and-forget(generation check orphans the tx-done event
    // after shutdown(), which the destructor runs; stale timers are no-ops)
    simulator_.schedule_in(duration, [this, gen] {
        if (gen == generation_) {
            on_tx_done();
        }
    });
}

void CsmaMac::on_tx_done() {
    if (queue_.empty()) {
        return;
    }
    const Pending& head = queue_.front();
    if (head.frame.dst == phy::kBroadcastId) {
        finish_head(true);
        return;
    }
    // Wait for the ack: SIFS + ack airtime + small guard.
    const sim::Time ack_air = frame_duration(params_.ack_bytes, true);
    const sim::Time timeout = params_.sifs + ack_air + 50 * sim::kMicrosecond;
    const std::uint64_t gen = generation_;
    ack_timer_ = simulator_.schedule_in(timeout, [this, gen] {
        if (gen == generation_) {
            ack_timer_ = sim::kInvalidEvent;
            ack_timeout();
        }
    });
}

void CsmaMac::ack_timeout() {
    if (queue_.empty()) {
        return;
    }
    Pending& head = queue_.front();
    ++head.retries;
    if (head.retries > params_.max_retries) {
        ++tx_failures_;
        obs::record(head.frame.trace, obs::EventKind::kMacDrop, self_,
                    head.frame.dst);
        finish_head(false);
        return;
    }
    head.cw = std::min(head.cw * 2 + 1, params_.cw_max);
    attempt();
}

void CsmaMac::finish_head(bool success) {
    Pending head = std::move(queue_.front());
    queue_.pop_front();
    busy_ = false;
    if (head.done) {
        head.done(success);
    }
    kick();
}

void CsmaMac::send_ack(util::NodeId to, std::uint32_t mac_seq) {
    // The frame id is drawn now, at schedule time, so ids keep their
    // order; the frame itself is rebuilt in the callback, whose captures
    // then fit the event's inline buffer (no heap allocation per ack).
    const std::uint64_t frame_id = channel_.next_frame_id();
    const std::uint64_t gen = generation_;
    // Acks go out after SIFS without contention (they win over DIFS waits).
    // pqs-lint: fire-and-forget(generation check orphans the ack after
    // shutdown(), which the destructor runs; stale timers are no-ops)
    simulator_.schedule_in(params_.sifs, [this, gen, frame_id, to, mac_seq] {
        if (gen != generation_) {
            return;
        }
        phy::Frame ack;
        ack.frame_id = frame_id;
        ack.src = self_;
        ack.dst = to;
        ack.bytes = params_.ack_bytes;
        ack.is_ack = true;
        ack.mac_seq = mac_seq;
        const sim::Time duration = frame_duration(params_.ack_bytes, true);
        channel_.transmit(self_, std::move(ack), duration);
        if (tx_airtime_) {
            tx_airtime_(sim::to_seconds(duration));
        }
    });
}

void CsmaMac::on_radio_frame(const phy::Frame& frame) {
    if (!alive_) {
        return;
    }
    if (frame.is_ack) {
        if (frame.dst != self_ || !busy_ || queue_.empty()) {
            return;
        }
        const Pending& head = queue_.front();
        if (head.frame.dst == frame.src && head.frame.mac_seq == frame.mac_seq &&
            ack_timer_ != sim::kInvalidEvent) {
            simulator_.cancel(ack_timer_);
            ack_timer_ = sim::kInvalidEvent;
            finish_head(true);
        }
        return;
    }
    if (frame.dst == self_) {
        // Ack even duplicates: the sender may have missed the previous ack.
        send_ack(frame.src, frame.mac_seq);
        const auto it = last_seq_.find(frame.src);
        if (it != last_seq_.end() && it->second == frame.mac_seq) {
            return;  // duplicate delivery suppressed
        }
        last_seq_[frame.src] = frame.mac_seq;
        if (rx_) {
            rx_(frame);
        }
        return;
    }
    if (frame.dst == phy::kBroadcastId && frame.src != self_) {
        if (rx_) {
            rx_(frame);
        }
        return;
    }
    // Unicast addressed to someone else: promiscuous listeners still see it.
    if (promiscuous_) {
        promiscuous_(frame);
    }
}

}  // namespace pqs::mac
