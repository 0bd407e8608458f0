#include "phy/channel.h"
#include "phy/radio.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "sim/simulator.h"

namespace pqs::phy {
namespace {

// Fixed-position provider for controlled PHY experiments.
class FixedPositions final : public PositionProvider {
public:
    void add(util::NodeId id, geom::Vec2 pos) {
        if (positions_.size() <= id) {
            positions_.resize(id + 1);
            alive_.resize(id + 1, false);
        }
        positions_[id] = pos;
        alive_[id] = true;
    }

    geom::Vec2 position(util::NodeId id) const override {
        return positions_.at(id);
    }
    bool alive(util::NodeId id) const override {
        return id < alive_.size() && alive_[id];
    }
    void kill(util::NodeId id) { alive_[id] = false; }
    void nodes_within(geom::Vec2 center, double radius,
                      std::vector<util::NodeId>& out,
                      util::NodeId exclude) const override {
        for (util::NodeId i = 0; i < positions_.size(); ++i) {
            if (i != exclude && alive_[i] &&
                geom::distance(center, positions_[i]) <= radius) {
                out.push_back(i);
            }
        }
    }

private:
    std::vector<geom::Vec2> positions_;
    std::vector<bool> alive_;
};

struct ChannelFixture : ::testing::Test {
    sim::Simulator simulator;
    FixedPositions positions;
    PropagationParams propagation;
    RadioThresholds thresholds;

    std::unique_ptr<Channel> channel;
    std::vector<std::unique_ptr<Radio>> radios;
    std::vector<std::vector<Frame>> received;

    void build(const std::vector<geom::Vec2>& where) {
        channel = std::make_unique<Channel>(simulator, positions, propagation,
                                            thresholds);
        received.resize(where.size());
        for (util::NodeId i = 0; i < where.size(); ++i) {
            positions.add(i, where[i]);
            radios.push_back(std::make_unique<Radio>(thresholds));
            radios[i]->set_rx_handler(
                [this, i](const Frame& f, double) { received[i].push_back(f); });
            channel->attach(i, radios[i].get());
        }
    }

    Frame frame(util::NodeId src, util::NodeId dst) {
        Frame f;
        f.src = src;
        f.dst = dst;
        f.bytes = 512;
        return f;
    }
};

TEST_F(ChannelFixture, InRangeReceives) {
    build({{0.0, 0.0}, {150.0, 0.0}});
    channel->transmit(0, frame(0, 1), sim::kMillisecond);
    simulator.run_until(10 * sim::kMillisecond);
    ASSERT_EQ(received[1].size(), 1u);
    EXPECT_EQ(received[1][0].src, 0u);
}

TEST_F(ChannelFixture, OutOfDecodeRangeSilent) {
    build({{0.0, 0.0}, {400.0, 0.0}});  // beyond 200 m decode range
    channel->transmit(0, frame(0, 1), sim::kMillisecond);
    simulator.run_until(10 * sim::kMillisecond);
    EXPECT_TRUE(received[1].empty());
}

TEST_F(ChannelFixture, DeadReceiverIgnored) {
    build({{0.0, 0.0}, {100.0, 0.0}});
    positions.kill(1);
    channel->transmit(0, frame(0, 1), sim::kMillisecond);
    simulator.run_until(10 * sim::kMillisecond);
    EXPECT_TRUE(received[1].empty());
}

TEST_F(ChannelFixture, ConcurrentTransmissionsCollide) {
    // Receiver 1 sits between two simultaneous equal-power transmitters:
    // SINR ~ 1 << 10, so both frames are lost.
    build({{0.0, 0.0}, {150.0, 0.0}, {300.0, 0.0}});
    channel->transmit(0, frame(0, 1), sim::kMillisecond);
    channel->transmit(2, frame(2, 1), sim::kMillisecond);
    simulator.run_until(10 * sim::kMillisecond);
    EXPECT_TRUE(received[1].empty());
    EXPECT_GE(radios[1]->frames_corrupted(), 1u);
}

TEST_F(ChannelFixture, CaptureStrongFrameSurvivesWeakInterference) {
    // Interferer is far: desired signal 50 m (strong), interferer 290 m
    // (weak) => SINR >> 10, capture succeeds.
    build({{0.0, 0.0}, {50.0, 0.0}, {340.0, 0.0}});
    channel->transmit(0, frame(0, 1), sim::kMillisecond);
    channel->transmit(2, frame(2, 1), sim::kMillisecond);
    simulator.run_until(10 * sim::kMillisecond);
    ASSERT_EQ(received[1].size(), 1u);
    EXPECT_EQ(received[1][0].src, 0u);
}

TEST_F(ChannelFixture, LateInterfererCorruptsLockedFrame) {
    build({{0.0, 0.0}, {150.0, 0.0}, {300.0, 0.0}});
    channel->transmit(0, frame(0, 1), 2 * sim::kMillisecond);
    simulator.schedule_at(sim::kMillisecond, [this] {
        channel->transmit(2, frame(2, 1), 2 * sim::kMillisecond);
    });
    simulator.run_until(10 * sim::kMillisecond);
    EXPECT_TRUE(received[1].empty());
    EXPECT_EQ(radios[1]->frames_corrupted(), 1u);
}

TEST_F(ChannelFixture, HalfDuplexTransmitterCannotReceive) {
    build({{0.0, 0.0}, {100.0, 0.0}});
    channel->transmit(0, frame(0, 1), 2 * sim::kMillisecond);
    channel->transmit(1, frame(1, 0), 2 * sim::kMillisecond);
    simulator.run_until(10 * sim::kMillisecond);
    EXPECT_TRUE(received[0].empty());
    EXPECT_TRUE(received[1].empty());
}

TEST_F(ChannelFixture, CarrierSenseDetectsNearbyTransmission) {
    build({{0.0, 0.0}, {250.0, 0.0}});  // within 299 m carrier sense
    EXPECT_FALSE(radios[1]->carrier_busy());
    channel->transmit(0, frame(0, phy::kBroadcastId), 2 * sim::kMillisecond);
    simulator.run_until(sim::kMillisecond);
    EXPECT_TRUE(radios[1]->carrier_busy());
    simulator.run_until(10 * sim::kMillisecond);
    EXPECT_FALSE(radios[1]->carrier_busy());
}

TEST_F(ChannelFixture, BeyondCarrierSenseNotBusy) {
    build({{0.0, 0.0}, {350.0, 0.0}});
    channel->transmit(0, frame(0, phy::kBroadcastId), 2 * sim::kMillisecond);
    simulator.run_until(sim::kMillisecond);
    EXPECT_FALSE(radios[1]->carrier_busy());
}

TEST_F(ChannelFixture, BroadcastReachesAllInRange) {
    build({{0.0, 0.0}, {100.0, 0.0}, {190.0, 0.0}, {500.0, 0.0}});
    channel->transmit(0, frame(0, phy::kBroadcastId), sim::kMillisecond);
    simulator.run_until(10 * sim::kMillisecond);
    EXPECT_EQ(received[1].size(), 1u);
    EXPECT_EQ(received[2].size(), 1u);
    EXPECT_TRUE(received[3].empty());
}

TEST_F(ChannelFixture, DetachedRadioHearsNothing) {
    build({{0.0, 0.0}, {100.0, 0.0}});
    channel->detach(1);
    channel->transmit(0, frame(0, 1), sim::kMillisecond);
    simulator.run_until(10 * sim::kMillisecond);
    EXPECT_TRUE(received[1].empty());
}

TEST_F(ChannelFixture, DetachWhileFrameInFlight) {
    // Detaching stops later transmissions from reaching the node, but a
    // frame already on the air still ends at its radio (the MAC above is
    // what a failed node shuts down), and a detached transmitter still
    // leaves transmit state when its frame ends.
    build({{0.0, 0.0}, {100.0, 0.0}});
    channel->transmit(0, frame(0, 1), 2 * sim::kMillisecond);
    simulator.run_until(sim::kMillisecond);
    channel->detach(1);
    channel->detach(0);
    EXPECT_TRUE(radios[0]->transmitting());
    EXPECT_GT(radios[1]->inflight_power_mw(), 0.0);
    simulator.run_until(5 * sim::kMillisecond);
    EXPECT_FALSE(radios[0]->transmitting());
    EXPECT_EQ(radios[1]->inflight_power_mw(), 0.0);
    ASSERT_EQ(received[1].size(), 1u);

    channel->transmit(0, frame(0, 1), sim::kMillisecond);
    simulator.run_until(10 * sim::kMillisecond);
    EXPECT_EQ(received[1].size(), 1u);
    EXPECT_FALSE(radios[0]->transmitting());  // no radio attached for 0
}

TEST_F(ChannelFixture, SparseLargeNodeIdAttaches) {
    // The radio table is indexed by NodeId: a lone large id works, and
    // ids in the gap stay radio-less.
    build({{0.0, 0.0}});
    const util::NodeId far_id = 100000;
    positions.add(far_id, {100.0, 0.0});
    Radio far_radio(thresholds);
    std::vector<Frame> far_received;
    far_radio.set_rx_handler(
        [&far_received](const Frame& f, double) { far_received.push_back(f); });
    channel->attach(far_id, &far_radio);
    channel->transmit(0, frame(0, far_id), sim::kMillisecond);
    simulator.run_until(5 * sim::kMillisecond);
    ASSERT_EQ(far_received.size(), 1u);
    EXPECT_EQ(far_received[0].src, 0u);

    channel->transmit(far_id, frame(far_id, 0), sim::kMillisecond);
    simulator.run_until(10 * sim::kMillisecond);
    ASSERT_EQ(received[0].size(), 1u);
    EXPECT_EQ(received[0][0].src, far_id);

    channel->detach(far_id);
    channel->detach(far_id + 7);  // never attached: a no-op
    EXPECT_THROW(channel->attach(util::kInvalidNode, &far_radio),
                 std::invalid_argument);
}

// Overlapping arrivals driven straight into one radio, with powers chosen
// so each capture decision can be checked by hand against
// SINR = P_locked / (N + sum of the other in-flight powers), beta = 10.
struct RadioFixture : ::testing::Test {
    RadioThresholds thresholds;
    Radio radio{thresholds};
    std::vector<std::uint64_t> delivered;

    RadioFixture() {
        radio.set_rx_handler([this](const Frame& f, double) {
            delivered.push_back(f.frame_id);
        });
    }

    void begin(std::uint64_t id, double power_mw) {
        Frame f;
        f.frame_id = id;
        radio.frame_begin(f, power_mw);
    }
};

TEST_F(RadioFixture, ThirdArrivalPushesLockedFrameBelowCapture) {
    const double n = thresholds.noise_floor_mw;  // 8.008e-11 mW
    begin(1, 1e-6);  // decodable, SINR 1e-6 / n >> 10: locks
    begin(2, 5e-8);  // SINR of 1: 1e-6 / (n + 5e-8) = 19.97
    EXPECT_GE(1e-6 / (n + 5e-8), thresholds.sinr_capture);
    begin(3, 6e-8);  // 1e-6 / (n + 1.1e-7) = 9.08 < 10: corrupted
    EXPECT_LT(1e-6 / (n + 5e-8 + 6e-8), thresholds.sinr_capture);
    EXPECT_DOUBLE_EQ(radio.inflight_power_mw(), 1e-6 + 5e-8 + 6e-8);
    // End out of order: 2, then the locked 1, then 3.
    radio.frame_end(2);
    EXPECT_DOUBLE_EQ(radio.inflight_power_mw(), 1e-6 + 5e-8 + 6e-8 - 5e-8);
    radio.frame_end(1);
    EXPECT_TRUE(delivered.empty());
    EXPECT_EQ(radio.frames_corrupted(), 1u);
    radio.frame_end(3);  // never locked: neither delivered nor counted
    EXPECT_TRUE(delivered.empty());
    EXPECT_EQ(radio.frames_corrupted(), 1u);
    EXPECT_EQ(radio.frames_received(), 0u);
}

TEST_F(RadioFixture, LockedFrameSurvivesTwoWeakInterferers) {
    const double n = thresholds.noise_floor_mw;
    begin(1, 5e-8);  // below the -71 dBm rx threshold: cannot lock
    begin(2, 1e-6);  // 1e-6 / (n + 5e-8) = 19.97: locks
    begin(3, 4e-8);  // 1e-6 / (n + 9e-8) = 11.10: still captured
    EXPECT_GE(1e-6 / (n + 5e-8 + 4e-8), thresholds.sinr_capture);
    // End out of order: 3, the locked 2 (delivered), then 1.
    radio.frame_end(3);
    EXPECT_TRUE(delivered.empty());
    radio.frame_end(2);
    ASSERT_EQ(delivered.size(), 1u);
    EXPECT_EQ(delivered[0], 2u);
    EXPECT_NEAR(radio.inflight_power_mw(), 5e-8, 1e-18);
    radio.frame_end(1);
    EXPECT_EQ(radio.frames_received(), 1u);
    EXPECT_EQ(radio.frames_corrupted(), 0u);
    // Idle again: the next decodable frame locks from scratch.
    begin(4, 1e-6);
    radio.frame_end(4);
    EXPECT_EQ(delivered.size(), 2u);
}

TEST_F(RadioFixture, StrongArrivalCannotLockOverInterference) {
    // 1e-7 is decodable, but 1e-7 / (n + 2e-8) = 4.98 < 10: no lock, so
    // its end delivers nothing even after the interferer has gone.
    const double n = thresholds.noise_floor_mw;
    begin(1, 2e-8);
    begin(2, 1e-7);
    EXPECT_LT(1e-7 / (n + 2e-8), thresholds.sinr_capture);
    radio.frame_end(1);
    radio.frame_end(2);
    EXPECT_TRUE(delivered.empty());
    EXPECT_EQ(radio.frames_corrupted(), 0u);
}

TEST_F(RadioFixture, FrameEndForUnknownOrStaleIdIsNoOp) {
    radio.frame_end(99);  // idle radio, never heard of 99
    EXPECT_EQ(radio.inflight_power_mw(), 0.0);
    begin(7, 1e-6);
    radio.frame_end(8);  // unknown while another frame is in flight
    EXPECT_DOUBLE_EQ(radio.inflight_power_mw(), 1e-6);
    radio.frame_end(7);
    radio.frame_end(7);  // stale: already ended
    EXPECT_EQ(radio.inflight_power_mw(), 0.0);
    EXPECT_EQ(delivered.size(), 1u);
    EXPECT_EQ(radio.frames_received(), 1u);
    EXPECT_EQ(radio.frames_corrupted(), 0u);
}

TEST_F(ChannelFixture, InterferenceCutoffCoversNoiseFloor) {
    // The cutoff must be at least the distance where power = noise floor.
    build({{0.0, 0.0}});
    const double at_cutoff =
        two_ray_rx_power_mw(propagation, channel->interference_cutoff_m());
    EXPECT_NEAR(at_cutoff, thresholds.noise_floor_mw,
                thresholds.noise_floor_mw * 0.05);
}

}  // namespace
}  // namespace pqs::phy
