// Battery / duty-cycle model (sim::EnergyModel), the three-state
// alive/asleep/dead liveness it threads through net::World, the timed
// quorum (lease) layer, and the asleep-vs-crashed regressions on the
// probe/reply path: every site that used to consult alive() where it
// meant awake() has a named test here.
#include "sim/energy_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/biquorum.h"
#include "core/location_service.h"
#include "core/maintenance.h"
#include "core/scenario.h"
#include "core/theory.h"
#include "membership/oracle_membership.h"
#include "net/node_stack.h"
#include "net/world.h"
#include "same_results.h"

namespace pqs {
namespace {

// ---------------------------------------------------------------------------
// Closed forms (core/theory.h).

TEST(EnergyTheory, DutyOneReducesBitExact) {
    // d = 1 must delegate to the undented bound — bit-equal, not merely
    // close (the masking_* b=0 delegation pattern).
    for (const auto [qa, ql, n] :
         {std::array<std::size_t, 3>{87, 87, 500},
          std::array<std::size_t, 3>{30, 120, 1000},
          std::array<std::size_t, 3>{5, 5, 25}}) {
        EXPECT_EQ(core::duty_cycled_miss_bound(qa, ql, n, 1.0),
                  core::nonintersection_upper_bound(qa, ql, n));
    }
}

TEST(EnergyTheory, MonotoneDecreasingInDuty) {
    double prev = 1.1;
    for (const double d : {0.1, 0.3, 0.5, 0.7, 0.9, 1.0}) {
        const double bound = core::duty_cycled_miss_bound(87, 87, 500, d);
        EXPECT_GT(bound, 0.0);
        EXPECT_LT(bound, prev) << "d=" << d;
        prev = bound;
    }
}

TEST(EnergyTheory, DominatesNaiveThinnedExponent) {
    // exp(-qa*ql*d/n) = eps0^d is NOT an upper bound for the binomial
    // mixture of awake holders; the correct bound lies above it
    // (convexity: e^{-dt} <= 1 - d + d*e^{-t}). Guard against anyone
    // "simplifying" the implementation back to the plausible-but-wrong
    // form.
    for (const double d : {0.2, 0.5, 0.8}) {
        const double correct = core::duty_cycled_miss_bound(87, 87, 500, d);
        const double naive = std::exp(-87.0 * 87.0 * d / 500.0);
        EXPECT_GT(correct, naive) << "d=" << d;
    }
}

TEST(EnergyTheory, LeaseCoverageEdges) {
    EXPECT_EQ(core::lease_coverage(0.0, 10.0), 1.0);   // no lease: eternal
    EXPECT_EQ(core::lease_coverage(-5.0, 10.0), 1.0);
    EXPECT_EQ(core::lease_coverage(5.0, 0.0), 0.0);    // never refreshed
    EXPECT_EQ(core::lease_coverage(5.0, -1.0), 0.0);
    EXPECT_DOUBLE_EQ(core::lease_coverage(5.0, 10.0), 0.5);
    EXPECT_EQ(core::lease_coverage(20.0, 10.0), 1.0);  // lease outlives R
}

TEST(EnergyTheory, NoLeaseReducesToDutyBound) {
    const double duty_only = core::duty_cycled_miss_bound(87, 87, 500, 0.6);
    EXPECT_EQ(core::timed_quorum_miss_bound(87, 87, 500, 0.6, 0.0, 30.0),
              duty_only);
    // Half coverage mixes in a guaranteed miss for the uncovered half.
    const double timed =
        core::timed_quorum_miss_bound(87, 87, 500, 0.6, 15.0, 30.0);
    EXPECT_DOUBLE_EQ(timed, 0.5 + 0.5 * duty_only);
    EXPECT_GT(timed, duty_only);
}

// ---------------------------------------------------------------------------
// EnergyModel against hook doubles (no network).

struct ModelHarness {
    sim::Simulator simulator;
    std::vector<bool> dead;
    std::vector<int> slept, woke;
    int depleted = 0;

    sim::EnergyHooks hooks(std::size_t n) {
        dead.assign(n, false);
        slept.assign(n, 0);
        woke.assign(n, 0);
        return sim::EnergyHooks{
            [this](util::NodeId id) { ++slept[id]; },
            [this](util::NodeId id) { ++woke[id]; },
            [this](util::NodeId id) {
                dead[id] = true;
                ++depleted;
            },
            [n] { return n; },
            [this](util::NodeId id) { return !dead[id]; },
        };
    }
};

TEST(EnergyModel, BaselineConsumptionMatchesClosedForm) {
    ModelHarness h;
    sim::EnergyModelParams p;
    p.enabled = true;
    p.duty = 1.0;  // never sleeps: pure idle draw
    sim::EnergyModel model(h.simulator, p, h.hooks(4), util::Rng(1));
    model.start();
    h.simulator.run_until(sim::from_seconds(10.0));
    EXPECT_NEAR(model.consumed_j(), 4 * p.p_idle_w * 10.0, 1e-9);
    EXPECT_EQ(model.sleep_transitions(), 0u);
    EXPECT_EQ(model.depletions(), 0u);
}

TEST(EnergyModel, DutyCycleTogglesAndBrackets) {
    ModelHarness h;
    sim::EnergyModelParams p;
    p.enabled = true;
    p.duty = 0.5;
    p.period = sim::kSecond;
    const std::size_t n = 8;
    sim::EnergyModel model(h.simulator, p, h.hooks(n), util::Rng(2));
    model.start();
    h.simulator.run_until(sim::from_seconds(20.0));
    EXPECT_GT(model.sleep_transitions(), 0u);
    for (util::NodeId id = 0; id < n; ++id) {
        EXPECT_GE(h.slept[id] + h.woke[id], 19) << "node " << id;
    }
    // At duty 0.5 the meter sits exactly between the all-sleep and
    // all-idle baselines (every node spends half of each period in each
    // state, whatever its phase).
    const double expect =
        n * 20.0 * (0.5 * p.p_idle_w + 0.5 * p.p_sleep_w);
    EXPECT_NEAR(model.consumed_j(), expect, n * p.p_idle_w * 1.0);
}

TEST(EnergyModel, DepletionIsPermanentAndCounted) {
    ModelHarness h;
    sim::EnergyModelParams p;
    p.enabled = true;
    p.duty = 1.0;
    p.battery_j = p.p_idle_w * 5.0;  // dies at t = 5s on baseline alone
    const std::size_t n = 3;
    sim::EnergyModel model(h.simulator, p, h.hooks(n), util::Rng(3));
    model.start();
    h.simulator.run_until(sim::from_seconds(30.0));
    EXPECT_EQ(model.depletions(), n);
    EXPECT_EQ(h.depleted, static_cast<int>(n));
    for (util::NodeId id = 0; id < n; ++id) {
        EXPECT_TRUE(h.dead[id]);
        EXPECT_EQ(model.remaining_j(id), 0.0);
    }
    // The meter froze at the battery capacity; nothing drains post-mortem.
    EXPECT_NEAR(model.consumed_j(), n * p.battery_j, 1e-9);
}

TEST(EnergyModel, TxChargeAcceleratesDepletion) {
    ModelHarness h;
    sim::EnergyModelParams p;
    p.enabled = true;
    p.duty = 1.0;
    p.battery_j = 1.0;
    sim::EnergyModel model(h.simulator, p, h.hooks(2), util::Rng(4));
    model.start();
    h.simulator.run_until(sim::from_seconds(1.0));
    model.charge_tx_seconds(0, 1.0 / p.p_tx_w);  // a full joule at once
    EXPECT_TRUE(h.dead[0]);
    EXPECT_FALSE(h.dead[1]);
    EXPECT_EQ(model.depletions(), 1u);
}

// ---------------------------------------------------------------------------
// Three-state liveness in net::World.

net::WorldParams sleep_world(std::size_t n = 60, std::uint64_t seed = 1) {
    net::WorldParams p;
    p.n = n;
    p.seed = seed;
    p.avg_degree = 10.0;
    p.oracle_neighbors = true;
    return p;
}

struct Ping final : net::AppMessage {};

// Named regression (satellite 1): waking from sleep must NOT re-run the
// node's start() path. Before the fix, wake re-fired spawn listeners,
// installing a second copy of every service handler — each delivery then
// executed twice (double quorum loads, double replies).
TEST(WorldSleep, SleepIsNotCrash) {
    net::World w(sleep_world());
    w.start();
    const util::NodeId a = 0;
    const auto neighbors = w.physical_neighbors(a);
    ASSERT_FALSE(neighbors.empty());
    const util::NodeId b = neighbors.front();

    int spawn_fires = 0;
    w.add_spawn_listener([&](util::NodeId) { ++spawn_fires; });
    int received = 0;
    w.stack(b).add_app_handler(
        [&](util::NodeId, util::NodeId, const net::AppMsgPtr&) {
            ++received;
            return true;
        });

    w.sleep_node(b);
    EXPECT_TRUE(w.alive(b));
    EXPECT_TRUE(w.asleep(b));
    EXPECT_FALSE(w.awake(b));
    EXPECT_EQ(w.awake_count(), w.alive_count() - 1);

    // Radio off: the probe fails like a crash would...
    bool ok_asleep = true;
    w.stack(a).send_unicast(b, std::make_shared<Ping>(),
                            [&](bool ok) { ok_asleep = ok; });
    w.simulator().run_until(w.simulator().now() + sim::kSecond);
    EXPECT_FALSE(ok_asleep);
    EXPECT_EQ(received, 0);

    // ...but waking restores the node as it was: handlers intact, NOT
    // duplicated, and no spawn listener fired (sleep is not a rejoin).
    ASSERT_TRUE(w.wake_node(b));
    EXPECT_TRUE(w.awake(b));
    bool ok_awake = false;
    w.stack(a).send_unicast(b, std::make_shared<Ping>(),
                            [&](bool ok) { ok_awake = ok; });
    w.simulator().run_until(w.simulator().now() + sim::kSecond);
    EXPECT_TRUE(ok_awake);
    EXPECT_EQ(received, 1);  // exactly once: no duplicate handler
    EXPECT_EQ(spawn_fires, 0);
}

// Named regression (satellite 1): a node that depletes (or crashes) while
// asleep is dead, full stop. Before the fix a pending wake could
// resurrect it into a half-started zombie.
TEST(WorldSleep, DepleteWhileAsleepStaysDead) {
    net::World w(sleep_world());
    w.start();
    const util::NodeId victim = 7;
    w.sleep_node(victim);
    ASSERT_TRUE(w.asleep(victim));
    w.fail_node(victim);  // battery died mid-nap
    EXPECT_FALSE(w.alive(victim));
    EXPECT_FALSE(w.asleep(victim));  // dead supersedes asleep
    EXPECT_FALSE(w.wake_node(victim));
    EXPECT_FALSE(w.alive(victim));
    EXPECT_FALSE(w.awake(victim));
}

TEST(WorldSleep, SendFromAsleepNodeFails) {
    net::World w(sleep_world());
    w.start();
    const util::NodeId a = 0;
    const auto neighbors = w.physical_neighbors(a);
    ASSERT_FALSE(neighbors.empty());
    w.sleep_node(a);
    bool ok = true;
    w.stack(a).send_unicast(neighbors.front(), std::make_shared<Ping>(),
                            [&](bool r) { ok = r; });
    w.simulator().run_until(w.simulator().now() + sim::kSecond);
    EXPECT_FALSE(ok);
}

TEST(WorldSleep, BroadcastSkipsSleepers) {
    net::World w(sleep_world());
    w.start();
    const auto neighbors = w.physical_neighbors(0);
    ASSERT_GE(neighbors.size(), 2u);
    int received = 0;
    for (const util::NodeId v : neighbors) {
        w.stack(v).add_app_handler(
            [&](util::NodeId, util::NodeId, const net::AppMsgPtr&) {
                ++received;
                return true;
            });
    }
    w.sleep_node(neighbors.front());
    w.stack(0).send_broadcast(std::make_shared<Ping>());
    w.simulator().run_until(w.simulator().now() + sim::kSecond);
    EXPECT_EQ(static_cast<std::size_t>(received), neighbors.size() - 1);
}

// ---------------------------------------------------------------------------
// QuorumRefresher: defer, don't refresh, while the owner sleeps.

// Named regression (satellite 2): a refresh tick that catches the owner
// asleep used to "refresh" anyway — every advertise died on the sleeping
// radio while the tick still counted as performed and fired on_refresh_
// (evicting svc caches for nothing). It must defer on a short fuse and
// land shortly after the node wakes.
TEST(Refresher, DefersWhileOwnerAsleep) {
    net::World w(sleep_world(80, 3));
    membership::OracleMembership membership(w);
    core::BiquorumSpec spec;
    spec.eps = 0.1;
    core::LocationService service(w, spec, &membership);
    w.start();

    const util::NodeId owner = 4;
    service.record_published(owner, 42, 1001);

    core::QuorumRefresher::Params rp;
    rp.explicit_interval = 2 * sim::kSecond;
    core::QuorumRefresher refresher(service, rp);
    int refresh_events = 0;
    refresher.set_on_refresh([&](util::NodeId) { ++refresh_events; });
    refresher.start_node(owner);

    w.sleep_node(owner);
    ASSERT_TRUE(w.asleep(owner));
    w.simulator().run_until(w.simulator().now() + 3 * sim::kSecond);
    EXPECT_EQ(refresher.refreshes_performed(), 0u);
    EXPECT_GT(w.kernel_stats().refreshes_deferred, 0u);
    EXPECT_EQ(refresh_events, 0);

    // Wake: the deferred retry (interval/10 fuse) fires well before a
    // full interval would have.
    ASSERT_TRUE(w.wake_node(owner));
    w.simulator().run_until(w.simulator().now() + sim::kSecond);
    EXPECT_GE(refresher.refreshes_performed(), 1u);
    EXPECT_GE(refresh_events, 1);
}

// ---------------------------------------------------------------------------
// Timed quorums: lease expiry end to end.

struct LeaseFixture : ::testing::Test {
    std::unique_ptr<net::World> world;
    std::unique_ptr<membership::OracleMembership> membership;
    std::unique_ptr<core::BiquorumSystem> bq;

    core::BiquorumSystem& build(sim::Time lease, std::uint64_t seed = 5) {
        net::WorldParams p;
        p.n = 80;
        p.seed = seed;
        p.oracle_neighbors = true;
        world = std::make_unique<net::World>(p);
        membership = std::make_unique<membership::OracleMembership>(*world);
        core::BiquorumSpec spec;
        spec.eps = 0.05;
        bq = std::make_unique<core::BiquorumSystem>(*world, spec,
                                                    membership.get());
        bq->context().value_lease = lease;
        world->start();
        return *bq;
    }

    std::size_t holders(util::Key key) const {
        std::size_t count = 0;
        for (const core::LocalStore& s : bq->context().stores) {
            count += s.has(key) ? 1 : 0;
        }
        return count;
    }

    void drive(bool& done, sim::Time budget = 60 * sim::kSecond) {
        const sim::Time deadline = world->simulator().now() + budget;
        while (!done && world->simulator().now() < deadline &&
               world->simulator().step()) {
        }
    }
};

TEST_F(LeaseFixture, ExpiryEvictsEveryCopy) {
    core::BiquorumSystem& sys = build(5 * sim::kSecond);
    bool done = false;
    sys.advertise(1, 77, 123,
                  [&](const core::AccessResult& r) {
                      EXPECT_TRUE(r.ok);
                      done = true;
                  });
    drive(done);
    ASSERT_TRUE(done);
    ASSERT_GT(holders(77), 0u);
    EXPECT_GT(sys.context().leases.pending(), 0u);

    world->simulator().run_until(world->simulator().now() +
                                 10 * sim::kSecond);
    EXPECT_EQ(holders(77), 0u);
    EXPECT_EQ(sys.context().leases.pending(), 0u);
    EXPECT_GT(sys.context().leases.expirations(), 0u);
    EXPECT_EQ(world->kernel_stats().lease_expirations,
              sys.context().leases.expirations());

    // A post-expiry lookup misses: the value is gone system-wide.
    bool looked = false;
    sys.lookup(2, 77, [&](const core::AccessResult& r) {
        EXPECT_FALSE(r.ok);
        looked = true;
    });
    drive(looked);
    EXPECT_TRUE(looked);
}

TEST_F(LeaseFixture, ReAdvertiseExtendsLease) {
    core::BiquorumSystem& sys = build(5 * sim::kSecond);
    bool done = false;
    sys.advertise(1, 88, 1, [&](const core::AccessResult&) { done = true; });
    drive(done);
    ASSERT_GT(holders(88), 0u);

    // t=3s: re-advertise; holders re-arm to expire ~8s+.
    world->simulator().run_until(3 * sim::kSecond);
    done = false;
    sys.advertise(1, 88, 2, [&](const core::AccessResult&) { done = true; });
    drive(done);

    // t=6s: past the original deadline, inside the extended one.
    world->simulator().run_until(6 * sim::kSecond);
    EXPECT_GT(holders(88), 0u);

    // t=20s: well past every lease.
    world->simulator().run_until(20 * sim::kSecond);
    EXPECT_EQ(holders(88), 0u);
}

// Satellite 3: a lease expiring between a lookup's launch and its resolve
// must not corrupt the op. Replies already in flight still deliver
// (snapshot semantics); the expiry lands as a clean miss for later
// lookups. Run under ASan/DCHECKS this is also a lifetime check on the
// expiry events racing the reply path.
TEST_F(LeaseFixture, ExpiryRacesInFlightLookup) {
    core::BiquorumSystem& sys = build(2 * sim::kSecond);
    bool done = false;
    sys.advertise(1, 99, 7, [&](const core::AccessResult&) { done = true; });
    drive(done);
    ASSERT_GT(holders(99), 0u);

    // Launch the lookup just before the holders' leases run out, so the
    // expiries fire while probes and replies are mid-flight.
    world->simulator().run_until(1900 * sim::kMillisecond);
    bool resolved = false;
    sys.lookup(2, 99, [&](const core::AccessResult&) { resolved = true; });
    drive(resolved);
    EXPECT_TRUE(resolved);

    // Whatever the race decided, the value is gone afterwards.
    world->simulator().run_until(world->simulator().now() +
                                 5 * sim::kSecond);
    EXPECT_EQ(holders(99), 0u);
    bool missed = false;
    sys.lookup(3, 99, [&](const core::AccessResult& r) {
        EXPECT_FALSE(r.ok);
        missed = true;
    });
    drive(missed);
    EXPECT_TRUE(missed);
}

// ---------------------------------------------------------------------------
// Scenario integration: energy knobs, metrics, and off-is-off.

core::ScenarioParams energy_scenario(std::uint64_t seed = 11) {
    core::ScenarioParams p;
    p.world.n = 64;
    p.world.seed = seed;
    p.world.oracle_neighbors = true;
    p.spec.eps = 0.1;
    p.advertise_count = 10;
    p.lookup_count = 40;
    p.lookup_nodes = 8;
    p.warmup = 2 * sim::kSecond;
    p.op_spacing = 100 * sim::kMillisecond;
    return p;
}

TEST(EnergyScenario, DisabledKnobsDoNotLeak) {
    // enabled=false must gate every other energy knob: golden fingerprints
    // stay bit-identical no matter what duty/battery values ride along.
    const core::ScenarioResult a = run_scenario(energy_scenario());
    core::ScenarioParams p = energy_scenario();
    p.world.energy.enabled = false;
    p.world.energy.duty = 0.25;
    p.world.energy.battery_j = 0.01;
    const core::ScenarioResult b = run_scenario(p);
    core::expect_same_results(a, b);
}

TEST(EnergyScenario, DutyCycledRunReportsEnergyMetrics) {
    core::ScenarioParams p = energy_scenario(13);
    p.world.energy.enabled = true;
    p.world.energy.duty = 0.6;
    p.world.energy.period = sim::kSecond;
    const core::ScenarioResult r = run_scenario(p);
    EXPECT_DOUBLE_EQ(r.aborted, 0.0);
    EXPECT_GT(r.energy_consumed_j, 0.0);
    EXPECT_GT(r.joules_per_lookup, 0.0);
    EXPECT_GT(r.kernel.energy_sleep_transitions, 0u);
    EXPECT_EQ(r.kernel.energy_depletions, 0u);  // infinite battery
    EXPECT_EQ(r.time_to_first_partition_s, -1.0);
    EXPECT_EQ(r.time_to_half_depletion_s, -1.0);
    // The system still works while 40% of radios nap at any instant.
    EXPECT_GT(r.hit_ratio, 0.1);
    // And pays for it relative to the always-on run.
    core::ScenarioParams full = energy_scenario(13);
    full.world.energy.enabled = true;
    full.world.energy.duty = 1.0;
    const core::ScenarioResult r1 = run_scenario(full);
    EXPECT_GE(r1.hit_ratio, r.hit_ratio);
}

// Satellite 3: battery depletion mid-operation censors in-flight work
// into the timeout/miss accounting instead of wedging the driver —
// the energy-model face of the PR-9 horizon-censoring tests.
TEST(EnergyScenario, DepletionMidRunCensorsIntoTimeouts) {
    core::ScenarioParams p = energy_scenario(17);
    p.world.energy.enabled = true;
    p.world.energy.duty = 1.0;
    // Batteries sized to die during the lookup phase: warmup (2s) +
    // advertise (~1s) + part of the lookup train.
    p.world.energy.battery_j = 0.0564 * 5.0;
    p.op_timeout = 5 * sim::kSecond;
    const core::ScenarioResult r = run_scenario(p);
    EXPECT_GT(r.kernel.energy_depletions, 0u);
    // The whole population eventually browns out...
    EXPECT_GT(r.time_to_half_depletion_s, 0.0);
    // ...and the driver still terminates with every lookup accounted:
    // hits + misses + timeouts, never a hang (run_scenario returning at
    // all is the liveness half of this regression).
    EXPECT_LT(r.hit_ratio, 1.0);
    EXPECT_LE(r.hit_ratio + r.timeout_rate, 1.0 + 1e-9);
}

TEST(EnergyScenario, LeaseExpirationsSurfaceInMetrics) {
    core::ScenarioParams p = energy_scenario(19);
    p.value_lease = 3 * sim::kSecond;  // shorter than the lookup train
    const core::ScenarioResult r = run_scenario(p);
    EXPECT_GT(r.kernel.lease_expirations, 0u);
    // Expired values cost availability (keys die before their lookups).
    const core::ScenarioResult eternal = run_scenario(energy_scenario(19));
    EXPECT_LT(r.hit_ratio, eternal.hit_ratio);
}

}  // namespace
}  // namespace pqs
