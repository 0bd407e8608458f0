// Golden determinism test: one small fixed-seed full-stack scenario whose
// integer-valued outcome fingerprint (event counts, kernel counters, hit
// counts) is asserted verbatim. Any change to the event queue, RNG
// consumption order, grid, MAC, routing or quorum strategies that alters
// behaviour shows up here as an exact diff.
//
// If a PR changes these numbers *intentionally* (e.g. a protocol fix that
// legitimately reorders events), update the constants below and justify
// the new fingerprint in the PR body — never update them to silence an
// unexplained diff, because that is exactly the regression this test
// exists to catch.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <ostream>

#include "core/scenario.h"
#include "obs/trace.h"
#include "same_results.h"

namespace pqs::core {
namespace {

struct Fingerprint {
    std::uint64_t sim_events = 0;
    std::uint64_t events_scheduled = 0;
    std::uint64_t events_fired = 0;
    std::uint64_t events_cancelled = 0;
    std::uint64_t callback_heap_allocs = 0;
    std::uint64_t grid_queries = 0;
    std::uint64_t grid_moves = 0;
    std::uint64_t grid_cell_crossings = 0;
    std::uint64_t advertise_quorum = 0;
    std::uint64_t lookup_quorum = 0;
    std::uint64_t hits = 0;        // hit_ratio * lookup_count, exact
    std::uint64_t intersects = 0;  // intersect_ratio * lookup_count, exact
    std::uint64_t msgs_total = 0;  // world total transmissions, exact

    bool operator==(const Fingerprint& o) const {
        return sim_events == o.sim_events &&
               events_scheduled == o.events_scheduled &&
               events_fired == o.events_fired &&
               events_cancelled == o.events_cancelled &&
               callback_heap_allocs == o.callback_heap_allocs &&
               grid_queries == o.grid_queries &&
               grid_moves == o.grid_moves &&
               grid_cell_crossings == o.grid_cell_crossings &&
               advertise_quorum == o.advertise_quorum &&
               lookup_quorum == o.lookup_quorum && hits == o.hits &&
               intersects == o.intersects && msgs_total == o.msgs_total;
    }
};

// Printed on mismatch in copy-pasteable initializer form so an intended
// fingerprint change is a one-block paste (plus the PR-body rationale).
std::ostream& operator<<(std::ostream& os, const Fingerprint& f) {
    return os << "{\n"
              << "    .sim_events = " << f.sim_events << ",\n"
              << "    .events_scheduled = " << f.events_scheduled << ",\n"
              << "    .events_fired = " << f.events_fired << ",\n"
              << "    .events_cancelled = " << f.events_cancelled << ",\n"
              << "    .callback_heap_allocs = " << f.callback_heap_allocs
              << ",\n"
              << "    .grid_queries = " << f.grid_queries << ",\n"
              << "    .grid_moves = " << f.grid_moves << ",\n"
              << "    .grid_cell_crossings = " << f.grid_cell_crossings
              << ",\n"
              << "    .advertise_quorum = " << f.advertise_quorum << ",\n"
              << "    .lookup_quorum = " << f.lookup_quorum << ",\n"
              << "    .hits = " << f.hits << ",\n"
              << "    .intersects = " << f.intersects << ",\n"
              << "    .msgs_total = " << f.msgs_total << ",\n"
              << "}";
}

ScenarioParams golden_params() {
    // Small but full-stack: mobile nodes (exercises grid moves + cell
    // crossings + heartbeat cancels), realistic neighbor discovery, both
    // strategy kinds, and enough operations for stable integer counts.
    ScenarioParams p;
    p.world.n = 64;
    p.world.seed = 12345;
    p.world.oracle_neighbors = false;
    p.world.mobile = true;
    p.world.waypoint.min_speed = 0.5;
    p.world.waypoint.max_speed = 2.0;
    p.spec.advertise.kind = StrategyKind::kRandom;
    p.spec.lookup.kind = StrategyKind::kUniquePath;
    p.spec.eps = 0.1;
    p.advertise_count = 10;
    p.lookup_count = 30;
    p.lookup_nodes = 8;
    p.warmup = 12 * sim::kSecond;
    p.op_spacing = 100 * sim::kMillisecond;
    return p;
}

std::uint64_t to_count(double integral_valued) {
    return static_cast<std::uint64_t>(std::llround(integral_valued));
}

Fingerprint fingerprint_of(const ScenarioResult& r,
                           const ScenarioParams& p) {
    Fingerprint f;
    f.sim_events = r.kernel.events_fired;
    f.events_scheduled = r.kernel.events_scheduled;
    f.events_fired = r.kernel.events_fired;
    f.events_cancelled = r.kernel.events_cancelled;
    f.callback_heap_allocs = r.kernel.callback_heap_allocs;
    f.grid_queries = r.kernel.grid_queries;
    f.grid_moves = r.kernel.grid_moves;
    f.grid_cell_crossings = r.kernel.grid_cell_crossings;
    f.advertise_quorum = r.advertise_quorum;
    f.lookup_quorum = r.lookup_quorum;
    f.hits = to_count(r.hit_ratio * static_cast<double>(p.lookup_count));
    f.intersects =
        to_count(r.intersect_ratio * static_cast<double>(p.lookup_count));
    f.msgs_total = r.kernel.net_data_tx + r.kernel.net_routing_tx;
    return f;
}

// The golden values, captured on the reference toolchain (gcc, x86-64,
// this container). All fields are integer event/message counts — no
// floating-point comparisons — so they are stable across optimization
// levels and sanitizer builds of the same code.
const Fingerprint kGolden = {
    .sim_events = 12796,
    .events_scheduled = 13081,
    .events_fired = 12796,
    .events_cancelled = 157,
    .callback_heap_allocs = 0,
    .grid_queries = 4340,
    .grid_moves = 2944,
    .grid_cell_crossings = 10,
    .advertise_quorum = 13,
    .lookup_quorum = 13,
    .hits = 30,
    .intersects = 30,
    .msgs_total = 5447,
};

TEST(GoldenDeterminism, FixedSeedScenarioFingerprint) {
    const ScenarioParams p = golden_params();
    const Fingerprint got = fingerprint_of(run_scenario(p), p);
    EXPECT_TRUE(got == kGolden)
        << "scenario fingerprint changed.\nexpected " << kGolden
        << "\ngot      " << got
        << "\nIf the change is intended, update kGolden and justify the "
           "new numbers in the PR body.";
}

TEST(GoldenDeterminism, TracingOnPreservesFingerprint) {
    // The observability layer must be a pure observer: enabling tracing
    // (record but don't write — out_base empty) must not consume RNG,
    // schedule events, or otherwise perturb the run. The fingerprint with
    // tracing enabled must equal kGolden bit for bit.
    obs::TraceOptions opts;
    opts.enabled = true;
    opts.out_base.clear();
    opts.capacity = 1 << 16;
    const obs::TraceOptions prev = obs::set_trace_options(opts);
    const ScenarioParams p = golden_params();
    const Fingerprint got = fingerprint_of(run_scenario(p), p);
    obs::set_trace_options(prev);
    EXPECT_TRUE(got == kGolden)
        << "tracing perturbed the scenario.\nexpected " << kGolden
        << "\ngot      " << got;
}

TEST(GoldenDeterminism, HotPathsAllocationFree) {
    // Regression gate for the scale refactor's hot paths: a standard
    // scenario (no fail-fraction shuffle, no RAWMS prefill) must finish
    // with ZERO alive-node snapshot copies — every per-op draw goes
    // through AliveSet rank-select — zero heap-allocated callbacks, and a
    // recycling packet pool.
    const ScenarioParams p = golden_params();
    const ScenarioResult r = run_scenario(p);
    EXPECT_EQ(r.kernel.alive_snapshots, 0u);
    EXPECT_EQ(r.kernel.callback_heap_allocs, 0u);
    EXPECT_GT(r.kernel.packet_pool_reuses, 0u);
}

// Same scenario with closed-form (lazy) mobility. Lazy legs cannot be
// bit-identical to ticked ones (arrivals stop being quantized to the
// 500 ms tick), so the mode carries its own golden fingerprint.
const Fingerprint kGoldenLazy = {
    .sim_events = 9920,
    .events_scheduled = 10264,
    .events_fired = 9920,
    .events_cancelled = 157,
    .callback_heap_allocs = 0,
    .grid_queries = 4336,
    .grid_moves = 10,
    .grid_cell_crossings = 10,
    .advertise_quorum = 13,
    .lookup_quorum = 13,
    .hits = 29,
    .intersects = 29,
    .msgs_total = 5508,
};

TEST(GoldenDeterminism, LazyMobilityFingerprint) {
    ScenarioParams p = golden_params();
    p.world.waypoint.lazy = true;
    const Fingerprint got = fingerprint_of(run_scenario(p), p);
    EXPECT_TRUE(got == kGoldenLazy)
        << "lazy-mobility fingerprint changed.\nexpected " << kGoldenLazy
        << "\ngot      " << got
        << "\nIf the change is intended, update kGoldenLazy and justify "
           "the new numbers in the PR body.";
}

TEST(GoldenDeterminism, ByzantineHookQuiescentAtZero) {
    // The tamper hook is compiled into every build now; at byzantine.b ==
    // 0 it must be a dead pointer load. kGolden above (captured before
    // the hook existed and never re-tuned for it) is the proof the b = 0
    // event stream is bit-identical — this test adds the adversary-side
    // accounting: nothing marked, nothing tampered, no vote ever
    // inconclusive.
    const ScenarioResult r = run_scenario(golden_params());
    EXPECT_EQ(r.byzantine_marked, 0.0);
    EXPECT_EQ(r.kernel.byzantine_tampers, 0u);
    EXPECT_EQ(r.inconclusive_rate, 0.0);
}

// Adversarial golden run: the b = 2 companion of golden_params(). RANDOM
// on both sides (voting forces collect_all_replies), full membership
// view so masking-sized quorums are reachable, one retry. The adversary
// RNG is forked from the world seed, so this fingerprint is as stable as
// kGolden — it pins the tamper hook's RNG consumption and event
// ordering, not just its counters.
ScenarioParams adversarial_params() {
    ScenarioParams p = golden_params();
    p.spec.lookup.kind = StrategyKind::kRandom;
    p.spec.byzantine_b = 2;
    p.byzantine.b = 2;
    p.byzantine.mix = {sim::ByzantineBehavior::kLieFabricate,
                       sim::ByzantineBehavior::kDropReply,
                       sim::ByzantineBehavior::kLieStale,
                       sim::ByzantineBehavior::kReplay};
    p.membership_view = p.world.n;
    p.op_max_attempts = 2;
    return p;
}

const Fingerprint kGoldenByzantine = {
    .sim_events = 47692,
    .events_scheduled = 48528,
    .events_fired = 47692,
    .events_cancelled = 708,
    .callback_heap_allocs = 0,
    .grid_queries = 12218,
    .grid_moves = 14636,
    .grid_cell_crossings = 51,
    .advertise_quorum = 22,
    .lookup_quorum = 22,
    .hits = 30,  // voting masks both adversaries: every lookup still hits
    .intersects = 30,
    .msgs_total = 21552,
};

TEST(GoldenDeterminism, ByzantineScenarioFingerprint) {
    const ScenarioParams p = adversarial_params();
    const ScenarioResult r = run_scenario(p);
    const Fingerprint got = fingerprint_of(r, p);
    EXPECT_TRUE(got == kGoldenByzantine)
        << "adversarial fingerprint changed.\nexpected " << kGoldenByzantine
        << "\ngot      " << got
        << "\nIf the change is intended, update kGoldenByzantine and "
           "justify the new numbers in the PR body.";
    // Adversary accounting, pinned exactly.
    EXPECT_EQ(r.byzantine_marked, 2.0);
    EXPECT_EQ(r.kernel.byzantine_tampers, 14u);
}

TEST(GoldenDeterminism, ByzantineRepeatRunBitIdentical) {
    const ScenarioParams p = adversarial_params();
    const ScenarioResult a = run_scenario(p);
    const ScenarioResult b = run_scenario(p);
    EXPECT_TRUE(fingerprint_of(a, p) == fingerprint_of(b, p));
    expect_same_results(a, b);
}

TEST(GoldenDeterminism, RepeatRunBitIdentical) {
    // Independent of the hardcoded constants: two in-process runs of the
    // same seed must agree exactly (catches e.g. state leaking between
    // runs or iteration over pointer-keyed containers).
    const ScenarioParams p = golden_params();
    const Fingerprint a = fingerprint_of(run_scenario(p), p);
    const Fingerprint b = fingerprint_of(run_scenario(p), p);
    EXPECT_TRUE(a == b) << "expected " << a << "\ngot      " << b;
    // The allocation-free claim, end to end: every callback the full
    // stack schedules fits the inline buffer.
    EXPECT_EQ(a.callback_heap_allocs, 0u);
}

}  // namespace
}  // namespace pqs::core
