// Differential test for the slab-backed 4-ary-heap EventQueue: drives the
// production queue and a naive reference model (a sorted vector) with
// seeded random schedule/cancel/pop scripts and requires exact agreement
// on firing order, next_time() and size() after every step. This is the
// merge gate for any kernel rewrite — if the heap, the tombstone logic or
// the FIFO tie-break regress, some script here diverges.
#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "queue_model.h"
#include "util/rng.h"

namespace pqs::sim {
namespace {

// One random script: `ops` weighted schedule/cancel/pop steps. Pops are
// legal at any point (the simulator run loop interleaves them with
// schedules), so this exercises heap/tombstone interleavings the seed
// fuzz test (test_sim.cpp) deliberately avoided. A schedule step issues a
// burst of `max_burst` or fewer events at one time — a same-time run —
// and, with `follow_ups`, a firing event schedules a zero-delay
// follow-up now and then, as simulator callbacks do.
void run_script(std::uint64_t seed, int ops, std::uint64_t max_burst = 1,
                bool follow_ups = false) {
    util::Rng rng(seed);
    Lockstep q;
    if (follow_ups) {
        q.on_fire = [&q, &rng](std::size_t) {
            if (rng.uniform01() < 0.3) {
                q.schedule(q.now);
            }
        };
    }

    for (int op = 0; op < ops; ++op) {
        const double dice = rng.uniform01();
        if (dice < 0.50) {
            const Time when =
                q.now + static_cast<Time>(rng.uniform_u64(10000));
            const std::uint64_t burst =
                max_burst > 1 ? 1 + rng.uniform_u64(max_burst) : 1;
            for (std::uint64_t i = 0; i < burst; ++i) {
                q.schedule(when);
            }
        } else if (dice < 0.70) {
            // Cancel a random previously-issued id (may already be gone).
            if (!q.ids_real.empty()) {
                q.cancel(rng.index(q.ids_real.size()));
            }
        } else {
            // Pops keep pace with bursts so the queue stays bounded.
            const std::uint64_t pops =
                max_burst > 1 ? 1 + rng.uniform_u64(2 * max_burst) : 1;
            for (std::uint64_t i = 0; i < pops && !q.model.empty(); ++i) {
                ASSERT_NO_FATAL_FAILURE(q.pop_and_check());
            }
        }
        ASSERT_NO_FATAL_FAILURE(q.expect_agree())
            << "diverged at op " << op << " seed " << seed;
    }

    q.drain();
    EXPECT_THROW(q.queue.pop(), std::logic_error);
}

TEST(EventQueueModel, TenThousandStepScripts) {
    // 10k-op scripts across independent seeds; together with the drain
    // phase this crosses well past 10^5 compared operations.
    for (const std::uint64_t seed : {1ULL, 42ULL, 0xdeadbeefULL,
                                     0x5eedULL, 77ULL}) {
        run_script(seed, 10000);
    }
}

TEST(EventQueueModel, SameTimeBurstKeepsFifo) {
    // Heavy tie-breaking: many events at identical times, random cancels.
    util::Rng rng(3);
    Lockstep q;
    for (int i = 0; i < 2000; ++i) {
        q.schedule(static_cast<Time>(rng.uniform_u64(5)));  // 0..4
    }
    for (int i = 0; i < 500; ++i) {
        q.cancel(rng.index(q.ids_real.size()));
    }
    q.drain();
}

TEST(EventQueueRuns, RandomBurstScripts) {
    // Same-time bursts of 1..300 events mixed with pops, cancels (which hit
    // run heads, middles and tails at random) and zero-delay follow-ups
    // scheduled from inside firing runs.
    for (const std::uint64_t seed : {5ULL, 19ULL, 0xb0257ULL}) {
        run_script(seed, 400, 300, true);
    }
}

TEST(EventQueueRuns, BurstOfEachSizeCostsOneHeapEntry) {
    // A contiguous burst of k same-time events is one heap push and one
    // root removal, whatever k is, and fires in scheduling order.
    for (const int k : {1, 2, 3, 17, 170, 300}) {
        Lockstep q;
        q.schedule(0);  // an earlier single, so the run is not alone
        for (int i = 0; i < k; ++i) {
            q.schedule(100);
        }
        EXPECT_EQ(q.queue.stats().heap_pushes, 2u) << "k=" << k;
        q.drain();
        EXPECT_EQ(q.queue.stats().heap_pops, 2u) << "k=" << k;
        EXPECT_EQ(q.queue.stats().events_fired,
                  static_cast<std::uint64_t>(k + 1));
        EXPECT_EQ(q.queue.free_slots(), static_cast<std::size_t>(k + 1));
    }
}

TEST(EventQueueRuns, InterleavedTimesBreakRuns) {
    // Runs form only between consecutive schedules: t1 t1 t2 t1 t1 is
    // three entries, and the two t1 runs still fire in seq order.
    Lockstep q;
    for (const Time when : {10, 10, 20, 10, 10, 5, 5, 5, 20}) {
        q.schedule(when);
    }
    EXPECT_EQ(q.queue.stats().heap_pushes, 5u);
    q.drain();
}

TEST(EventQueueRuns, CancelsAtHeadMiddleTailAndWholeRun) {
    Lockstep q;
    for (int i = 0; i < 10; ++i) {
        q.schedule(50);  // events 0..9: one run
    }
    for (int i = 0; i < 6; ++i) {
        q.schedule(60);  // events 10..15: a second run
    }
    q.schedule(70);  // event 16: a single after them
    EXPECT_TRUE(q.cancel(0));  // head
    EXPECT_TRUE(q.cancel(4));  // middle
    EXPECT_TRUE(q.cancel(5));  // adjacent middle
    EXPECT_TRUE(q.cancel(9));  // tail
    EXPECT_FALSE(q.cancel(9));  // twice is a no-op
    for (std::size_t i = 10; i < 16; ++i) {
        EXPECT_TRUE(q.cancel(i));  // the whole second run
    }
    ASSERT_NO_FATAL_FAILURE(q.expect_agree());
    EXPECT_EQ(q.queue.size(), 7u);
    // Cancelled items are reclaimed at once; nothing fires for them.
    EXPECT_EQ(q.queue.free_slots(), 10u);
    q.drain();
    EXPECT_EQ(q.fired_log.size(), 7u);
    // Each cancelled item is skipped once, like a popped tombstone.
    EXPECT_EQ(q.queue.stats().stale_drops, 10u);
    EXPECT_EQ(q.queue.size(), 0u);
    EXPECT_EQ(q.queue.free_slots(), 17u);
}

TEST(EventQueueRuns, CancelInsideFiringRun) {
    // A firing item cancels a later item of its own run, and an item
    // whose slot was recycled by a fresh schedule stays dead.
    Lockstep q;
    for (int i = 0; i < 8; ++i) {
        q.schedule(30);
    }
    q.on_fire = [&q](std::size_t index) {
        if (index == 1) {
            EXPECT_TRUE(q.cancel(6));
            q.schedule(q.now + 5);  // reuses event 6's slot
        }
        if (index == 2) {
            EXPECT_FALSE(q.cancel(1));  // already fired
        }
    };
    q.drain();
    EXPECT_EQ(q.fired_log.size(), 8u);
    EXPECT_EQ(q.queue.free_slots(), 8u);
}

TEST(EventQueueRuns, ZeroDelaySchedulesFromInsideARun) {
    // Every item of a 50-item run schedules one follow-up at the same
    // instant. With nothing scheduled in between, each follow-up joins
    // the run being drained, and all of them fire after the original 50,
    // in order.
    Lockstep q;
    for (int i = 0; i < 50; ++i) {
        q.schedule(1000);
    }
    q.on_fire = [&q](std::size_t index) {
        if (index < 50) {
            q.schedule(q.now);
        }
    };
    q.drain();
    EXPECT_EQ(q.fired_log.size(), 100u);
    EXPECT_EQ(q.queue.stats().heap_pushes, 1u);
    // Each follow-up reuses the slot its parent released on firing.
    EXPECT_EQ(q.queue.free_slots(), 50u);
}

TEST(EventQueueSlab, MassCancelReclaimsEagerly) {
    // Satellite fix check: cancelling must reclaim the slot *and destroy
    // the callback* immediately — not when the tombstone is popped. A
    // shared_ptr captured by every callback makes destruction observable.
    EventQueue queue;
    auto sentinel = std::make_shared<int>(7);
    std::vector<EventId> ids;
    constexpr int kEvents = 10000;
    for (int i = 0; i < kEvents; ++i) {
        ids.push_back(queue.schedule(
            static_cast<Time>(i), [sentinel] { (void)*sentinel; }));
    }
    EXPECT_EQ(sentinel.use_count(), 1 + kEvents);
    for (const EventId id : ids) {
        EXPECT_TRUE(queue.cancel(id));
    }
    // Every callback (and its captured shared_ptr) is gone although no
    // event was ever popped.
    EXPECT_EQ(sentinel.use_count(), 1);
    EXPECT_EQ(queue.size(), 0u);
    EXPECT_TRUE(queue.empty());
    EXPECT_EQ(queue.free_slots(), static_cast<std::size_t>(kEvents));
    EXPECT_EQ(queue.stats().events_cancelled,
              static_cast<std::uint64_t>(kEvents));

    // Scheduling the same volume again reuses the reclaimed slots instead
    // of growing the slab.
    for (int i = 0; i < kEvents; ++i) {
        queue.schedule(static_cast<Time>(i), [] {});
    }
    EXPECT_EQ(queue.free_slots(), 0u);
    EXPECT_EQ(queue.stats().slab_reuses,
              static_cast<std::uint64_t>(kEvents));
    // Old ids are stale: every cancel must fail even though the slots are
    // live again under new generations.
    for (const EventId id : ids) {
        EXPECT_FALSE(queue.cancel(id));
    }
    EXPECT_EQ(queue.size(), static_cast<std::size_t>(kEvents));
}

TEST(EventQueueSlab, OversizedCallbackFallsBackToHeap) {
    // A closure larger than the 64-byte inline buffer still works — it
    // just costs one heap allocation, visible in the stats.
    EventQueue queue;
    struct Big {
        std::uint64_t payload[12] = {};
    };
    Big big;
    big.payload[11] = 99;
    std::uint64_t seen = 0;
    queue.schedule(1, [big, &seen] { seen = big.payload[11]; });
    EXPECT_EQ(queue.stats().callback_heap_allocs, 1u);
    auto fired = queue.pop();
    fired.fn();
    EXPECT_EQ(seen, 99u);
}

TEST(EventQueueSlab, InlineFunctionMoveSemantics) {
    // EventFn itself: inline storage for small closures, correct
    // move/relocate behaviour, and callable-through-move.
    int hits = 0;
    EventFn fn = [&hits] { ++hits; };
    EXPECT_TRUE(fn.is_inline());
    EXPECT_TRUE(static_cast<bool>(fn));
    EventFn moved = std::move(fn);
    EXPECT_FALSE(static_cast<bool>(fn));  // NOLINT(bugprone-use-after-move)
    moved();
    EXPECT_EQ(hits, 1);
    moved = EventFn{};
    EXPECT_FALSE(static_cast<bool>(moved));
}

}  // namespace
}  // namespace pqs::sim
