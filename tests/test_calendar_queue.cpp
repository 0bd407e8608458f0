// Differential test for the calendar tier in front of the EventQueue's
// slab heap: same sorted-vector reference model as
// test_event_queue_model.cpp, but the schedule horizons are chosen to
// keep events flowing through every calendar path — near-heap inserts,
// ring buckets, the overflow list past the 4096 s ring window, ring
// rebasing, the empty-ring jump, cancellation of parked entries, and
// equal-time ties exactly on bucket boundaries (where the FIFO seq
// tie-break must still be decided inside the heap).
#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <vector>

#include "queue_model.h"
#include "util/rng.h"

namespace pqs::sim {
namespace {

constexpr Time kSec = 1'000'000'000;

// Random script whose schedule deltas mix four horizons: sub-second
// (heap), tens of seconds (ring), a few thousand seconds (ring tail /
// rebase), and ~3 hours out (overflow, well past the 4096 s window).
// Boundary-aligned times (exact multiples of 1 s) are common by
// construction, so bucket-base ties get exercised constantly.
void run_script(std::uint64_t seed, int ops) {
    util::Rng rng(seed);
    Lockstep q;

    const auto pick_delta = [&rng]() -> Time {
        const double horizon = rng.uniform01();
        if (horizon < 0.35) {
            return static_cast<Time>(rng.uniform_u64(1000));  // heap tier
        }
        if (horizon < 0.60) {
            // Ring tier; ~1 in 60 lands exactly on a bucket boundary.
            return static_cast<Time>(rng.uniform_u64(60)) * kSec +
                   static_cast<Time>(rng.uniform_u64(3)) * (kSec / 2);
        }
        if (horizon < 0.85) {
            return static_cast<Time>(1000 + rng.uniform_u64(3500)) * kSec;
        }
        return static_cast<Time>(5000 + rng.uniform_u64(8000)) * kSec;
    };

    for (int op = 0; op < ops; ++op) {
        const double dice = rng.uniform01();
        if (dice < 0.50) {
            q.schedule(q.now + pick_delta());
        } else if (dice < 0.70) {
            if (!q.ids_real.empty()) {
                q.cancel(rng.index(q.ids_real.size()));
            }
        } else if (!q.model.empty()) {
            ASSERT_NO_FATAL_FAILURE(q.pop_and_check());
        }
        ASSERT_NO_FATAL_FAILURE(q.expect_agree())
            << "diverged at op " << op << " seed " << seed;
    }

    q.drain();

    // The horizons above guarantee the calendar actually participated.
    EXPECT_GT(q.queue.stats().calendar_pushes, 0u) << "seed " << seed;
    EXPECT_LE(q.queue.stats().calendar_migrations,
              q.queue.stats().calendar_pushes);
}

TEST(CalendarQueueModel, MixedHorizonScripts) {
    for (const std::uint64_t seed : {1ULL, 42ULL, 0xca1e4da5ULL,
                                     0x5eedULL, 77ULL}) {
        run_script(seed, 8000);
    }
}

TEST(CalendarQueueModel, BucketBoundaryTiesKeepFifo) {
    // Many events at the *same* boundary-aligned far-future instant,
    // scheduled from both tiers: half go in before the cursor reaches the
    // bucket (parked), half after a drain forces the cursor forward
    // (straight to the heap). Global FIFO by seq must still hold.
    Lockstep q;
    const Time tie = 2000 * kSec;
    for (int i = 0; i < 50; ++i) {
        q.schedule(tie);
    }
    // A near event pops first, pulling next_time() through the calendar.
    q.schedule(5);
    ASSERT_NO_FATAL_FAILURE(q.pop_and_check());
    // Force the cursor up to the tie bucket, then add late same-time
    // arrivals that must fire *after* every parked one.
    ASSERT_EQ(q.queue.next_time(), tie);
    for (int i = 0; i < 50; ++i) {
        q.schedule(tie);
    }
    q.drain();
}

TEST(CalendarQueueModel, RunTiedAtBucketBoundaryFiresAfterParkedEntries) {
    // Twenty events parked in the calendar at an exact bucket base; then,
    // once the cursor has moved up to that bucket, a same-time run of 30
    // scheduled from inside a firing event goes straight to the heap.
    // The parked entries hold the lower seqs, so all of them must fire
    // before any item of the run, and the run still fires in order.
    Lockstep q;
    const Time tie = 2 * kSec;
    for (int i = 0; i < 20; ++i) {
        q.schedule(tie);  // bucket 2 > cursor + 1: parked
    }
    EXPECT_EQ(q.queue.stats().calendar_pushes, 20u);
    q.schedule(kSec);  // bucket 1: heap path; its pop moves the cursor
    q.on_fire = [&q, tie](std::size_t index) {
        if (index == 20) {
            for (int i = 0; i < 30; ++i) {
                q.schedule(tie);
            }
        }
    };
    ASSERT_NO_FATAL_FAILURE(q.pop_and_check());
    EXPECT_EQ(q.queue.stats().calendar_pushes, 20u);  // the run: heap
    q.drain();
    EXPECT_EQ(q.fired_log.size(), 51u);
    EXPECT_EQ(q.queue.stats().calendar_migrations, 20u);
    // Every slot is free again: 50 were ever live at once (the run
    // reused the slot of the event that scheduled it).
    EXPECT_EQ(q.queue.size(), 0u);
    EXPECT_EQ(q.queue.free_slots(), 50u);
}

TEST(CalendarQueueModel, CancelledParkedEntriesNeverFire) {
    // Cancel every parked entry, then drain: nothing fires, and the
    // reclaimed slots are reused by fresh schedules.
    EventQueue queue;
    std::vector<EventId> ids;
    int fired_count = 0;
    for (int i = 0; i < 1000; ++i) {
        ids.push_back(queue.schedule(
            static_cast<Time>(10 + i % 7) * kSec + 100 * kSec,
            [&fired_count] { ++fired_count; }));
    }
    EXPECT_EQ(queue.stats().calendar_pushes, 1000u);
    for (const EventId id : ids) {
        EXPECT_TRUE(queue.cancel(id));
    }
    EXPECT_TRUE(queue.empty());
    EXPECT_EQ(queue.next_time(), kTimeNever);
    EXPECT_EQ(fired_count, 0);
    EXPECT_EQ(queue.free_slots(), 1000u);
}

TEST(CalendarQueueModel, EmptyRingJumpsToOverflow) {
    // Only one event, parked hours past the ring window: next_time() must
    // reach it without walking thousands of empty buckets (covered by the
    // jump path; correctness is what we assert, the walk would just be
    // slow).
    EventQueue queue;
    int fired_count = 0;
    const Time far = 30000 * kSec;  // ~8.3 h, far past the 4096 s ring
    queue.schedule(far, [&fired_count] { ++fired_count; });
    EXPECT_EQ(queue.stats().calendar_pushes, 1u);
    EXPECT_EQ(queue.next_time(), far);
    auto fired = queue.pop();
    EXPECT_EQ(fired.time, far);
    fired.fn();
    EXPECT_EQ(fired_count, 1);
    EXPECT_TRUE(queue.empty());

    // And again even further out: repeated jumps from a non-zero cursor.
    queue.schedule(40'000'000 * kSec, [&fired_count] { ++fired_count; });
    EXPECT_EQ(queue.next_time(), 40'000'000 * kSec);
    queue.pop().fn();
    EXPECT_EQ(fired_count, 2);
}

}  // namespace
}  // namespace pqs::sim
