// Pending-event set for the discrete-event simulator. The hot path of
// every experiment funnels through schedule/pop, so the structure is
// built for events/sec:
//
//   - a slab of event slots holds each callback inline (EventFn is a
//     64-byte small-buffer callable — no per-event heap allocation on
//     the common path) and recycles slots through a free list;
//   - a flat 4-ary min-heap orders (time, seq) keys with 8-byte slot
//     references — shallower than a binary heap and cache-friendlier
//     than std::priority_queue's pair-of-containers indirection;
//   - cancellation is O(1): the slot (and its callback) is reclaimed
//     eagerly, while the heap entry is lazily dropped when it reaches
//     the root, detected by a slot generation mismatch;
//   - same-time runs: an event scheduled into the heap path at the same
//     time as the event scheduled just before it (so with the next
//     sequence number) joins that event's heap entry as one more item of
//     a run instead of taking an entry of its own. The channel's
//     fan-out — one frame_end per listening radio, all at one instant —
//     thus costs one heap push and one pop instead of ~170. A run's
//     sequence numbers are contiguous, so no other entry can sort
//     between its items: the run drains at the root in seq order with no
//     sift, and the pop order is exactly the single-entry heap's;
//   - a calendar tier fronts the heap for far-future events (mobility
//     leg ends, heartbeat cycles, refresh timers): entries landing more
//     than a bucket past the migration cursor are parked in a ring of
//     one-second buckets (plus an overflow list beyond the ring's
//     horizon) and only enter the heap — in one batch, keeping their
//     original sequence numbers — when the cursor reaches their bucket.
//     The heap thus stays sized to the near horizon no matter how many
//     idle-node timers a 100k-node world keeps pending.
//
// FIFO ordering among same-time events is preserved exactly via the
// scheduling sequence number: a bucket is migrated whenever the heap's
// earliest time reaches the bucket's base, so every (time, seq) compare
// still happens inside the heap and the pop order is identical to a
// single-heap implementation (guarded by tests/test_event_queue_model.cpp,
// tests/test_calendar_queue.cpp and the golden determinism test).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.h"
#include "util/inline_function.h"
#include "util/kernel_stats.h"

namespace pqs::sim {

// Event ids encode (slot generation << 32 | slot index); generations
// start at 1, so no valid id collides with kInvalidEvent.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;

// Small-buffer callback: every scheduling lambda in the stack (captures
// of `this`, a PacketPtr, a couple of ids, or a moved-in continuation)
// fits in 64 bytes inline. Oversized closures fall back to one heap
// allocation, counted in KernelStats::callback_heap_allocs.
using EventFn = util::InlineFunction<void(), 64>;

class EventQueue {
public:
    // Nested aliases so generic drivers (benches, differential tests) can
    // be templated over interchangeable queue implementations.
    using EventId = sim::EventId;
    using EventFn = sim::EventFn;

    // Schedules `fn` at absolute time `when`. Events with equal time fire in
    // scheduling order.
    EventId schedule(Time when, EventFn fn);

    // Cancels a pending event. Returns false if the event already fired or
    // was already cancelled. The slot and its callback are reclaimed
    // immediately; only the 24-byte heap key lingers until popped.
    bool cancel(EventId id);

    bool empty() const { return live_count_ == 0; }
    std::size_t size() const { return live_count_; }

    // Time of the earliest pending event; kTimeNever when empty.
    Time next_time() const;

    struct Fired {
        Time time;
        EventFn fn;
    };

    // Removes and returns the earliest pending event. Queue must be
    // non-empty.
    Fired pop();

    // Kernel counters (scheduled/fired/cancelled, heap ops, slab reuse);
    // deterministic for a fixed simulation seed.
    const util::KernelStats& stats() const { return stats_; }

    // Number of slab slots currently on the free list (reclaimed and
    // awaiting reuse) — observable slab hygiene for tests.
    std::size_t free_slots() const { return free_count_; }

private:
    static constexpr std::uint32_t kNoFreeSlot = 0xffffffffu;

    struct Slot {
        EventFn fn;
        // Bumped every time the slot is reclaimed; a heap entry whose
        // generation no longer matches is a cancelled/fired tombstone.
        std::uint32_t generation = 1;
        std::uint32_t next_free = kNoFreeSlot;
    };

    // A heap entry names one event slot, or — with kRunBit set in `ref`
    // — a run of same-time events; a run entry's key is its first item's
    // (time, seq) and its `generation` is unused. Slot indices never reach
    // the bit (2^31 slots would take over 100 GiB of slab).
    static constexpr std::uint32_t kRunBit = 0x80000000u;

    struct HeapEntry {
        Time time;
        std::uint64_t seq;
        std::uint32_t ref;
        std::uint32_t generation;
    };

    struct RunItem {
        std::uint32_t slot;
        std::uint32_t generation;
    };

    // Items of one run in seq order; `next` is the first not yet fired
    // or skipped. A run in the heap always has next < items.size().
    struct Run {
        std::vector<RunItem> items;
        std::size_t next = 0;
    };

    static bool precedes(const HeapEntry& a, const HeapEntry& b) {
        if (a.time != b.time) return a.time < b.time;
        return a.seq < b.seq;
    }

    static bool is_run(const HeapEntry& e) { return (e.ref & kRunBit) != 0; }
    static std::uint32_t run_of(const HeapEntry& e) {
        return e.ref & ~kRunBit;
    }

    bool item_live(std::uint32_t slot, std::uint32_t generation) const {
        return slab_[slot].generation == generation;
    }

    // Calendar geometry: one-second buckets, 4096-bucket ring (a ~68 min
    // rolling horizon; heartbeats, leg ends and refresh timers all land
    // inside it). Events beyond the ring wait in the overflow list.
    static constexpr Time kBucketWidth = 1'000'000'000;  // 1 s in ns
    static constexpr std::size_t kRingBuckets = 4096;

    static constexpr std::size_t kNoOpenEntry = ~std::size_t{0};

    std::uint32_t acquire_slot();
    void release_slot(std::uint32_t slot);
    // Appends the slot to the heap entry the previous schedule() pushed,
    // turning a single entry into a run on its second item.
    void append_to_open_entry(std::uint32_t slot, std::uint32_t generation);
    // Both close the open entry, which a sift may move; heap_push
    // returns the pushed entry's final index.
    std::size_t heap_push(HeapEntry entry) const;
    void heap_pop_root() const;
    // Drops cancelled tombstones (single entries and run items) off the
    // root so the root's next event is live.
    void drop_stale() const;

    static std::int64_t bucket_of(Time when) {
        return when >= 0 ? when / kBucketWidth : -1;
    }
    std::size_t calendar_size() const {
        return ring_count_ + overflow_.size();
    }
    Time next_bucket_base() const;
    // Promotes calendar buckets into the heap until the heap's earliest
    // live entry precedes every still-parked bucket.
    void migrate_due_buckets() const;
    void advance_one_bucket() const;
    // Re-files overflow entries that now fall inside the ring window.
    void drain_overflow() const;

    // The heap, calendar and counters are mutable because next_time() —
    // logically const — physically compacts tombstones away from the
    // root and promotes due calendar buckets.
    mutable std::vector<HeapEntry> heap_;
    mutable std::vector<std::vector<HeapEntry>> ring_{kRingBuckets};
    mutable std::vector<HeapEntry> overflow_;
    mutable std::vector<HeapEntry> overflow_scratch_;
    // Runs live in a recycled pool so their item buffers keep capacity.
    mutable std::vector<Run> runs_;
    mutable std::vector<std::uint32_t> free_runs_;
    // Heap index of the entry the latest schedule() pushed or appended
    // to, while no other push or pop has moved the heap since; the next
    // schedule() at the same time joins it.
    mutable std::size_t open_entry_ = kNoOpenEntry;
    mutable std::size_t ring_count_ = 0;
    mutable std::int64_t cursor_bucket_ = 0;  // buckets <= cursor are migrated
    mutable std::int64_t ring_base_ = 0;      // ring covers [base, base+N)
    mutable std::int64_t overflow_min_bucket_ = 0;
    std::vector<Slot> slab_;
    std::uint32_t free_head_ = kNoFreeSlot;
    std::size_t free_count_ = 0;
    std::size_t live_count_ = 0;
    std::uint64_t next_seq_ = 0;
    mutable util::KernelStats stats_;
};

}  // namespace pqs::sim
