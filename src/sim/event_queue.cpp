#include "sim/event_queue.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace pqs::sim {

namespace {

inline EventId make_id(std::uint32_t slot, std::uint32_t generation) {
    return (static_cast<EventId>(generation) << 32) |
           static_cast<EventId>(slot);
}

inline std::uint32_t id_slot(EventId id) {
    return static_cast<std::uint32_t>(id & 0xffffffffu);
}

inline std::uint32_t id_generation(EventId id) {
    return static_cast<std::uint32_t>(id >> 32);
}

}  // namespace

std::uint32_t EventQueue::acquire_slot() {
    if (free_head_ != kNoFreeSlot) {
        const std::uint32_t slot = free_head_;
        free_head_ = slab_[slot].next_free;
        slab_[slot].next_free = kNoFreeSlot;
        --free_count_;
        ++stats_.slab_reuses;
        return slot;
    }
    slab_.emplace_back();
    return static_cast<std::uint32_t>(slab_.size() - 1);
}

void EventQueue::release_slot(std::uint32_t slot) {
    Slot& s = slab_[slot];
    s.fn.reset();  // destroy the callback (and its captures) eagerly
    ++s.generation;
    s.next_free = free_head_;
    free_head_ = slot;
    ++free_count_;
}

void EventQueue::append_to_open_entry(std::uint32_t slot,
                                      std::uint32_t generation) {
    HeapEntry& open = heap_[open_entry_];
    if (!is_run(open)) {
        std::uint32_t index;
        if (free_runs_.empty()) {
            index = static_cast<std::uint32_t>(runs_.size());
            runs_.emplace_back();
        } else {
            index = free_runs_.back();
            free_runs_.pop_back();
        }
        Run& run = runs_[index];
        run.items.clear();
        run.next = 0;
        run.items.push_back(RunItem{open.ref, open.generation});
        open.ref = index | kRunBit;
    }
    // The key stays the first item's (time, seq), so the entry needs no
    // sift: this item's seq follows the run's last with nothing between.
    runs_[run_of(open)].items.push_back(RunItem{slot, generation});
}

std::size_t EventQueue::heap_push(HeapEntry entry) const {
    open_entry_ = kNoOpenEntry;
    // 4-ary sift-up: child i has parent (i - 1) / 4.
    std::size_t i = heap_.size();
    heap_.push_back(entry);
    ++stats_.heap_pushes;
    while (i > 0) {
        const std::size_t parent = (i - 1) / 4;
        if (!precedes(entry, heap_[parent])) {
            break;
        }
        heap_[i] = heap_[parent];
        ++stats_.heap_moves;
        i = parent;
    }
    heap_[i] = entry;
    return i;
}

void EventQueue::heap_pop_root() const {
    open_entry_ = kNoOpenEntry;
    ++stats_.heap_pops;
    const HeapEntry last = heap_.back();
    heap_.pop_back();
    if (heap_.empty()) {
        return;
    }
    // 4-ary sift-down of `last` from the root: children of i are
    // 4i + 1 .. 4i + 4.
    const std::size_t n = heap_.size();
    std::size_t i = 0;
    for (;;) {
        const std::size_t first_child = 4 * i + 1;
        if (first_child >= n) {
            break;
        }
        std::size_t best = first_child;
        const std::size_t last_child = std::min(first_child + 4, n);
        for (std::size_t c = first_child + 1; c < last_child; ++c) {
            if (precedes(heap_[c], heap_[best])) {
                best = c;
            }
        }
        if (!precedes(heap_[best], last)) {
            break;
        }
        heap_[i] = heap_[best];
        ++stats_.heap_moves;
        i = best;
    }
    heap_[i] = last;
}

void EventQueue::drop_stale() const {
    while (!heap_.empty()) {
        const HeapEntry& root = heap_[0];
        if (!is_run(root)) {
            if (item_live(root.ref, root.generation)) {
                return;
            }
            heap_pop_root();
            ++stats_.stale_drops;
            continue;
        }
        // Skip the run's cancelled items one by one, as the single-entry
        // heap would pop their tombstones; the entry goes once used up.
        Run& run = runs_[run_of(root)];
        while (run.next < run.items.size() &&
               !item_live(run.items[run.next].slot,
                          run.items[run.next].generation)) {
            ++run.next;
            ++stats_.stale_drops;
        }
        if (run.next < run.items.size()) {
            return;
        }
        free_runs_.push_back(run_of(root));
        heap_pop_root();
    }
}

Time EventQueue::next_bucket_base() const {
    const std::int64_t next = cursor_bucket_ + 1;
    // Saturate: with the cursor near bucket_of(kTimeNever) the product
    // would overflow Time.
    if (next >= kTimeNever / kBucketWidth) {
        return kTimeNever;
    }
    return next * kBucketWidth;
}

void EventQueue::drain_overflow() const {
    if (overflow_.empty()) {
        return;
    }
    // The scratch buffer keeps its capacity across calls.
    std::vector<HeapEntry>& pending = overflow_scratch_;
    pending.swap(overflow_);
    overflow_min_bucket_ = 0;
    const std::int64_t window_end =
        ring_base_ + static_cast<std::int64_t>(kRingBuckets);
    for (const HeapEntry& e : pending) {
        // Overflow entries all sit at or past ring_base_ (the window only
        // ever advances toward them), so in-window re-filing is exact.
        const std::int64_t b = bucket_of(e.time);
        if (b < window_end) {
            ring_[static_cast<std::size_t>(b) & (kRingBuckets - 1)]
                .push_back(e);
            ++ring_count_;
        } else {
            if (overflow_.empty() || b < overflow_min_bucket_) {
                overflow_min_bucket_ = b;
            }
            overflow_.push_back(e);
        }
    }
    pending.clear();
}

void EventQueue::advance_one_bucket() const {
    if (ring_count_ == 0) {
        // The ring window is empty but overflow is not (the caller checked
        // calendar_size() > 0): jump the window straight to the first
        // populated overflow bucket instead of stepping through thousands
        // of empty buckets.
        cursor_bucket_ = overflow_min_bucket_ - 1;
        ring_base_ = overflow_min_bucket_;
        drain_overflow();
    }
    ++cursor_bucket_;
    if (cursor_bucket_ >=
        ring_base_ + static_cast<std::int64_t>(kRingBuckets)) {
        ring_base_ += static_cast<std::int64_t>(kRingBuckets);
        drain_overflow();
    }
    auto& bucket =
        ring_[static_cast<std::size_t>(cursor_bucket_) & (kRingBuckets - 1)];
    ring_count_ -= bucket.size();
    for (const HeapEntry& e : bucket) {
        // Calendar entries are always single: runs form on the heap path.
        if (item_live(e.ref, e.generation)) {
            // Original seq rides along, so (time, seq) order inside the
            // heap is identical to never having parked the entry.
            heap_push(e);
            ++stats_.calendar_migrations;
        } else {
            // Cancelled while parked; its slot was reclaimed eagerly.
            ++stats_.stale_drops;
        }
    }
    bucket.clear();
}

void EventQueue::migrate_due_buckets() const {
    drop_stale();
    // Promote buckets until the heap's earliest live entry strictly
    // precedes every still-parked entry (all of which have
    // time >= next_bucket_base()). `>=` matters: an equal-time tie must be
    // decided by seq inside the heap, so the bucket holding the tied entry
    // has to migrate first.
    while (calendar_size() > 0 &&
           (heap_.empty() || heap_[0].time >= next_bucket_base())) {
        advance_one_bucket();
        drop_stale();
    }
}

// pqs-hot: once per scheduled event.
EventId EventQueue::schedule(Time when, EventFn fn) {
    const std::uint32_t slot = acquire_slot();
    Slot& s = slab_[slot];
    s.fn = std::move(fn);
    if (!s.fn.is_inline()) {
        ++stats_.callback_heap_allocs;
    }
    const HeapEntry entry{when, next_seq_++, slot, s.generation};
    const std::int64_t b = bucket_of(when);
    if (b <= cursor_bucket_ + 1) {
        // Near horizon (or the past): the cursor's own and next bucket go
        // straight to the heap — parking them could strand an entry behind
        // an already-migrated bucket. Same time as the previous schedule,
        // still open: join its entry as the next item of a run.
        if (open_entry_ != kNoOpenEntry &&
            heap_[open_entry_].time == when) {
            append_to_open_entry(slot, s.generation);
        } else {
            open_entry_ = heap_push(entry);
        }
    } else {
        // Parked in the calendar, always as a single entry; the seq it
        // takes ends any open run.
        open_entry_ = kNoOpenEntry;
        if (b < ring_base_ + static_cast<std::int64_t>(kRingBuckets)) {
            ring_[static_cast<std::size_t>(b) & (kRingBuckets - 1)]
                .push_back(entry);
            ++ring_count_;
        } else {
            if (overflow_.empty() || b < overflow_min_bucket_) {
                overflow_min_bucket_ = b;
            }
            overflow_.push_back(entry);
        }
        ++stats_.calendar_pushes;
    }
    ++live_count_;
    ++stats_.events_scheduled;
    return make_id(slot, s.generation);
}

bool EventQueue::cancel(EventId id) {
    // A released slot's generation is already bumped, so a stale id (fired,
    // cancelled, or recycled slot) fails the generation check.
    const std::uint32_t slot = id_slot(id);
    if (slot >= slab_.size() ||
        slab_[slot].generation != id_generation(id)) {
        return false;
    }
    // Reclaim the slot (and destroy the callback) now; the heap entry
    // becomes a tombstone dropped lazily by drop_stale().
    release_slot(slot);
    --live_count_;
    ++stats_.events_cancelled;
    return true;
}

Time EventQueue::next_time() const {
    migrate_due_buckets();
    return heap_.empty() ? kTimeNever : heap_[0].time;
}

// pqs-hot: once per fired event; a run's items pop without a sift.
EventQueue::Fired EventQueue::pop() {
    migrate_due_buckets();
    if (heap_.empty()) {
        throw std::logic_error("EventQueue::pop on empty queue");
    }
    const HeapEntry& top = heap_[0];
    const Time time = top.time;
    std::uint32_t slot = top.ref;
    if (is_run(top)) {
        // drop_stale left the run's next item live. The root keeps its
        // key: every other entry sorts before or after the whole run.
        Run& run = runs_[run_of(top)];
        slot = run.items[run.next++].slot;
        if (run.next == run.items.size()) {
            free_runs_.push_back(run_of(top));
            heap_pop_root();
        }
    } else {
        heap_pop_root();
    }
    Fired fired{time, std::move(slab_[slot].fn)};
    release_slot(slot);
    --live_count_;
    ++stats_.events_fired;
    return fired;
}

}  // namespace pqs::sim
