// Reference model for the EventQueue differential tests: a vector of live
// events kept sorted by (time, seq). Everything is O(n) and obviously
// correct. `Lockstep` drives the production queue and the model side by
// side and checks every pop against the model's order.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/event_queue.h"

namespace pqs::sim {

class ModelQueue {
public:
    EventId schedule(Time when) {
        const EventId id = next_id_++;
        // The newest seq sorts after every event at the same time.
        const auto at = std::upper_bound(
            events_.begin(), events_.end(), when,
            [](Time t, const Event& e) { return t < e.time; });
        events_.insert(at, Event{when, next_seq_++, id});
        return id;
    }

    bool cancel(EventId id) {
        for (auto it = events_.begin(); it != events_.end(); ++it) {
            if (it->id == id) {
                events_.erase(it);
                return true;
            }
        }
        return false;
    }

    bool empty() const { return events_.empty(); }
    std::size_t size() const { return events_.size(); }

    Time next_time() const {
        return events_.empty() ? kTimeNever : events_.front().time;
    }

    struct Popped {
        Time time;
        EventId id;
    };

    Popped pop() {
        const Event front = events_.front();
        events_.erase(events_.begin());
        return Popped{front.time, front.id};
    }

private:
    struct Event {
        Time time;
        std::uint64_t seq;
        EventId id;
    };
    std::vector<Event> events_;
    std::uint64_t next_seq_ = 0;
    EventId next_id_ = 1;  // model-local id space
};

// The queue and the model in lockstep. Events are named by their index in
// issue order; a firing event logs its model id and then calls `on_fire`
// (with its index), which may schedule or cancel more events — the way a
// simulator callback schedules zero-delay follow-ups.
struct Lockstep {
    EventQueue queue;
    ModelQueue model;
    std::vector<EventId> ids_real;
    std::vector<EventId> ids_model;
    std::vector<EventId> fired_log;  // model ids, appended by callbacks
    std::function<void(std::size_t)> on_fire;
    Time now = 0;

    std::size_t schedule(Time when) {
        const std::size_t index = ids_real.size();
        const EventId model_id = model.schedule(when);
        ids_model.push_back(model_id);
        ids_real.push_back(queue.schedule(when, [this, model_id, index] {
            fired_log.push_back(model_id);
            if (on_fire) {
                on_fire(index);
            }
        }));
        return index;
    }

    // Both sides must agree on the return value too.
    bool cancel(std::size_t index) {
        const bool real_ok = queue.cancel(ids_real[index]);
        EXPECT_EQ(real_ok, model.cancel(ids_model[index]))
            << "cancel disagreement on event " << index;
        return real_ok;
    }

    // Pops one event from each side and requires the same time and event.
    void pop_and_check() {
        const ModelQueue::Popped want = model.pop();
        auto fired = queue.pop();
        ASSERT_EQ(fired.time, want.time);
        now = fired.time;
        const std::size_t logged = fired_log.size();
        fired.fn();
        ASSERT_LT(logged, fired_log.size());
        ASSERT_EQ(fired_log[logged], want.id)
            << "pop order diverged at pop " << logged;
    }

    void expect_agree() const {
        ASSERT_EQ(queue.size(), model.size());
        ASSERT_EQ(queue.empty(), model.empty());
        ASSERT_EQ(queue.next_time(), model.next_time());
    }

    // Drains both sides; the full residual firing order must match.
    void drain() {
        while (!model.empty()) {
            pop_and_check();
            if (::testing::Test::HasFatalFailure()) {
                return;
            }
        }
        EXPECT_TRUE(queue.empty());
        EXPECT_EQ(queue.next_time(), kTimeNever);
    }
};

}  // namespace pqs::sim
