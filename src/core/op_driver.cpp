#include "core/op_driver.h"

#include <utility>
#include <vector>

#include "util/check.h"
#include "util/logging.h"

namespace pqs::core {

sim::Time access_budget(sim::Time op_timeout, const RetryPolicy& retry) {
    double total = static_cast<double>(op_timeout);
    double backoff = static_cast<double>(retry.backoff);
    for (int attempt = 2; attempt <= retry.max_attempts; ++attempt) {
        total += backoff + static_cast<double>(op_timeout);
        backoff *= retry.backoff_factor;
    }
    return static_cast<sim::Time>(total);
}

// Shared by the driver, every Ticket and every event the driver schedules,
// so a completion or launch firing after the driver is gone still finds it.
struct OpDriver::Ledger {
    enum class State : std::uint8_t { kInFlight, kResolved, kCensored };
    struct Entry {
        sim::Time issued_at;
        State state;
    };

    explicit Ledger(sim::Simulator& s) : sim(s) {}

    sim::Simulator& sim;
    std::vector<Entry> ops;  // by ticket id
    std::uint64_t resolved = 0;
    std::uint64_t censored = 0;
    std::uint64_t skipped = 0;
    bool closed = false;    // past the cutoff
    bool finished = false;  // no further launch will happen
    // The loop being run; cleared at the cutoff so nothing the caller's
    // closures captured stays reachable.
    Launch launch;
    std::function<void()> draw;
    bool closed_loop = false;
    std::size_t next_slot = 0;
    std::size_t count = 0;
    sim::Time spacing = 0;
    util::Rng* rng = nullptr;
    double rate = 0.0;
    sim::Time arrivals_end = 0;
    sim::EventId pending = sim::kInvalidEvent;  // next launch or arrival

    // Runs the next slot and returns whether it issued an op; one that
    // did not is skipped, unless the caller stopped the run.
    bool launch_slot() {
        const std::size_t before = ops.size();
        finished = !launch(next_slot++);
        const bool issued = ops.size() > before;
        skipped += finished || issued ? 0 : 1;
        return issued;
    }

    // Closed loop: launches the next slot or ends the chain; an issued
    // op's resolve() schedules the launch after it.
    static void launch_next(const std::shared_ptr<Ledger>& l) {
        l->pending = sim::kInvalidEvent;
        if (l->finished || l->next_slot >= l->count) {
            l->finished = true;
        } else if (!l->launch_slot() && !l->finished) {
            schedule_launch(l);
        }
    }

    static void schedule_launch(const std::shared_ptr<Ledger>& l) {
        l->pending = l->sim.schedule_in(l->spacing, [l] { launch_next(l); });
    }

    // Open loop: one arrival, then the next one's gap.
    static void arrive(const std::shared_ptr<Ledger>& l) {
        l->pending = sim::kInvalidEvent;
        if (l->finished) {
            return;
        }
        if (l->draw) {
            l->draw();
        }
        schedule_arrival(l);
        l->launch_slot();
    }

    static void schedule_arrival(const std::shared_ptr<Ledger>& l) {
        const sim::Time when =
            l->sim.now() + sim::from_seconds(l->rng->exponential(l->rate));
        if (when < l->arrivals_end) {
            l->pending = l->sim.schedule_at(when, [l] { arrive(l); });
        }
    }
};

OpDriver::Ticket::Ticket(std::shared_ptr<Ledger> ledger, std::size_t id)
    : ledger_(std::move(ledger)), id_(id) {}

std::optional<sim::Time> OpDriver::Ticket::resolve() const {
    Ledger& l = *ledger_;
    Ledger::Entry& entry = l.ops[id_];
    if (entry.state == Ledger::State::kCensored) {
        return std::nullopt;
    }
    PQS_CHECK(entry.state == Ledger::State::kInFlight,
              "OpDriver: op " << id_ << " resolved twice");
    entry.state = Ledger::State::kResolved;
    ++l.resolved;
    if (l.closed_loop && !l.finished) {
        Ledger::schedule_launch(ledger_);
    }
    return l.sim.now() - entry.issued_at;
}

OpDriver::OpDriver(const ServiceContext& ctx, Censor on_censor)
    : ctx_(ctx),
      on_censor_(std::move(on_censor)),
      ledger_(std::make_shared<Ledger>(ctx.world.simulator())) {}

OpDriver::~OpDriver() { close(/*notify=*/false); }

OpDriver::Ticket OpDriver::issue() {
    Ledger& l = *ledger_;
    PQS_CHECK(!l.closed, "OpDriver: issue after the cutoff");
    l.ops.push_back(Ledger::Entry{l.sim.now(), Ledger::State::kInFlight});
    return Ticket(ledger_, l.ops.size() - 1);
}

void OpDriver::run_closed(std::size_t count, sim::Time spacing,
                          Launch launch) {
    Ledger& l = *ledger_;
    PQS_CHECK(!l.closed && !l.launch, "OpDriver: one run per driver");
    const sim::Time deadline =
        l.sim.now() +
        static_cast<sim::Time>(count) *
            (access_budget(ctx_.op_timeout, ctx_.retry) + spacing) +
        60 * sim::kSecond;
    l.launch = std::move(launch);
    l.closed_loop = true;
    l.count = count;
    l.spacing = spacing;
    Ledger::launch_next(ledger_);
    while (!l.finished && l.sim.now() < deadline && l.sim.step()) {
    }
    if (!l.finished) {
        PQS_WARN("op driver: closed loop hit its deadline with "
                 << l.next_slot << "/" << count << " ops launched");
    }
    close(/*notify=*/true);
}

void OpDriver::run_open(double rate, sim::Time horizon, sim::Time drain,
                        util::Rng& rng, std::function<void()> draw,
                        Launch launch) {
    Ledger& l = *ledger_;
    PQS_CHECK(!l.closed && !l.launch, "OpDriver: one run per driver");
    PQS_CHECK(rate > 0.0, "OpDriver: open-loop rate must be > 0");
    l.launch = std::move(launch);
    l.draw = std::move(draw);
    l.rng = &rng;
    l.rate = rate;
    l.arrivals_end = l.sim.now() + horizon;
    Ledger::schedule_arrival(ledger_);
    l.sim.run_until(l.arrivals_end + drain);
    close(/*notify=*/true);
}

void OpDriver::close(bool notify) {
    Ledger& l = *ledger_;
    if (l.closed) {
        return;
    }
    l.closed = l.finished = true;
    if (l.pending != sim::kInvalidEvent) {
        l.sim.cancel(l.pending);
        l.pending = sim::kInvalidEvent;
    }
    for (std::size_t id = 0; id < l.ops.size(); ++id) {
        Ledger::Entry& entry = l.ops[id];
        if (entry.state == Ledger::State::kInFlight) {
            entry.state = Ledger::State::kCensored;
            ++l.censored;
            if (notify && on_censor_) {
                on_censor_(id, l.sim.now() - entry.issued_at);
            }
        }
    }
    PQS_DCHECK(l.ops.size() == l.resolved + l.censored,
               "OpDriver: issued " << l.ops.size() << " != resolved "
                                   << l.resolved << " + censored "
                                   << l.censored);
    l.launch = nullptr;
    l.draw = nullptr;
    l.rng = nullptr;
}

std::uint64_t OpDriver::issued() const { return ledger_->ops.size(); }
std::uint64_t OpDriver::resolved() const { return ledger_->resolved; }
std::uint64_t OpDriver::censored() const { return ledger_->censored; }
std::uint64_t OpDriver::skipped() const { return ledger_->skipped; }

}  // namespace pqs::core
