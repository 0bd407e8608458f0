// One driver for every operation stream the simulator runs, in the launch
// mode its caller picks:
//  - closed loop (the paper's protocol, §2.4/§8): the next op launches
//    `spacing` after the previous one resolved or was skipped;
//  - open loop (svc/ traffic): Poisson arrivals until a horizon,
//    independent of completions, so tail percentiles stay honest.
//
// Both keep one ledger: every issued op is resolved or censored, exactly
// once. At the cutoff — the closed loop's deadline, the open loop's
// horizon plus drain — each op still in flight is censored and the time
// it waited is handed to the caller. Tickets share the ledger, so a
// completion arriving after the cutoff (or after the driver is gone)
// finds its op censored and is ignored.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "core/access_strategy.h"
#include "util/rng.h"

namespace pqs::core {

// Virtual time one access may take before its callback fires: op_timeout
// per attempt plus the exponential backoffs between attempts.
sim::Time access_budget(sim::Time op_timeout, const RetryPolicy& retry);

class OpDriver {
    struct Ledger;

public:
    // Completion handle of one issued op; copies share its ledger entry.
    class Ticket {
    public:
        // Marks the op resolved and returns the time it waited; in a
        // closed loop the next op launches `spacing` later. Empty, changing
        // nothing, when the op was censored: the completion came too late
        // for the caller's tallies.
        std::optional<sim::Time> resolve() const;
        std::size_t id() const { return id_; }  // issue order, from 0

    private:
        friend class OpDriver;
        Ticket(std::shared_ptr<Ledger> ledger, std::size_t id);
        std::shared_ptr<Ledger> ledger_;
        std::size_t id_;
    };

    // Runs op slot `index`: issues at most one op through issue(), or none
    // (a skipped slot). Returning false stops launching.
    using Launch = std::function<bool(std::size_t index)>;
    // Told each op censored at the cutoff: ticket id and time waited.
    using Censor = std::function<void(std::size_t id, sim::Time waited)>;

    // The closed loop's deadline follows ctx's op_timeout and retry
    // policy as they stand when the run starts.
    explicit OpDriver(const ServiceContext& ctx, Censor on_censor = {});
    ~OpDriver();  // censors, without callback, whatever is still open
    OpDriver(const OpDriver&) = delete;
    OpDriver& operator=(const OpDriver&) = delete;

    Ticket issue();  // opens the ledger entry of an op issued now

    // Closed loop over `count` slots, stepping the simulator until the
    // chain ends or the deadline of count × (access_budget + spacing)
    // + 60 s passes; then closes the ledger.
    void run_closed(std::size_t count, sim::Time spacing, Launch launch);

    // Open loop: Poisson arrivals at `rate` per virtual second until
    // `horizon` from now; the cutoff is `drain` later. Each arrival runs
    // draw(), then draws the next gap from `rng`, then launch(index), so
    // a caller drawing its op from the same rng has a fixed order.
    void run_open(double rate, sim::Time horizon, sim::Time drain,
                  util::Rng& rng, std::function<void()> draw, Launch launch);

    std::uint64_t issued() const;
    std::uint64_t resolved() const;
    std::uint64_t censored() const;
    std::uint64_t skipped() const;  // launched slots that issued nothing

private:
    void close(bool notify);

    const ServiceContext& ctx_;
    Censor on_censor_;
    std::shared_ptr<Ledger> ledger_;
};

}  // namespace pqs::core
