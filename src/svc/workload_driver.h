// Open-loop Zipfian workload driver over KvService: a Poisson arrival
// process issues reads and writes against a skewed key population,
// independent of service completions — the open loop is what makes tail
// percentiles honest (a closed loop slows its own arrival rate exactly
// when the service degrades, hiding the queueing tail).
//
// Arrivals and the op ledger are core::OpDriver's open loop; this driver
// draws each op (Zipf key, read/write kind, alive origin) and tallies its
// outcome. Accounting rules:
//  - operations still in flight when the measurement window closes are
//    *censored*, not dropped: each contributes its waited time as a
//    latency floor and counts toward the timeout rate;
//  - MRW load comes off LoadAccountant's resolved denominator, so the
//    censored in-flight accesses do not deflate the per-access load of
//    the operations that actually finished.
#pragma once

#include <cstdint>

#include "obs/latency_histogram.h"
#include "svc/kv_service.h"
#include "svc/zipf.h"

namespace pqs::svc {

struct KvWorkloadParams {
    std::size_t key_count = 1000;
    double zipf_theta = 0.99;
    // First key id; keys occupy [key_base, key_base + key_count).
    util::Key key_base = 1;
    double read_fraction = 0.9;
    // Open-loop Poisson arrival rate, operations per second of virtual
    // time. Arrivals are independent of completions.
    double arrival_rate = 20.0;
    // Arrivals stop at start + horizon; the driver then waits `drain`
    // longer for stragglers before censoring whatever is still in flight.
    sim::Time horizon = 60 * sim::kSecond;
    sim::Time drain = 0;
    // Workload stream seed (key choice, op mix, origin choice) —
    // independent of the world's RNG, so the same op stream can be
    // replayed against different networks.
    std::uint64_t seed = 1;
};

struct KvWorkloadReport {
    std::uint64_t issued = 0;
    std::uint64_t completed = 0;  // callbacks that ran before the cutoff
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t read_ok = 0;
    std::uint64_t write_ok = 0;
    std::uint64_t timeouts = 0;  // op-level timeouts + censored
    std::uint64_t inconclusive = 0;
    std::uint64_t overflows = 0;
    std::uint64_t censored = 0;  // in flight at cutoff
    std::uint64_t skipped = 0;   // arrivals with no alive origin
    // Cache counters snapshot from the KvService at the cutoff.
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    std::uint64_t cache_invalidations = 0;
    obs::LatencyHistogram read_latency;
    obs::LatencyHistogram write_latency;
    core::LoadSummary load;

    double timeout_rate() const {
        return issued > 0
                   ? static_cast<double>(timeouts) / static_cast<double>(issued)
                   : 0.0;
    }
    double inconclusive_rate() const {
        return issued > 0 ? static_cast<double>(inconclusive) /
                                static_cast<double>(issued)
                          : 0.0;
    }
    // Fraction of cache-directed reads served by the cached quorum.
    double cache_hit_rate() const {
        const std::uint64_t directed = cache_hits + cache_misses;
        return directed > 0 ? static_cast<double>(cache_hits) /
                                  static_cast<double>(directed)
                            : 0.0;
    }
};

class KvWorkloadDriver {
public:
    KvWorkloadDriver(KvService& kv, KvWorkloadParams params);

    // Issues arrivals from now until now + horizon, drives the simulator
    // `drain` longer, censors what is still in flight and returns the
    // report. Completions that land later are ignored. Runs once.
    KvWorkloadReport run();

private:
    KvService& kv_;
    KvWorkloadParams params_;
    ZipfSampler zipf_;
    util::Rng rng_;
    bool ran_ = false;
};

}  // namespace pqs::svc
