#include "svc/workload_driver.h"

#include <vector>

#include "core/op_driver.h"

namespace pqs::svc {

KvWorkloadDriver::KvWorkloadDriver(KvService& kv, KvWorkloadParams params)
    : kv_(kv),
      params_(params),
      zipf_(params.key_count, params.zipf_theta),
      rng_(params.seed) {
    PQS_CHECK(params_.arrival_rate > 0.0,
              "KvWorkloadDriver: arrival_rate must be > 0");
    PQS_CHECK(params_.read_fraction >= 0.0 && params_.read_fraction <= 1.0,
              "KvWorkloadDriver: read_fraction must be in [0, 1]");
}

KvWorkloadReport KvWorkloadDriver::run() {
    PQS_CHECK(!ran_, "KvWorkloadDriver::run called twice");
    ran_ = true;
    core::ServiceContext& ctx = kv_.biquorum().context();
    net::World& world = ctx.world;
    KvWorkloadReport report;
    std::vector<bool> op_is_read;  // by ticket id
    // Censor, don't drop: an op still in flight has waited without
    // resolving, which lower-bounds its latency and is a de-facto timeout
    // for this measurement window.
    core::OpDriver driver(ctx, [&](std::size_t id, sim::Time waited) {
        ++report.timeouts;
        (op_is_read[id] ? report.read_latency : report.write_latency)
            .record(waited);
    });

    util::Key key = 0;
    bool is_read = false;
    // Completions capture the report by reference but touch it only once
    // resolve() succeeded, which it no longer does after run() returned.
    const auto issue = [&](std::size_t) {
        if (world.alive_count() == 0) {
            return true;  // skipped
        }
        const util::NodeId origin =
            world.alive_set().select(rng_.index(world.alive_count()));
        const core::OpDriver::Ticket op = driver.issue();
        op_is_read.push_back(is_read);
        if (is_read) {
            ++report.reads;
            kv_.read(origin, key, [&report, op](const KvReadResult& r) {
                if (const auto waited = op.resolve()) {
                    report.read_ok += r.ok ? 1 : 0;
                    report.timeouts += r.timed_out ? 1 : 0;
                    report.inconclusive += r.inconclusive ? 1 : 0;
                    report.read_latency.record(*waited);
                }
            });
        } else {
            ++report.writes;
            kv_.write(origin, key, static_cast<std::uint32_t>(op.id()),
                      [&report, op](const KvWriteResult& r) {
                          if (const auto waited = op.resolve()) {
                              report.write_ok += r.ok ? 1 : 0;
                              report.overflows += r.overflow ? 1 : 0;
                              report.inconclusive += r.inconclusive ? 1 : 0;
                              report.timeouts +=
                                  !r.ok && !r.overflow && !r.inconclusive ? 1
                                                                          : 0;
                              report.write_latency.record(*waited);
                          }
                      });
        }
        return true;
    };
    // The op is drawn before the next arrival's gap and before any
    // early-out, so the (key, kind, origin) stream is a pure function of
    // the seed, whatever the network does.
    driver.run_open(
        params_.arrival_rate, params_.horizon, params_.drain, rng_,
        [&] {
            key = params_.key_base + zipf_.sample(rng_);
            is_read = rng_.bernoulli(params_.read_fraction);
        },
        issue);

    report.issued = driver.issued();
    report.completed = driver.resolved();
    report.censored = driver.censored();
    report.skipped = driver.skipped();
    report.cache_hits = kv_.cache_hits();
    report.cache_misses = kv_.cache_misses();
    report.cache_invalidations = kv_.cache_invalidations();
    report.load = core::summarize_load(ctx);
    return report;
}

}  // namespace pqs::svc
