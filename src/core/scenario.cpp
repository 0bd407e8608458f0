#include "core/scenario.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "core/byzantine_adversary.h"
#include "core/maintenance.h"
#include "core/op_driver.h"
#include "obs/trace.h"
#include "sim/fault_plan.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/stats.h"

namespace pqs::core {

namespace {

struct PhaseCounters {
    double data = 0.0;
    double routing = 0.0;
};

PhaseCounters snapshot(net::World& world) {
    const util::KernelStats& m = world.metrics();
    return PhaseCounters{static_cast<double>(m.net_data_tx),
                         static_cast<double>(m.net_routing_tx)};
}

// pqs-hot: called once per launched op. select(r) over the liveness
// bitset consumes the same RNG draw as indexing the old alive_nodes()
// snapshot and returns the same node — no O(n) copy per op.
std::optional<util::NodeId> random_alive(net::World& world, util::Rng& rng) {
    const util::AliveSet& alive = world.alive_set();
    if (alive.count() == 0) {
        return std::nullopt;
    }
    return alive.select(rng.index(alive.count()));
}

// Self-rescheduling helper for the live phase's periodic jobs. The chain
// owns its state by shared_ptr; the body returns false to stop the chain.
struct Periodic {
    net::World& world;
    const sim::Time period;
    std::function<bool()> body;
};

void periodic_fire(const std::shared_ptr<Periodic>& task) {
    if (!task->body()) {
        return;
    }
    // pqs-lint: fire-and-forget(chain owns Periodic by shared_ptr and stops
    // itself when body() returns false; no external owner to cancel from)
    task->world.simulator().schedule_in(task->period,
                                        [task] { periodic_fire(task); });
}

std::unique_ptr<membership::OracleMembership> make_membership(
    net::World& world, const ScenarioParams& params) {
    if (!params.use_membership) {
        return nullptr;
    }
    membership::OracleMembershipParams mp;
    mp.view_size = params.membership_view;
    return std::make_unique<membership::OracleMembership>(world, mp);
}

// One scenario run: the world and its services, then the phases in order
// — warm-up, advertise, step churn, lookup (with the live-churn machinery
// around it), drain, aggregate. Each op phase is a closed loop over its
// own OpDriver, and every phase shares the one retry policy.
class ScenarioRun {
public:
    explicit ScenarioRun(const ScenarioParams& params)
        : params_(params),
          world_(params.world),
          log_clock_(
              [this] { return sim::to_seconds(world_.simulator().now()); }),
          // Per-trial trace sink (thread-local, so parallel trials are
          // independent); with tracing off nothing is constructed and
          // obs::record() is a no-op, so the run stays bit-identical.
          trace_sink_(obs::trace_options().enabled
                          ? std::make_unique<obs::TraceSink>(
                                world_.simulator(),
                                obs::trace_options().capacity)
                          : nullptr),
          scoped_sink_(trace_sink_.get()),
          membership_(make_membership(world_, params)),
          service_(world_, params.spec, membership_.get()),
          rng_(params.world.seed ^ 0x5ca1ab1e5eed) {
        ctx().op_timeout = params.op_timeout;
        ctx().retry =
            RetryPolicy{params.op_max_attempts, params.op_retry_backoff, 2.0};
        ctx().value_lease = params.value_lease;
        // Byzantine adversary: nothing below exists at b == 0 (no
        // allocations, no RNG, no spawn listener), so the classic run is
        // bit-identical to a build without the tamper hook.
        if (params.byzantine.b > 0) {
            byz_plan_ = std::make_unique<sim::ByzantinePlan>(
                params.byzantine,
                util::Rng(params.world.seed ^ 0xbad0c0de5eed));
            byz_plan_->recruit_static(params.world.n);
            world_.add_spawn_listener(
                [plan = byz_plan_.get()](util::NodeId id) {
                    plan->on_join(id);
                });
            byz_adversary_ =
                std::make_unique<ByzantineAdversary>(world_, *byz_plan_);
        }
        result_.n = params.world.n;
        result_.advertise_quorum =
            service_.biquorum().spec().advertise.quorum_size;
        result_.lookup_quorum = service_.biquorum().spec().lookup.quorum_size;
    }

    ScenarioResult run() {
        world_.start();
        world_.simulator().run_until(world_.simulator().now() +
                                     params_.warmup);
        advertise();
        step_churn();
        lookup();
        aggregate();
        return std::move(result_);
    }

private:
    ServiceContext& ctx() { return service_.biquorum().context(); }
    // Lets in-flight stragglers land inside the phase that issued them.
    void drain() {
        world_.simulator().run_until(world_.simulator().now() +
                                     2 * sim::kSecond);
    }

    // Tallies are phase-local: a completion only touches them after its
    // ticket resolved, which it cannot once the phase's driver closed.
    void advertise() {
        const PhaseCounters before = snapshot(world_);
        util::Accumulator nodes;
        std::size_t ok = 0;
        keys_.reserve(params_.advertise_count);
        OpDriver driver(ctx());
        driver.run_closed(
            params_.advertise_count, params_.op_spacing, [&](std::size_t i) {
                const auto origin = random_alive(world_, rng_);
                if (!origin) {
                    PQS_WARN("scenario: no node left alive to advertise "
                             "from; aborting");
                    aborted_ = true;
                    return false;
                }
                const util::Key key = 1000 + i;
                keys_.push_back(key);
                advertisers_.push_back(*origin);
                service_.advertise(
                    *origin, key, /*value=*/key * 7 + 1,
                    [&nodes, &ok, op = driver.issue()](const AccessResult& r) {
                        if (op.resolve()) {
                            ok += r.ok ? 1 : 0;
                            nodes.add(static_cast<double>(r.nodes_contacted));
                        }
                    });
                return true;
            });
        drain();
        const PhaseCounters after = snapshot(world_);
        const double n =
            std::max(1.0, static_cast<double>(params_.advertise_count));
        result_.advertise_ok_ratio = static_cast<double>(ok) / n;
        result_.avg_advertise_nodes = nodes.empty() ? 0.0 : nodes.mean();
        result_.msgs_per_advertise = (after.data - before.data) / n;
        result_.routing_per_advertise = (after.routing - before.routing) / n;
    }

    // Churn applied as one step between the phases (Fig. 14(f)); live
    // mode supersedes it.
    void step_churn() {
        if (aborted_ || params_.live.enabled) {
            return;
        }
        if (params_.fail_fraction > 0.0) {
            auto alive = world_.alive_nodes();
            rng_.shuffle(alive);
            const auto kill = static_cast<std::size_t>(
                params_.fail_fraction * static_cast<double>(alive.size()));
            for (std::size_t i = 0; i < kill; ++i) {
                world_.fail_node(alive[i]);
            }
        }
        if (params_.join_fraction > 0.0) {
            const auto join = static_cast<std::size_t>(
                params_.join_fraction * static_cast<double>(params_.world.n));
            for (std::size_t i = 0; i < join; ++i) {
                world_.spawn_node();
            }
        }
        if (params_.adjust_lookup_to_network &&
            (params_.fail_fraction > 0.0 || params_.join_fraction > 0.0)) {
            const double scale =
                std::sqrt(static_cast<double>(world_.alive_count()) /
                          static_cast<double>(params_.world.n));
            const auto adjusted = static_cast<std::size_t>(std::lround(
                scale * static_cast<double>(result_.lookup_quorum)));
            service_.biquorum().lookup_strategy().set_quorum_size(
                std::max<std::size_t>(1, adjusted));
        }
    }

    void lookup() {
        std::vector<util::NodeId> lookers;
        const std::size_t alive_count = world_.alive_count();
        for (const std::size_t idx : rng_.sample_without_replacement(
                 alive_count, std::min(params_.lookup_nodes, alive_count))) {
            lookers.push_back(world_.alive_set().select(idx));
        }
        if (!aborted_ && lookers.empty()) {
            PQS_WARN("scenario: no node left alive to look up from; "
                     "aborting");
            aborted_ = true;
        }
        if (!aborted_ && params_.live.enabled) {
            start_live();
        }
        const PhaseCounters before = snapshot(world_);
        energy_before_lkp_ =
            world_.energy() != nullptr ? world_.energy()->consumed_j() : 0.0;
        std::size_t hits = 0;
        std::size_t intersections = 0;
        std::size_t reply_drops = 0;
        std::size_t timeouts = 0;
        std::size_t inconclusives = 0;
        util::Accumulator nodes;
        util::Accumulator latency;
        OpDriver driver(ctx(), [&timeouts](std::size_t, sim::Time) {
            ++timeouts;  // cut off by the deadline
        });
        const auto launch = [&](std::size_t i) {
            const util::Key key =
                params_.lookup_missing_keys
                    ? 900000 + i
                    : (keys_.empty() ? 1 : keys_[rng_.index(keys_.size())]);
            const util::NodeId origin = lookers[rng_.index(lookers.size())];
            // awake(): a duty-cycled client initiates work when its radio
            // is on — a sleeping origin is skipped like a dead one, so
            // availability measures the quorum system rather than the
            // client's own duty cycle.
            if (!world_.awake(origin)) {
                return true;
            }
            service_.lookup(
                origin, key,
                [&, origin, op = driver.issue()](const AccessResult& r) {
                    if (!op.resolve()) {
                        return;
                    }
                    obs::record(r.trace, obs::EventKind::kOpResolved, origin,
                                static_cast<std::uint64_t>(r.ok),
                                static_cast<std::uint64_t>(r.attempts));
                    if (r.ok) {
                        ++hits;
                        // Success-only: a timed-out lookup's "latency" is
                        // just the timeout constant and used to drag the
                        // mean toward it.
                        latency.add(sim::to_seconds(r.latency));
                        result_.latency_hist.record(r.latency);
                    }
                    timeouts += r.timed_out ? 1 : 0;
                    inconclusives += r.inconclusive ? 1 : 0;
                    intersections += r.intersected ? 1 : 0;
                    reply_drops += r.intersected && !r.ok ? 1 : 0;
                    nodes.add(static_cast<double>(r.nodes_contacted));
                    if (live_active_) {
                        sample_live(r);
                    }
                });
            return true;
        };
        if (!aborted_) {
            driver.run_closed(params_.lookup_count, params_.op_spacing,
                              launch);
        }
        if (plan_ != nullptr) {
            plan_->stop();  // freeze the fault processes, then drain
        }
        drain();
        live_active_ = false;
        if (params_.live.enabled) {
            finish_live();
        }
        const PhaseCounters after = snapshot(world_);
        const double n =
            std::max(1.0, static_cast<double>(params_.lookup_count));
        result_.hit_ratio = static_cast<double>(hits) / n;
        result_.intersect_ratio = static_cast<double>(intersections) / n;
        result_.reply_drop_ratio = static_cast<double>(reply_drops) / n;
        result_.avg_lookup_nodes = nodes.empty() ? 0.0 : nodes.mean();
        result_.avg_lookup_latency_s = latency.empty() ? 0.0 : latency.mean();
        result_.timeout_rate = static_cast<double>(timeouts) / n;
        result_.inconclusive_rate = static_cast<double>(inconclusives) / n;
        result_.msgs_per_lookup = (after.data - before.data) / n;
        result_.routing_per_lookup = (after.routing - before.routing) / n;
    }

    // Continuous churn (§6.1 measured live): a FaultPlan crashes, joins
    // and recovers nodes while the lookups run, with link faults, the
    // optional refresher and the optional size estimator around it.
    void start_live() {
        const LiveChurnParams& live = params_.live;
        live_active_ = true;
        live_start_ = world_.simulator().now();
        world_.link().set_fault_injection(
            net::LinkFaults{live.link_drop, live.link_duplicate});

        sim::FaultPlanParams fp;
        fp.crash_fraction_per_sec = live.crash_fraction_per_sec;
        fp.join_fraction_per_sec = live.join_fraction_per_sec;
        fp.recover_probability = live.recover_probability;
        fp.recover_delay_mean = live.recover_delay_mean;
        sim::FaultPlanHooks hooks;
        net::World& world = world_;
        hooks.population = [&world] { return world.alive_count(); };
        hooks.crash_one =
            [&world](util::Rng& r) -> std::optional<util::NodeId> {
            const util::AliveSet& alive = world.alive_set();
            if (alive.count() == 0) {
                return std::nullopt;
            }
            const util::NodeId victim = alive.select(r.index(alive.count()));
            world.fail_node(victim);
            return victim;
        };
        hooks.join_one = [&world](util::Rng&) { world.spawn_node(); };
        hooks.recover = [&world](util::NodeId id) { world.revive_node(id); };
        plan_ = std::make_unique<sim::FaultPlan>(
            world_.simulator(), fp, std::move(hooks), rng_.fork());
        plan_->start();

        if (live.refresh) {
            QuorumRefresher::Params rp;
            rp.eps_max = live.refresh_eps_max;
            rp.churn_kind = ChurnKind::kFailuresAndJoins;
            rp.sizing = live.resize_lookup_from_estimate
                            ? LookupSizing::kAdjustedToNetworkSize
                            : LookupSizing::kFixed;
            rp.churn_fraction_per_sec =
                live.crash_fraction_per_sec + live.join_fraction_per_sec;
            rp.explicit_interval = live.refresh_interval;
            refresher_ = std::make_unique<QuorumRefresher>(service_, rp);
            for (const util::NodeId node : advertisers_) {
                refresher_->start_node(node);
            }
        }

        if (live.resize_lookup_from_estimate && membership_ != nullptr) {
            auto estimator = std::make_shared<NetworkSizeEstimator>(
                *membership_, rng_.fork());
            auto task = std::make_shared<Periodic>(Periodic{
                world_, live.estimate_period,
                [this, estimator, probes_wanted = live.estimate_probes] {
                    if (!live_active_) {
                        return false;
                    }
                    const util::AliveSet& alive = world_.alive_set();
                    if (alive.count() == 0) {
                        return true;
                    }
                    std::vector<util::NodeId> probes;
                    for (const std::size_t idx :
                         rng_.sample_without_replacement(
                             alive.count(),
                             std::min(probes_wanted, alive.count()))) {
                        probes.push_back(alive.select(idx));
                    }
                    if (const auto est =
                            estimator->estimate_across(probes, 2)) {
                        const auto n_est = static_cast<std::size_t>(
                            std::max<long>(1, std::lround(*est)));
                        service_.biquorum().lookup_strategy().set_quorum_size(
                            lookup_size_for(result_.advertise_quorum, n_est,
                                            params_.spec.eps));
                    }
                    return true;
                }});
            // pqs-lint: fire-and-forget(kicks off a shared_ptr-owned
            // periodic_fire chain; see the chain's own annotation)
            world_.simulator().schedule_in(live.estimate_period,
                                           [task] { periodic_fire(task); });
        }
    }

    // Files a resolved live-phase lookup into its sample_period bucket;
    // alive_nodes and lookup_quorum hold sums until finish_live().
    void sample_live(const AccessResult& r) {
        const auto bucket = static_cast<std::size_t>(
            (world_.simulator().now() - live_start_) /
            params_.live.sample_period);
        if (bucket >= samples_.size()) {
            samples_.resize(bucket + 1);
        }
        LiveSample& s = samples_[bucket];
        s.lookups += 1.0;
        s.hits += r.ok ? 1.0 : 0.0;
        s.intersections += r.intersected ? 1.0 : 0.0;
        s.alive_nodes += static_cast<double>(world_.alive_count());
        s.lookup_quorum += static_cast<double>(
            service_.biquorum().lookup_strategy().config().quorum_size);
    }

    void finish_live() {
        world_.link().set_fault_injection(net::LinkFaults{});
        if (refresher_ != nullptr) {
            result_.live_refreshes =
                static_cast<double>(refresher_->refreshes_performed());
            refresher_->stop();
        }
        if (plan_ != nullptr) {
            result_.live_crashes = static_cast<double>(plan_->crashes());
            result_.live_joins = static_cast<double>(plan_->joins());
            result_.live_recoveries =
                static_cast<double>(plan_->recoveries());
        }
        for (std::size_t b = 0; b < samples_.size(); ++b) {
            LiveSample& s = samples_[b];
            s.t_s = sim::to_seconds(static_cast<sim::Time>(b + 1) *
                                    params_.live.sample_period);
            if (s.lookups > 0.0) {
                s.alive_nodes /= s.lookups;
                s.lookup_quorum /= s.lookups;
            }
        }
        result_.live_samples = std::move(samples_);
    }

    void aggregate() {
        ScenarioResult& r = result_;
        r.aborted = aborted_ ? 1.0 : 0.0;
        r.load = summarize_load(ctx());
        if (byz_plan_ != nullptr) {
            r.byzantine_marked = static_cast<double>(byz_plan_->marked());
        }
        r.kernel = world_.kernel_stats();
        if (world_.energy() != nullptr) {
            r.energy_consumed_j = world_.energy()->consumed_j();
            r.joules_per_lookup =
                (r.energy_consumed_j - energy_before_lkp_) /
                std::max(1.0, static_cast<double>(params_.lookup_count));
            r.time_to_first_partition_s = world_.time_to_first_partition_s();
            r.time_to_half_depletion_s = world_.time_to_half_depletion_s();
        }
        r.arena_high_water = static_cast<double>(world_.arena_high_water());
        const std::string& out_base = obs::trace_options().out_base;
        if (trace_sink_ != nullptr && !out_base.empty()) {
            const std::string path =
                obs::trace_output_path(out_base, params_.world.seed);
            if (!trace_sink_->dump_chrome_json(path)) {
                PQS_WARN("scenario: failed to write trace to " << path);
            }
        }
    }

    const ScenarioParams& params_;
    net::World world_;
    const util::ScopedLogClock log_clock_;
    std::unique_ptr<obs::TraceSink> trace_sink_;
    const obs::ScopedTraceSink scoped_sink_;
    std::unique_ptr<membership::OracleMembership> membership_;
    LocationService service_;
    std::unique_ptr<sim::ByzantinePlan> byz_plan_;
    std::unique_ptr<ByzantineAdversary> byz_adversary_;
    util::Rng rng_;
    ScenarioResult result_;
    bool aborted_ = false;
    std::vector<util::Key> keys_;
    std::vector<util::NodeId> advertisers_;
    double energy_before_lkp_ = 0.0;
    // Live-churn machinery; constructed only in live mode so the classic
    // two-phase scenario stays bit-identical (no extra RNG draws, events
    // or allocations).
    std::unique_ptr<sim::FaultPlan> plan_;
    std::unique_ptr<QuorumRefresher> refresher_;
    std::vector<LiveSample> samples_;
    bool live_active_ = false;
    sim::Time live_start_ = 0;
};


// X-macro over every scalar metric of ScenarioResult; the single source of
// truth for aggregation, so adding a field here is all it takes.
#define PQS_SCENARIO_METRICS(X)   \
    X(hit_ratio)                  \
    X(intersect_ratio)            \
    X(reply_drop_ratio)           \
    X(avg_lookup_nodes)           \
    X(avg_lookup_latency_s)       \
    X(timeout_rate)               \
    X(advertise_ok_ratio)         \
    X(avg_advertise_nodes)        \
    X(msgs_per_advertise)         \
    X(routing_per_advertise)      \
    X(msgs_per_lookup)            \
    X(routing_per_lookup)         \
    X(load.mean)                  \
    X(load.max)                   \
    X(load.cv)                    \
    X(load.mrw_load)              \
    X(inconclusive_rate)          \
    X(byzantine_marked)           \
    X(aborted)                    \
    X(live_crashes)               \
    X(live_joins)                 \
    X(live_recoveries)            \
    X(live_refreshes)             \
    X(energy_consumed_j)          \
    X(joules_per_lookup)          \
    X(time_to_first_partition_s)  \
    X(time_to_half_depletion_s)   \
    X(arena_high_water)

// The per-bucket fields of LiveSample, aggregated element-wise.
constexpr double LiveSample::*kLiveSampleFields[] = {
    &LiveSample::t_s,         &LiveSample::lookups,
    &LiveSample::hits,        &LiveSample::intersections,
    &LiveSample::alive_nodes, &LiveSample::lookup_quorum};

}  // namespace

ScenarioResult run_scenario(const ScenarioParams& params) {
    return ScenarioRun(params).run();
}

const std::vector<ScenarioMetric>& scenario_metrics() {
    static const std::vector<ScenarioMetric> metrics = {
#define PQS_METRIC_ENTRY(field)                                     \
    ScenarioMetric{#field,                                          \
                   [](const ScenarioResult& r) { return r.field; }, \
                   [](ScenarioResult& r, double v) { r.field = v; }},
        PQS_SCENARIO_METRICS(PQS_METRIC_ENTRY)
#undef PQS_METRIC_ENTRY
    };
    return metrics;
}

ScenarioAggregate aggregate_scenarios(
    const std::vector<ScenarioResult>& results) {
    ScenarioAggregate agg;
    agg.runs = static_cast<int>(results.size());
    if (results.empty()) {
        return agg;
    }
    // Copy non-metric context (n, quorum sizes) from the first run, then
    // merge raw counters across runs in index order.
    agg.mean = results.front();
    agg.mean.kernel = util::KernelStats{};
    agg.mean.latency_hist = obs::LatencyHistogram{};
    agg.stddev.n = agg.mean.n;
    agg.stddev.advertise_quorum = agg.mean.advertise_quorum;
    agg.stddev.lookup_quorum = agg.mean.lookup_quorum;
    for (const ScenarioResult& one : results) {
        agg.mean.kernel += one.kernel;
        agg.mean.latency_hist.merge(one.latency_hist);
    }
    for (const ScenarioMetric& metric : scenario_metrics()) {
        util::Accumulator acc;
        for (const ScenarioResult& one : results) {
            acc.add(metric.get(one));
        }
        metric.set(agg.mean, acc.mean());
        metric.set(agg.stddev, acc.count() > 1 ? acc.stddev() : 0.0);
    }

    // Element-wise aggregation of the live-phase buckets. Runs may differ
    // in bucket count (churn shifts op pacing); each bucket aggregates
    // over the runs that reached it.
    std::size_t buckets = 0;
    for (const ScenarioResult& one : results) {
        buckets = std::max(buckets, one.live_samples.size());
    }
    agg.mean.live_samples.assign(buckets, LiveSample{});
    agg.stddev.live_samples.assign(buckets, LiveSample{});
    for (std::size_t b = 0; b < buckets; ++b) {
        for (double LiveSample::*field : kLiveSampleFields) {
            util::Accumulator acc;
            for (const ScenarioResult& one : results) {
                if (b < one.live_samples.size()) {
                    acc.add(one.live_samples[b].*field);
                }
            }
            agg.mean.live_samples[b].*field = acc.mean();
            agg.stddev.live_samples[b].*field =
                acc.count() > 1 ? acc.stddev() : 0.0;
        }
    }
    return agg;
}

ScenarioAggregate run_scenario_averaged(ScenarioParams params, int runs,
                                        std::uint64_t seed_base) {
    const std::size_t count = runs > 0 ? static_cast<std::size_t>(runs) : 0;
    std::vector<ScenarioResult> results(count);
    util::parallel_for(count, /*threads=*/0, [&](std::size_t r) {
        ScenarioParams p = params;
        p.world.seed = seed_base + static_cast<std::uint64_t>(r);
        results[r] = run_scenario(p);
    });
    return aggregate_scenarios(results);
}

}  // namespace pqs::core
