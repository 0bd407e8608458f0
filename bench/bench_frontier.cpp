// bench_frontier — workload-aware quorum sizing vs the symmetric default
// (ISSUE 9).
//
// Part 1, analytic: for each lookup:advertise mix τ, optimize_quorums
// searches strategy × (|Qa|, |Qℓ|) along the Lemma 5.6 ratio at equal ε
// and reports the composite optimum, the Corollary 5.3 symmetric
// baseline, and the Pareto frontier over (messages/op, load/op).
// Asserted here (and re-checked by scripts/check_bench_json.py): the
// optimizer never loses to the symmetric baseline, wins strictly at the
// skewed mixes, and the frontier is monotone.
//
// Part 2, measured: the svc/ Zipfian open-loop KV driver serves real
// traffic through three configurations per mix — symmetric sizing,
// optimizer sizing, and optimizer sizing plus the per-key quorum cache —
// reporting measured messages/op, MRW load, timeout rate and read/write
// p50/p95/p99 off the obs/ histograms. The optimizer's sizes must beat
// symmetric on measured messages/op at every mix; the cache must not
// make it worse.
//
// Emits BENCH_frontier.json (schema pqs.bench_frontier/1).
//
// Usage: bench_frontier [--smoke] [--out PATH]
//   --smoke  smaller world and shorter horizon (the ctest gate)
//   --out    output JSON path (default BENCH_frontier.json in the cwd)
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_json.h"
#include "core/quorum_optimizer.h"
#include "membership/oracle_membership.h"
#include "svc/workload_driver.h"

namespace pqs::bench {
namespace {

std::string candidate_json(const core::CandidateConfig& c) {
    return "{\"kind\": \"" + core::strategy_name(c.kind) + "\"" +
           ", \"advertise\": " + fmt_u64(c.advertise) +
           ", \"lookup\": " + fmt_u64(c.lookup) +
           ", \"eps_bound\": " + fmt_double(c.eps_bound) +
           ", \"msgs_per_op\": " + fmt_double(c.msgs_per_op) +
           ", \"load_per_op\": " + fmt_double(c.load_per_op) +
           ", \"objective\": " + fmt_double(c.objective) + "}";
}

// One measured driver run: a fresh world + KV stack at the given quorum
// sizes, keys pre-seeded, then the open-loop Zipfian mix.
struct MeasuredConfig {
    std::string label;
    std::size_t advertise = 0;
    std::size_t lookup = 0;
    bool cache = false;
    svc::KvWorkloadReport report;
    double msgs_per_op = 0.0;
    double tx_total = 0.0;
};

struct MeasuredMixParams {
    std::size_t n = 150;
    double read_fraction = 0.9;
    std::size_t key_count = 200;
    double arrival_rate = 20.0;
    sim::Time horizon = 30 * sim::kSecond;
    std::uint64_t seed = 2008;
};

MeasuredConfig run_measured(const MeasuredMixParams& mp,
                            const std::string& label, std::size_t qa,
                            std::size_t ql, bool cache) {
    MeasuredConfig out;
    out.label = label;
    out.advertise = qa;
    out.lookup = ql;
    out.cache = cache;

    net::WorldParams wp;
    wp.n = mp.n;
    wp.seed = mp.seed;
    wp.oracle_neighbors = true;
    net::World world(wp);
    // Full membership view: the optimizer may size one quorum side well
    // past the paper's default 2*sqrt(n) view, which would silently cap
    // RANDOM sampling and fake the comparison.
    membership::OracleMembershipParams op;
    op.view_size = mp.n;
    membership::OracleMembership membership(world, op);
    core::BiquorumSpec spec;
    spec.eps = 0.05;
    spec.advertise.kind = core::StrategyKind::kRandom;
    spec.advertise.monotonic_store = true;
    spec.advertise.quorum_size = qa;
    spec.lookup.kind = core::StrategyKind::kRandom;
    spec.lookup.collect_all_replies = true;
    spec.lookup.quorum_size = ql;
    core::LocationService location(world, spec, &membership);
    svc::KvParams kp;
    kp.cache_quorums = cache;
    svc::KvService kv(location, kp);
    world.start();

    // Seed every key so Zipfian reads have data to find; not part of the
    // measured window.
    for (util::Key key = 1; key <= mp.key_count; ++key) {
        bool done = false;
        kv.write(0, key, static_cast<std::uint32_t>(key),
                 [&done](const svc::KvWriteResult&) { done = true; });
        while (!done && world.simulator().step()) {
        }
    }

    const std::uint64_t tx_before = world.metrics().net_data_tx;
    svc::KvWorkloadParams dp;
    dp.key_count = mp.key_count;
    dp.zipf_theta = 0.99;
    dp.read_fraction = mp.read_fraction;
    dp.arrival_rate = mp.arrival_rate;
    dp.horizon = mp.horizon;
    dp.drain = 40 * sim::kSecond;
    dp.seed = mp.seed ^ 0x5eedULL;
    svc::KvWorkloadDriver driver(kv, dp);
    out.report = driver.run();
    out.tx_total =
        static_cast<double>(world.metrics().net_data_tx - tx_before);
    out.msgs_per_op =
        out.report.issued > 0
            ? out.tx_total / static_cast<double>(out.report.issued)
            : 0.0;
    return out;
}

std::string measured_json(const MeasuredConfig& m) {
    const auto rs = m.report.read_latency.summary();
    const auto ws = m.report.write_latency.summary();
    return "{\"label\": \"" + m.label + "\"" +
           ", \"advertise\": " + fmt_u64(m.advertise) +
           ", \"lookup\": " + fmt_u64(m.lookup) +
           ", \"cache\": " + (m.cache ? "true" : "false") +
           ", \"issued\": " + fmt_u64(m.report.issued) +
           ", \"completed\": " + fmt_u64(m.report.completed) +
           ", \"censored\": " + fmt_u64(m.report.censored) +
           ", \"msgs_per_op\": " + fmt_double(m.msgs_per_op) +
           ", \"mrw_load\": " + fmt_double(m.report.load.mrw_load) +
           ", \"timeout_rate\": " + fmt_double(m.report.timeout_rate()) +
           ", \"inconclusive_rate\": " +
           fmt_double(m.report.inconclusive_rate()) +
           ", \"cache_hit_rate\": " +
           fmt_double(m.report.cache_hit_rate()) +
           ", \"read_p50_s\": " + fmt_double(rs.p50_s) +
           ", \"read_p95_s\": " + fmt_double(rs.p95_s) +
           ", \"read_p99_s\": " + fmt_double(rs.p99_s) +
           ", \"write_p50_s\": " + fmt_double(ws.p50_s) +
           ", \"write_p95_s\": " + fmt_double(ws.p95_s) +
           ", \"write_p99_s\": " + fmt_double(ws.p99_s) + "}";
}

}  // namespace
}  // namespace pqs::bench

int main(int argc, char** argv) {
    using namespace pqs;
    using namespace pqs::bench;

    bool smoke = false;
    std::string out_path = "BENCH_frontier.json";
    if (!parse_args(argc, argv, "bench_frontier", smoke, out_path)) {
        return 2;
    }

    Gate check;

    // ---- part 1: analytic sweep over lookup:advertise mixes ----
    core::OptimizerParams params;
    params.n = 400;
    params.eps = 0.05;
    params.load_weight = 1.0;
    core::WorkloadProfile profile;
    // Advertise payloads carry the value, lookups only the key: the cost
    // asymmetry that splits the message optimum from the load optimum.
    profile.cost_advertise = 2.0;
    profile.cost_lookup = 1.0;
    const double mixes[] = {9.0, 1.0, 1.0 / 9.0};

    std::printf("bench_frontier (%s): analytic mixes n=%zu eps=%g\n",
                smoke ? "smoke" : "full", params.n, params.eps);
    const double t0 = now_seconds();
    std::vector<core::OptimizerResult> analytic;
    int strict_wins = 0;
    for (const double tau : mixes) {
        profile.tau = tau;
        analytic.push_back(core::optimize_quorums(params, profile));
        const core::OptimizerResult& r = analytic.back();
        std::printf("  tau=%.3f best=%s qa=%zu ql=%zu J=%.2f "
                    "symmetric q=%zu J=%.2f improvement=%.1f%%\n",
                    tau, core::strategy_name(r.best.kind).c_str(),
                    r.best.advertise, r.best.lookup, r.best.objective,
                    r.symmetric.advertise, r.symmetric.objective,
                    100.0 * r.improvement);
        check(r.best.eps_bound <= params.eps + 1e-12,
              "optimizer pick misses the eps budget");
        check(r.best.objective <= r.symmetric.objective + 1e-9,
              "optimizer pick loses to symmetric sizing");
        for (std::size_t i = 1; i < r.frontier.size(); ++i) {
            check(r.frontier[i].msgs_per_op >=
                      r.frontier[i - 1].msgs_per_op,
                  "frontier not ascending in msgs_per_op");
            check(r.frontier[i].load_per_op <
                      r.frontier[i - 1].load_per_op,
                  "frontier not descending in load_per_op");
        }
        if (r.improvement > 1e-3) {
            ++strict_wins;
        }
    }
    check(strict_wins >= 2,
          "optimizer must beat symmetric sizing strictly at >= 2 mixes");
    const double analytic_wall = now_seconds() - t0;

    // ---- part 2: measured service traffic at two mixes ----
    MeasuredMixParams base;
    base.n = smoke ? 100 : 150;
    base.key_count = smoke ? 60 : 200;
    base.arrival_rate = smoke ? 10.0 : 20.0;
    base.horizon = (smoke ? 8 : 30) * sim::kSecond;

    struct MeasuredMix {
        double read_fraction = 0.0;
        double tau = 0.0;
        std::vector<MeasuredConfig> configs;
        core::OptimizerResult sizing;
    };
    std::vector<MeasuredMix> measured;
    const double t1 = now_seconds();
    for (const double read_fraction : {0.9, 0.5}) {
        MeasuredMix mix;
        mix.read_fraction = read_fraction;
        // Every KV op does a phase-1 lookup; only writes advertise, so
        // the service's lookup:advertise ratio is 1/(1 - read_fraction).
        mix.tau = 1.0 / (1.0 - read_fraction);

        core::OptimizerParams mparams;
        mparams.n = base.n;
        mparams.eps = 0.05;
        mparams.load_weight = 1.0;
        mparams.kinds = {core::StrategyKind::kRandom};
        core::WorkloadProfile mprofile;
        mprofile.tau = mix.tau;
        mix.sizing = core::optimize_quorums(mparams, mprofile);
        const std::size_t q_sym = mix.sizing.symmetric.advertise;
        const std::size_t qa = mix.sizing.best.advertise;
        const std::size_t ql = mix.sizing.best.lookup;

        MeasuredMixParams mp = base;
        mp.read_fraction = read_fraction;
        mix.configs.push_back(
            run_measured(mp, "symmetric", q_sym, q_sym, false));
        mix.configs.push_back(run_measured(mp, "optimized", qa, ql, false));
        mix.configs.push_back(
            run_measured(mp, "optimized_cached", qa, ql, true));
        for (const MeasuredConfig& c : mix.configs) {
            const auto rs = c.report.read_latency.summary();
            std::printf("  rf=%.1f %-16s qa=%zu ql=%zu msgs/op=%.1f "
                        "mrw=%.4f timeout=%.3f hit=%.2f p99=%.3fs\n",
                        read_fraction, c.label.c_str(), c.advertise,
                        c.lookup, c.msgs_per_op, c.report.load.mrw_load,
                        c.report.timeout_rate(),
                        c.report.cache_hit_rate(), rs.p99_s);
            check(c.report.issued > 0, "measured run issued no ops");
            check(c.report.timeout_rate() < 0.5,
                  "measured timeout rate blew up");
            check(c.report.load.mrw_load > 0.0,
                  "measured MRW load accounting stayed empty");
        }
        const MeasuredConfig& sym = mix.configs[0];
        const MeasuredConfig& opt = mix.configs[1];
        const MeasuredConfig& cached = mix.configs[2];
        check(opt.msgs_per_op < sym.msgs_per_op,
              "optimizer sizing did not reduce measured messages/op");
        check(cached.msgs_per_op <= opt.msgs_per_op * 1.02,
              "quorum cache made measured messages/op worse");
        check(cached.report.cache_hit_rate() > 0.3,
              "quorum cache never hit under steady traffic");
        measured.push_back(std::move(mix));
    }
    const double measured_wall = now_seconds() - t1;

    if (!check.ok) {
        return 1;
    }

    std::string json = "{\n";
    json += "  \"schema\": \"pqs.bench_frontier/1\",\n";
    json += "  \"mode\": \"" + std::string(smoke ? "smoke" : "full") +
            "\",\n";
    json += "  \"analytic\": {\n";
    json += "    \"n\": " + fmt_u64(params.n) + ",\n";
    json += "    \"eps\": " + fmt_double(params.eps) + ",\n";
    json += "    \"load_weight\": " + fmt_double(params.load_weight) +
            ",\n";
    json += "    \"cost_advertise\": " + fmt_double(profile.cost_advertise) +
            ",\n";
    json += "    \"cost_lookup\": " + fmt_double(profile.cost_lookup) +
            ",\n";
    json += "    \"wall_seconds\": " + fmt_double(analytic_wall) + ",\n";
    json += "    \"mixes\": [\n";
    for (std::size_t i = 0; i < analytic.size(); ++i) {
        const core::OptimizerResult& r = analytic[i];
        json += "      {\"tau\": " + fmt_double(mixes[i]) + ",\n";
        json += "       \"best\": " + candidate_json(r.best) + ",\n";
        json += "       \"symmetric\": " + candidate_json(r.symmetric) +
                ",\n";
        json += "       \"improvement\": " + fmt_double(r.improvement) +
                ",\n";
        json += "       \"frontier\": [\n";
        for (std::size_t j = 0; j < r.frontier.size(); ++j) {
            json += "         " + candidate_json(r.frontier[j]) +
                    (j + 1 < r.frontier.size() ? "," : "") + "\n";
        }
        json += "       ]}";
        json += (i + 1 < analytic.size() ? "," : "");
        json += "\n";
    }
    json += "    ]\n  },\n";
    json += "  \"measured\": {\n";
    json += "    \"n\": " + fmt_u64(base.n) + ",\n";
    json += "    \"eps\": 0.05,\n";
    json += "    \"key_count\": " + fmt_u64(base.key_count) + ",\n";
    json += "    \"zipf_theta\": 0.99,\n";
    json += "    \"arrival_rate\": " + fmt_double(base.arrival_rate) +
            ",\n";
    json += "    \"horizon_s\": " +
            fmt_double(static_cast<double>(base.horizon) /
                       static_cast<double>(sim::kSecond)) +
            ",\n";
    json += "    \"wall_seconds\": " + fmt_double(measured_wall) + ",\n";
    json += "    \"mixes\": [\n";
    for (std::size_t i = 0; i < measured.size(); ++i) {
        const MeasuredMix& mix = measured[i];
        json += "      {\"read_fraction\": " +
                fmt_double(mix.read_fraction) +
                ", \"tau\": " + fmt_double(mix.tau) + ",\n";
        json += "       \"configs\": [\n";
        for (std::size_t j = 0; j < mix.configs.size(); ++j) {
            json += "         " + measured_json(mix.configs[j]) +
                    (j + 1 < mix.configs.size() ? "," : "") + "\n";
        }
        json += "       ]}";
        json += (i + 1 < measured.size() ? "," : "");
        json += "\n";
    }
    json += "    ]\n  }\n}\n";

    if (!write_file(out_path, json)) {
        return 1;
    }
    std::printf("wrote %s\n", out_path.c_str());
    return 0;
}
