// Trace demo: run one fixed-seed live-churn scenario with op-level tracing
// enabled and dump the Chrome trace-event JSON. Open the emitted file in
// chrome://tracing or https://ui.perfetto.dev: every advertise/lookup is an
// async span (id = TraceId) with nested quorum/packet/MAC events.
//
//   ./trace_demo [--smoke] [--out BASE] [--seed S]
//
// --smoke shrinks the run for CI (scripts/check.sh validates the emission
// with scripts/check_trace_json.py); the default is the paper-sized n=200
// network under continuous churn.
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "core/scenario.h"
#include "obs/trace.h"

using namespace pqs;

int main(int argc, char** argv) {
    bool smoke = false;
    std::string out_base = "pqs_trace_demo";
    std::uint64_t seed = 12345;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out_base = argv[++i];
        } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
            seed = std::strtoull(argv[++i], nullptr, 10);
        } else {
            std::fprintf(stderr,
                         "usage: %s [--smoke] [--out BASE] [--seed S]\n",
                         argv[0]);
            return 2;
        }
    }

    obs::TraceOptions opts;
    opts.enabled = true;
    opts.out_base = out_base;
    opts.capacity = 1 << 18;
    obs::set_trace_options(opts);

    core::ScenarioParams params;
    params.world.n = smoke ? 40 : 200;
    params.world.seed = seed;
    params.world.avg_degree = 15.0;
    params.world.oracle_neighbors = true;
    params.spec.advertise.kind = core::StrategyKind::kRandom;
    params.spec.lookup.kind = core::StrategyKind::kRandom;
    params.spec.eps = 0.05;
    params.advertise_count = smoke ? 8 : 40;
    params.lookup_count = smoke ? 20 : 150;
    params.lookup_nodes = smoke ? 5 : 15;
    params.warmup = 2 * sim::kSecond;
    params.op_spacing = 100 * sim::kMillisecond;
    // Continuous churn while the lookups run: crashes, joins, recoveries
    // and op retries all show up in the trace.
    params.live.enabled = true;
    params.live.crash_fraction_per_sec = smoke ? 0.005 : 0.01;
    params.live.join_fraction_per_sec = smoke ? 0.005 : 0.01;
    params.live.recover_probability = 0.5;
    params.op_max_attempts = 3;
    params.op_retry_backoff = 500 * sim::kMillisecond;

    const core::ScenarioResult result = core::run_scenario(params);

    const std::string path = obs::trace_output_path(out_base, seed);
    std::printf("trace written to %s\n", path.c_str());
    std::printf("n=%zu hit_ratio=%.3f timeout_rate=%.3f "
                "avg_lookup_latency=%.1fms\n",
                result.n, result.hit_ratio, result.timeout_rate,
                result.avg_lookup_latency_s * 1e3);
    if (result.latency_hist.total() > 0) {
        std::printf("lookup latency p50=%.1fms p95=%.1fms p99=%.1fms "
                    "(n=%llu ok)\n",
                    result.latency_hist.quantile(0.50) * 1e3,
                    result.latency_hist.quantile(0.95) * 1e3,
                    result.latency_hist.quantile(0.99) * 1e3,
                    static_cast<unsigned long long>(
                        result.latency_hist.total()));
    }
    return 0;
}
