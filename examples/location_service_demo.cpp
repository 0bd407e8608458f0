// Location service under stress: a mobile ad hoc network with churn, where
// nodes continuously publish and resolve locations while the maintenance
// layer (QuorumRefresher + network-size estimation, §6) keeps the service
// healthy. Prints a periodic health report.
//
//   ./location_service_demo [nodes] [minutes-of-simulated-time]
#include <cstdio>
#include <cstdlib>

#include "core/maintenance.h"
#include "membership/oracle_membership.h"

using namespace pqs;

int main(int argc, char** argv) {
    const std::size_t n = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 150;
    const int minutes = argc > 2 ? std::atoi(argv[2]) : 5;

    net::WorldParams wp;
    wp.n = n;
    wp.seed = 7;
    wp.avg_degree = 14.0;  // headroom so churn keeps the network connected
    wp.mobile = true;
    wp.waypoint.min_speed = 0.5;
    wp.waypoint.max_speed = 2.0;
    wp.oracle_neighbors = false;
    net::World world(wp);
    membership::OracleMembership membership(world);

    core::BiquorumSpec spec;
    spec.advertise.kind = core::StrategyKind::kRandom;
    spec.lookup.kind = core::StrategyKind::kUniquePath;
    spec.eps = 0.05;
    core::LocationService service(world, spec, &membership);

    // Refresh every node's publications on the §6.1-derived schedule: the
    // demo churns ~0.2%/s, and we keep the miss bound under 0.15.
    core::QuorumRefresher::Params refresher_params;
    refresher_params.eps_max = 0.15;
    refresher_params.churn_fraction_per_sec = 0.002;
    core::QuorumRefresher refresher(service, refresher_params);
    std::printf("refresh interval from degradation analysis: %.0f s\n",
                sim::to_seconds(refresher.interval()));

    world.start();
    sim::Simulator& simulator = world.simulator();
    util::Rng rng(99);

    // Every node publishes its own "location" and refreshes it.
    simulator.schedule_at(15 * sim::kSecond, [&] {
        for (const util::NodeId id : world.alive_nodes()) {
            service.advertise(id, 10000 + id, id, nullptr);
            refresher.start_node(id);
        }
    });

    // Churn: every 10 s one random node dies and a new one joins.
    std::function<void()> churn = [&] {
        const auto alive = world.alive_nodes();
        world.fail_node(alive[rng.index(alive.size())]);
        const util::NodeId joiner = world.spawn_node();
        service.advertise(joiner, 10000 + joiner, joiner, nullptr);
        refresher.start_node(joiner);
        simulator.schedule_in(10 * sim::kSecond, churn);
    };
    simulator.schedule_at(30 * sim::kSecond, churn);

    // Lookup workload + periodic report.
    struct Stats {
        std::size_t lookups = 0;
        std::size_t hits = 0;
        double msgs_at_last_report = 0.0;
    } stats;
    std::function<void()> workload = [&] {
        const auto alive = world.alive_nodes();
        const util::NodeId who = alive[rng.index(alive.size())];
        const util::NodeId target = alive[rng.index(alive.size())];
        service.lookup(who, 10000 + target, [&](const core::AccessResult& r) {
            ++stats.lookups;
            stats.hits += r.ok ? 1 : 0;
        });
        simulator.schedule_in(2 * sim::kSecond, workload);
    };
    simulator.schedule_at(40 * sim::kSecond, workload);

    std::printf("%8s %8s %8s %10s %12s %14s\n", "time", "alive", "lookups",
                "hit-rate", "refreshes", "data msgs/s");
    for (int minute = 1; minute <= minutes; ++minute) {
        simulator.run_until(minute * 60 * sim::kSecond);
        const auto msgs = static_cast<double>(world.metrics().net_data_tx);
        std::printf("%7dm %8zu %8zu %10.3f %12zu %14.1f\n", minute,
                    world.alive_count(), stats.lookups,
                    stats.lookups ? static_cast<double>(stats.hits) /
                                        static_cast<double>(stats.lookups)
                                  : 0.0,
                    refresher.refreshes_performed(),
                    (msgs - stats.msgs_at_last_report) / 60.0);
        stats.msgs_at_last_report = msgs;
    }
    std::printf("final network size estimate via birthday paradox: ");
    core::NetworkSizeEstimator estimator(membership, util::Rng(5));
    if (const auto est =
            estimator.estimate_across(world.alive_nodes(), /*rounds=*/3)) {
        std::printf("%.0f (true alive: %zu)\n", *est, world.alive_count());
    } else {
        std::printf("not enough collisions\n");
    }
    return 0;
}
