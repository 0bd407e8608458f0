// Quickstart: build a 200-node ad hoc network, attach a probabilistic
// biquorum location service (RANDOM advertise x UNIQUE-PATH lookup — the
// paper's recommended asymmetric mix), publish a mapping and look it up.
//
//   ./quickstart [nodes] [seed]
#include <cstdio>
#include <cstdlib>

#include "core/location_service.h"
#include "membership/oracle_membership.h"

using namespace pqs;

int main(int argc, char** argv) {
    const std::size_t n = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 200;
    const std::uint64_t seed =
        argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 42;

    // 1. A connected ad hoc network, density-scaled per the paper (§2.4).
    net::WorldParams world_params;
    world_params.n = n;
    world_params.seed = seed;
    world_params.avg_degree = 10.0;
    net::World world(world_params);

    // 2. A membership service supplying uniform random node samples.
    membership::OracleMembership membership(world);

    // 3. The biquorum system: RANDOM advertise, UNIQUE-PATH lookup, sized
    //    for 95% intersection by Corollary 5.3.
    core::BiquorumSpec spec;
    spec.advertise.kind = core::StrategyKind::kRandom;
    spec.lookup.kind = core::StrategyKind::kUniquePath;
    spec.eps = 0.05;
    core::LocationService service(world, spec, &membership);

    world.start();
    world.simulator().run_until(12 * sim::kSecond);  // one heartbeat cycle

    std::printf("network: %zu nodes, side %.0f m, advertise quorum %zu, "
                "lookup quorum %zu\n",
                n, world.side(),
                service.biquorum().spec().advertise.quorum_size,
                service.biquorum().spec().lookup.quorum_size);
    std::printf("analytic intersection guarantee: %.3f\n",
                service.biquorum().intersection_guarantee());

    // 4. Node 3 publishes "key 7001 is at location 555".
    bool published = false;
    service.advertise(3, 7001, 555, [&](const core::AccessResult& r) {
        std::printf("advertise: ok=%d, stored at %zu nodes, latency %.0f ms\n",
                    r.ok, r.nodes_contacted,
                    sim::to_seconds(r.latency) * 1e3);
        published = true;
    });
    while (!published && world.simulator().step()) {
    }

    // 5. A node on the other side of the network looks it up with a single
    //    self-avoiding random walk.
    bool found = false;
    service.lookup(static_cast<util::NodeId>(n - 1), 7001,
                   [&](const core::AccessResult& r) {
        if (r.ok) {
            std::printf("lookup: HIT value=%llu after touching %zu nodes, "
                        "latency %.0f ms\n",
                        static_cast<unsigned long long>(*r.value),
                        r.nodes_contacted,
                        sim::to_seconds(r.latency) * 1e3);
        } else {
            std::printf("lookup: miss (intersected=%d)\n", r.intersected);
        }
        found = true;
    });
    while (!found && world.simulator().step()) {
    }

    const util::KernelStats& msgs = world.metrics();
    std::printf("total network-layer messages: data=%llu routing=%llu "
                "hello=%llu\n",
                static_cast<unsigned long long>(msgs.net_data_tx),
                static_cast<unsigned long long>(msgs.net_routing_tx),
                static_cast<unsigned long long>(msgs.net_hello_tx));
    return 0;
}
