// The one counter block of a simulation run: the event queue
// (schedule/fire/cancel, heap ops, slab recycling), the spatial grid
// (queries, candidate scans, moves), the packet pool, the network-layer
// message counters the paper's cost metric is built from (data, routing
// and hello transmissions, membership walk hops), and the application
// hooks (load, Byzantine tampers, energy, leases). Every counter is
// driven purely by simulation behaviour, so for a fixed seed the whole
// block is deterministic — bench and regression harnesses assert on it
// verbatim, while wall-clock time stays a separate, informational
// measurement.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string_view>

namespace pqs::util {

// X-macro over every counter; the single source of truth for merging,
// reporting and JSON export, so adding a counter here is all it takes.
//
// The heap_* counters count heap *entries*, and one entry may stand for a
// run of same-time events scheduled back to back (see
// sim/event_queue.h). Where runs form — the full-fidelity channel's
// fan-out — heap_pushes, heap_pops and heap_moves per event are ~30×
// lower than one entry per event would give, while the events_* counters
// count every event as before.
#define PQS_KERNEL_STATS_FIELDS(X)                                        \
    X(events_scheduled)  /* EventQueue::schedule calls */                 \
    X(events_fired)      /* live events returned by pop() */             \
    X(events_cancelled)  /* successful cancel() calls */                 \
    X(heap_pushes)       /* heap insertions (a run is one) */            \
    X(heap_pops)         /* heap root removals (live + stale) */         \
    X(heap_moves)        /* entry copies during sift up/down */          \
    X(stale_drops)       /* cancelled entries or run items skipped */    \
    X(slab_reuses)       /* event slots recycled from the free list */   \
    X(callback_heap_allocs) /* callbacks too large for inline storage */ \
    X(calendar_pushes)   /* far-future events parked in the calendar */  \
    X(calendar_migrations) /* calendar entries promoted into the heap */ \
    X(grid_queries)      /* SpatialGrid::query calls */                  \
    X(grid_candidates)   /* nodes distance-tested by queries */          \
    X(grid_moves)        /* SpatialGrid::move calls */                   \
    X(grid_cell_crossings) /* moves that changed grid cell */            \
    X(grid_rebuilds)     /* flat-storage compactions (cell overflow) */  \
    X(packet_allocs)     /* packet blocks taken from the heap */         \
    X(packet_pool_reuses) /* packet blocks recycled from the pool */     \
    X(alive_snapshots)   /* alive_nodes()/neighbor vector copies */       \
    X(quorum_loads_counted) /* per-node access-load increments (MRW) */   \
    X(byzantine_tampers) /* replies dropped/forged by the adversary */    \
    X(energy_sleep_transitions) /* duty-cycle sleep entries */            \
    X(energy_depletions) /* batteries that hit zero (permanent death) */  \
    X(lease_expirations) /* leased values evicted at their deadline */    \
    X(refreshes_deferred) /* refresher ticks deferred: owner asleep */   \
    X(net_data_tx)       /* data frames handed to the link */             \
    X(net_routing_tx)    /* RREQ/RREP/RERR frames handed to the link */   \
    X(net_hello_tx)      /* hello beacons handed to the link */           \
    X(membership_msgs)   /* RaWMS random-walk hops sent */

struct KernelStats {
#define PQS_KERNEL_STATS_DECL(field) std::uint64_t field = 0;
    PQS_KERNEL_STATS_FIELDS(PQS_KERNEL_STATS_DECL)
#undef PQS_KERNEL_STATS_DECL

    KernelStats& operator+=(const KernelStats& other) {
#define PQS_KERNEL_STATS_ADD(field) field += other.field;
        PQS_KERNEL_STATS_FIELDS(PQS_KERNEL_STATS_ADD)
#undef PQS_KERNEL_STATS_ADD
        return *this;
    }

    // The counter called `name`, read through the field list below. A
    // '.' in `name` matches a '_' in the field name, so "net.data.tx"
    // reads net_data_tx. Throws std::invalid_argument for unknown names.
    double counter(std::string_view name) const;
};

// One named view per counter, in declaration order — lets report/JSON
// code iterate the block generically.
struct KernelStatsField {
    const char* name;
    std::uint64_t (*get)(const KernelStats&);
};
const KernelStatsField* kernel_stats_fields(std::size_t* count);

// Prints the block as a single "[perf] kernel <label>: ..." line to
// `stream` (stderr by default, matching exp::report_perf: stdout tables
// stay byte-identical while perf telemetry goes to the side channel).
void report_kernel_stats(const KernelStats& stats, const char* label,
                         std::FILE* stream = stderr);

}  // namespace pqs::util
