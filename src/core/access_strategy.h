// Base machinery for quorum access strategies (§4): the shared service
// context, the strategy interface, the direct-access messages used by
// RANDOM / RANDOM-OPT, and a small pending-operation table with timeouts.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "core/lease.h"
#include "core/load_accountant.h"
#include "core/metrics.h"
#include "core/quorum_spec.h"
#include "core/reply_path.h"
#include "core/store.h"
#include "membership/membership.h"
#include "net/world.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/ids.h"

namespace pqs::core {

enum class AccessKind { kAdvertise, kLookup };

// Stores an advertised value, honoring the monotonic (versioned) policy.
inline void apply_advertise(LocalStore& store, util::Key key, Value value,
                            bool monotonic) {
    if (monotonic) {
        const std::optional<Value> current = store.find(key);
        if (current && *current >= value) {
            return;  // never let an older version overwrite a newer one
        }
    }
    store.store_owner(key, value);
}

// Operation-level retry (§6.1 under live churn): a failed or timed-out
// access is re-issued from the same origin after an exponentially growing
// backoff, as long as the origin itself is still alive. max_attempts = 1
// disables retries (the default; keeps every existing experiment's
// behavior and RNG stream untouched).
struct RetryPolicy {
    int max_attempts = 1;
    sim::Time backoff = 500 * sim::kMillisecond;
    double backoff_factor = 2.0;
};

// Shared state all strategies operate against. Owned by LocationService.
struct ServiceContext {
    net::World& world;
    membership::MembershipService* membership = nullptr;
    ReplyPathRouter* reply_router = nullptr;
    sim::Time op_timeout = 30 * sim::kSecond;
    RetryPolicy retry;
    // Timed quorums: every stored value lives `value_lease` from its last
    // (re-)advertise, then its holder evicts it. <= 0 disables leases —
    // no expiry events are ever scheduled, keeping existing experiments'
    // event streams untouched.
    sim::Time value_lease = 0;
    std::vector<LocalStore> stores;
    // §3 "Load" / MRW: per-node quorum-service counts and the top-level
    // access count, from which the L(S) = max access probability estimate
    // falls out (see core/load_accountant.h).
    LoadAccountant load;
    LeaseManager leases;

    explicit ServiceContext(net::World& w)
        : world(w), leases(w.simulator(), &stores) {
        leases.set_expire_counter(&w.metrics().lease_expirations);
    }

    LocalStore& store(util::NodeId id) {
        if (id >= stores.size()) {
            stores.resize(id + 1);
        }
        return stores[id];
    }

    // Advertise-path store: honors the monotonic policy and (re-)arms the
    // value's lease. Every holder-side store funnels through here so a
    // leased value cannot survive past its deadline anywhere.
    void store_value(util::NodeId at, util::Key key, Value value,
                     bool monotonic) {
        apply_advertise(store(at), key, value, monotonic);
        leases.arm(at, key, value_lease);
    }

    // Bystander cache fill (biquorum relays, §7.1): leased like any other
    // copy — an expired value must disappear from caches too.
    void cache_value(util::NodeId at, util::Key key, Value value) {
        store(at).store_bystander(key, value);
        leases.arm(at, key, value_lease);
    }

    void count_load(util::NodeId id) {
        load.count_touch(id);
        ++world.metrics().quorum_loads_counted;
    }
};

struct LoadSummary {
    double mean = 0.0;
    double max = 0.0;
    // Coefficient of variation (stddev/mean): 0 = perfectly balanced.
    double cv = 0.0;
    // MRW load L(S): the busiest alive node's touches over total accesses.
    double mrw_load = 0.0;
};

// Load statistics over the currently-alive nodes.
LoadSummary summarize_load(const ServiceContext& ctx);

// Shared one-bit probe: did this access touch a node holding the key?
// Written by remote handlers, read by the originator at resolve time
// (measurement only; mirrors Fig. 13's intersection-vs-reply split).
struct IntersectionProbe {
    bool intersected = false;
};

// Direct quorum access (RANDOM, RANDOM-OPT): ask `target` to store or look
// up a key; routed over AODV.
struct QuorumRequestMsg final : net::AppMessage {
    std::uint32_t strategy_tag = 0;
    util::AccessId op;
    AccessKind kind = AccessKind::kLookup;
    util::Key key = 0;
    Value value = 0;
    util::NodeId origin = util::kInvalidNode;
    bool want_reply = true;       // lookups ask for a routed reply on hit
    bool want_miss_reply = false; // serial lookups also want negative replies
    std::shared_ptr<IntersectionProbe> probe;

    std::size_t size_bytes() const override { return 512; }
};

// Routed lookup reply (RANDOM, RANDOM-OPT).
struct QuorumReplyMsg final : net::AppMessage {
    std::uint32_t strategy_tag = 0;
    util::AccessId op;
    util::Key key = 0;
    Value value = 0;
    bool found = false;
    util::NodeId responder = util::kInvalidNode;

    std::size_t size_bytes() const override { return 64; }
};

// Pending operations with timeout and single resolution.
//
// find()/open() hand out generation-checked Handles rather than raw
// pointers: a resolve (including one triggered reentrantly by a
// synchronous send_routed/deliver chain) bumps the entry out of the
// table, and any handle acquired before it aborts under PQS_DCHECK on
// its next dereference instead of silently reading freed memory. After
// any call that can re-enter the service, re-find() the op.
template <typename State>
class OpTable {
public:
    explicit OpTable(sim::Simulator& simulator) : simulator_(simulator) {}

    // Ops still pending at teardown hold scheduled timeout events whose
    // callbacks capture this table; cancel them so destroying a strategy
    // (and the service that owns it) mid-operation cannot leave the
    // simulator holding callbacks into freed memory.
    ~OpTable() {
        for (auto& [id, entry] : ops_) {
            if (entry.timer != sim::kInvalidEvent) {
                simulator_.cancel(entry.timer);
            }
        }
    }

    OpTable(const OpTable&) = delete;
    OpTable& operator=(const OpTable&) = delete;

    // Visits every pending op's state — used by strategy destructors to
    // cancel per-op timers they scheduled beside the table's own timeout.
    template <typename Fn>
    void for_each_state(Fn&& fn) {
        for (auto& [id, entry] : ops_) {
            fn(entry.state);
        }
    }

    struct Entry {
        State state{};
        AccessCallback callback;
        sim::Time started = 0;
        sim::EventId timer = sim::kInvalidEvent;
        std::uint64_t generation = 0;
    };

    class Handle {
    public:
        Handle() = default;

        // True when the lookup succeeded. Staleness is checked on
        // dereference, not here: re-find() is the way to re-validate.
        explicit operator bool() const { return entry_ != nullptr; }

        Entry* operator->() const {
            check_live();
            return entry_;
        }
        Entry& operator*() const {
            check_live();
            return *entry_;
        }

        // A handle whose entry has been resolved (or reopened) since
        // acquisition. Debug-only diagnostic; release builds skip it.
        bool stale() const {
            return entry_ != nullptr &&
                   table_->generation_of(id_) != generation_;
        }

    private:
        friend class OpTable;
        Handle(OpTable* table, util::AccessId id, Entry* entry)
            : table_(table), id_(id), entry_(entry),
              generation_(entry->generation) {}

        void check_live() const {
            PQS_DCHECK(entry_ != nullptr,
                       "dereference of empty OpTable handle");
            PQS_DCHECK(!stale(),
                       "stale OpTable handle for op origin="
                           << id_.origin << " seq=" << id_.seq
                           << " — the entry was resolved across a reentrant "
                              "send/deliver; re-find() it instead of holding "
                              "the handle");
        }

        OpTable* table_ = nullptr;
        util::AccessId id_{};
        Entry* entry_ = nullptr;
        std::uint64_t generation_ = 0;
    };

    // Opens an op. On timeout the op resolves with a default result marked
    // timed_out, after `timeout_fill` (if given) patched in what is known
    // (e.g. the intersection probe).
    Handle open(util::AccessId id, AccessCallback callback, sim::Time timeout,
                std::function<void(AccessResult&)> timeout_fill = {}) {
        Entry& entry = ops_[id];
        entry.callback = std::move(callback);
        entry.started = simulator_.now();
        entry.generation = next_generation_++;
        entry.timer = simulator_.schedule_in(
            timeout, [this, id, fill = std::move(timeout_fill)] {
                AccessResult result;
                result.timed_out = true;
                if (fill) {
                    fill(result);
                }
                resolve(id, result);
            });
        return Handle(this, id, &entry);
    }

    Handle find(util::AccessId id) {
        const auto it = ops_.find(id);
        if (it == ops_.end()) {
            return Handle();
        }
        return Handle(this, id, &it->second);
    }

    // Generation currently stored for `id`; 0 when the op is not open.
    // Generations start at 1, so 0 never matches a live handle.
    std::uint64_t generation_of(util::AccessId id) const {
        const auto it = ops_.find(id);
        return it == ops_.end() ? 0 : it->second.generation;
    }

    // Resolves and erases; fills latency. No-op if already resolved.
    bool resolve(util::AccessId id, AccessResult result) {
        const auto it = ops_.find(id);
        if (it == ops_.end()) {
            return false;
        }
        Entry entry = std::move(it->second);
        ops_.erase(it);
        if (entry.timer != sim::kInvalidEvent) {
            simulator_.cancel(entry.timer);
        }
        result.latency = simulator_.now() - entry.started;
        if (entry.callback) {
            entry.callback(result);
        }
        return true;
    }

    std::size_t size() const { return ops_.size(); }

private:
    sim::Simulator& simulator_;
    std::unordered_map<util::AccessId, Entry> ops_;
    std::uint64_t next_generation_ = 1;
};

class AccessStrategy {
public:
    AccessStrategy(ServiceContext& ctx, StrategyConfig config,
                   std::uint32_t tag)
        : ctx_(ctx), config_(config), tag_(tag) {}
    virtual ~AccessStrategy() = default;
    AccessStrategy(const AccessStrategy&) = delete;
    AccessStrategy& operator=(const AccessStrategy&) = delete;

    virtual std::string name() const = 0;

    // Installs this strategy's handlers on node `id`; called for every
    // existing node at service construction and for late joiners.
    virtual void attach_node(util::NodeId id) = 0;

    // Performs one quorum access of the configured kind from `origin`.
    // `trace` (0 = untraced) tags every message the access generates so
    // hop-level events land in the op's span.
    virtual void access(AccessKind kind, util::NodeId origin, util::Key key,
                        Value value, obs::TraceId trace,
                        AccessCallback done) = 0;

    // Like access(), but aimed at a caller-provided target set (a cached
    // quorum) instead of a fresh random pick. Strategies without a notion
    // of explicit targets ignore the hint and fall back to access().
    // Directed accesses must NOT self-heal around dead targets (no §6.2
    // replacements): a stale cache entry has to miss so the caller can
    // detect it and re-resolve.
    virtual void access_directed(AccessKind kind, util::NodeId origin,
                                 util::Key key, Value value,
                                 const std::vector<util::NodeId>& /*targets*/,
                                 obs::TraceId trace, AccessCallback done) {
        access(kind, origin, key, value, trace, std::move(done));
    }

    // Reverse-path reply addressed to one of this strategy's ops.
    virtual void on_reverse_reply(util::NodeId /*origin*/,
                                  const ReverseReplyMsg& /*msg*/) {}

    const StrategyConfig& config() const { return config_; }
    std::uint32_t tag() const { return tag_; }

    // Adapts the target quorum size at runtime (e.g. to a new network-size
    // estimate, §6.1/§6.3). Affects subsequent accesses only.
    void set_quorum_size(std::size_t q) { config_.quorum_size = q; }

protected:
    util::AccessId next_op(util::NodeId origin) {
        return util::AccessId{origin, next_seq_++};
    }

    ServiceContext& ctx_;
    StrategyConfig config_;
    std::uint32_t tag_;
    util::SeqNum next_seq_ = 1;
};

// Instantiates the strategy implementation selected by `config.kind`.
std::unique_ptr<AccessStrategy> make_strategy(ServiceContext& ctx,
                                              StrategyConfig config,
                                              std::uint32_t tag);

}  // namespace pqs::core
