// Binds a sim::ByzantinePlan to the net-layer reply tamper hook: the
// colluding adversary that drops, stales, fabricates, or replays quorum
// replies emitted by marked nodes. Installs itself as the World's tamper
// on construction and uninstalls on destruction. It schedules no events
// and draws no randomness — every behavior is a pure function of the plan
// and the traffic it observes — so constructing no adversary (or b = 0)
// leaves RNG streams and the golden fingerprint bit-identical.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "core/metrics.h"
#include "net/tamper.h"
#include "net/world.h"
#include "sim/byzantine_plan.h"
#include "util/ids.h"

namespace pqs::core {

class ByzantineAdversary final : public net::ReplyTamper {
public:
    ByzantineAdversary(net::World& world, const sim::ByzantinePlan& plan);
    ~ByzantineAdversary() override;
    ByzantineAdversary(const ByzantineAdversary&) = delete;
    ByzantineAdversary& operator=(const ByzantineAdversary&) = delete;

    // net::ReplyTamper: direct quorum replies (RANDOM strategies) and
    // in-transit reverse-path reply hops.
    net::TamperVerdict on_send(util::NodeId at, const net::AppMsgPtr& msg,
                               net::AppMsgPtr& forged) override;
    // Walk-reply origination (PATH / UNIQUE-PATH / sampling / FLOODING).
    bool on_reply_value(util::NodeId at, std::uint64_t key,
                        std::uint64_t& value, std::uint64_t trace) override;
    // Miss-path forging: a faulty quorum member answers lookups for keys
    // it does not hold (drop-behavior nodes stay silent — silence is
    // their whole repertoire).
    bool on_lookup_miss(util::NodeId at, std::uint64_t key,
                        std::uint64_t& forged_value) override;

    // Deterministic *colluding* fabrication: every fabricator answers the
    // same forged value for a key — the worst case the masking bound
    // prices, where all b faulty replies concur.
    static Value fabricate(util::Key key);

private:
    // Applies `behavior` to a (key, value) reply payload. Returns false
    // when the reply must be suppressed; otherwise value may be forged in
    // place. `found` distinguishes hit replies (whose truthful value the
    // colluding adversary memorizes) from negative ones.
    bool tamper_value(sim::ByzantineBehavior behavior, util::Key key,
                      Value& value, bool found);

    net::World& world_;
    const sim::ByzantinePlan& plan_;
    // Collusion memory: the first value ever seen per key (the stale lie)
    // and the previous reply per key (the replay source).
    std::unordered_map<util::Key, Value> first_seen_;
    std::unordered_map<util::Key, Value> last_reply_;
    // Keys with a miss-forged reply between on_lookup_miss and the
    // synchronous send that follows: on_send passes those through without
    // tampering (or counting) them a second time.
    std::unordered_map<util::Key, std::size_t> miss_lies_in_flight_;
};

}  // namespace pqs::core
