// AODV route table: an insert-only open-addressing map from destination
// to Route. AODV never forgets a destination (an invalidated route keeps
// its sequence number for the RERR and the next RREQ), so entries live in
// one dense array in insertion order and a power-of-two index of
// (destination, position) slots finds them. Iteration walks the dense
// array; growth rebuilds the index from it in place.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/time.h"
#include "util/check.h"
#include "util/ids.h"

namespace pqs::net {

struct Route {
    util::NodeId next_hop = util::kInvalidNode;
    std::uint16_t hops = 0;
    util::SeqNum seq = 0;
    bool seq_known = false;
    bool valid = false;
    sim::Time expiry = 0;
};

class RouteTable {
public:
    struct Entry {
        util::NodeId dst;
        Route route;
    };

    Route* find(util::NodeId dst) {
        const std::size_t i = probe(dst);
        return i == kAbsent ? nullptr : &entries_[index_[i].pos].route;
    }
    const Route* find(util::NodeId dst) const {
        const std::size_t i = probe(dst);
        return i == kAbsent ? nullptr : &entries_[index_[i].pos].route;
    }

    // The route to dst, default-inserted (invalid) when absent, as with
    // std::unordered_map::operator[]. Inserting invalidates references.
    Route& operator[](util::NodeId dst) {
        PQS_DCHECK(dst != util::kInvalidNode, "route to the broadcast id");
        if (Route* route = find(dst)) {
            return *route;
        }
        if ((entries_.size() + 1) * 2 > index_.size()) {
            grow();
        }
        entries_.push_back(Entry{dst, Route{}});
        place(dst, static_cast<std::uint32_t>(entries_.size() - 1));
        return entries_.back().route;
    }

    std::size_t size() const { return entries_.size(); }
    auto begin() { return entries_.begin(); }
    auto end() { return entries_.end(); }
    auto begin() const { return entries_.begin(); }
    auto end() const { return entries_.end(); }

private:
    struct Slot {
        util::NodeId dst = util::kInvalidNode;  // kInvalidNode = free
        std::uint32_t pos = 0;                  // index into entries_
    };
    static constexpr std::size_t kAbsent = ~std::size_t{0};
    static constexpr std::size_t kMinSlots = 8;

    // Slot holding dst, or kAbsent.
    std::size_t probe(util::NodeId dst) const {
        if (index_.empty()) {
            return kAbsent;
        }
        const std::size_t mask = index_.size() - 1;
        for (std::size_t i = util::id_slot(dst, shift_);
             index_[i].dst != util::kInvalidNode; i = (i + 1) & mask) {
            if (index_[i].dst == dst) {
                return i;
            }
        }
        return kAbsent;
    }

    void place(util::NodeId dst, std::uint32_t pos) {
        const std::size_t mask = index_.size() - 1;
        std::size_t i = util::id_slot(dst, shift_);
        while (index_[i].dst != util::kInvalidNode) {
            i = (i + 1) & mask;
        }
        index_[i] = Slot{dst, pos};
    }

    void grow() {
        const std::size_t slots =
            index_.empty() ? kMinSlots : 2 * index_.size();
        index_.assign(slots, Slot{});
        shift_ = 64 - static_cast<unsigned>(std::countr_zero(slots));
        for (std::size_t pos = 0; pos < entries_.size(); ++pos) {
            place(entries_[pos].dst, static_cast<std::uint32_t>(pos));
        }
    }

    std::vector<Entry> entries_;
    std::vector<Slot> index_;  // load factor <= 1/2
    unsigned shift_ = 64;      // 64 - log2(index_.size())
};

}  // namespace pqs::net
