#include "net/rreq_flood.h"

#include <algorithm>
#include <bit>

#include "util/check.h"

namespace pqs::net {

std::size_t RreqFlood::home(util::NodeId node) const {
    return util::id_slot(node, shift_);
}

bool RreqFlood::test_and_set(util::NodeId node) {
    PQS_DCHECK(node != kEmpty, "flood records hold real node ids");
    if (!slots_.empty()) {
        const std::size_t mask = slots_.size() - 1;
        std::size_t i = home(node);
        for (; slots_[i] != kEmpty; i = (i + 1) & mask) {
            if (slots_[i] == node) {
                return false;
            }
        }
        if ((size_ + 1) * 2 <= slots_.size()) {
            slots_[i] = node;
            ++size_;
            return true;
        }
    }
    grow();
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = home(node);
    while (slots_[i] != kEmpty) {
        i = (i + 1) & mask;
    }
    slots_[i] = node;
    ++size_;
    return true;
}

void RreqFlood::grow() {
    // The old slots go to the pool's scratch buffer (whose storage this
    // record takes over), then are rehashed into a table twice the size.
    std::vector<util::NodeId>& old = pool_->scratch_;
    old.swap(slots_);
    const std::size_t slots = old.empty() ? kMinSlots : 2 * old.size();
    slots_.assign(slots, kEmpty);
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(slots));
    const std::size_t mask = slots - 1;
    for (const util::NodeId node : old) {
        if (node == kEmpty) {
            continue;
        }
        std::size_t i = home(node);
        while (slots_[i] != kEmpty) {
            i = (i + 1) & mask;
        }
        slots_[i] = node;
    }
}

void RreqFlood::reset() {
    // Clearing costs the table's size, which is at most 8x the nodes this
    // flood reached; a table grown by an earlier, wider flood is freed
    // instead, so a small ring never pays for a big one.
    if (slots_.size() > 4 * kMinSlots && slots_.size() > 8 * size_) {
        slots_.clear();
        slots_.shrink_to_fit();
        shift_ = 64;
    } else {
        std::fill(slots_.begin(), slots_.end(), kEmpty);
    }
    size_ = 0;
}

void FloodRef::reset() {
    if (flood_ != nullptr && --flood_->refs_ == 0) {
        flood_->pool_->release(flood_);
    }
    flood_ = nullptr;
}

FloodPool::~FloodPool() {
    PQS_DCHECK(live_ == 0, "a FloodRef outlived its World's flood pool");
}

FloodRef FloodPool::acquire() {
    RreqFlood* flood = nullptr;
    if (free_.empty()) {
        // Grows only while every record is in flight.
        records_.push_back(std::unique_ptr<RreqFlood>(new RreqFlood()));
        flood = records_.back().get();
        flood->pool_ = this;
    } else {
        flood = free_.back();
        free_.pop_back();
    }
    ++live_;
    return FloodRef(flood);
}

void FloodPool::release(RreqFlood* flood) {
    --live_;
    flood->reset();
    free_.push_back(flood);
}

}  // namespace pqs::net
