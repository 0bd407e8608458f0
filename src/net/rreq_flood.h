// Flood-scoped RREQ duplicate suppression (RFC 3561 §6.3). A node must
// process each (originator, RREQ ID) flood at most once, so it has to
// remember the pair for as long as a copy of that flood can still reach
// it. Instead of a per-node set of every pair ever heard, one seen-record
// travels with the flood: broadcast_rreq draws it from the World's
// FloodPool, every copy of the RREQ (forwarded or duplicated) shares it
// through a FloodRef in its RreqBody, and the record goes back to the
// pool when the flood's last packet dies. No packet of the flood can be
// received after that, so "has this node seen (origin, id)" is answered
// exactly, with no expiry timer.
//
// A record is an open-addressing set of NodeIds sized to the nodes its
// flood reached, not to the network: a TTL-2 ring in a million-node world
// touches a few dozen slots.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "util/ids.h"

namespace pqs::net {

class FloodPool;

class RreqFlood {
public:
    // FloodRefs hold a record's address.
    RreqFlood(const RreqFlood&) = delete;
    RreqFlood& operator=(const RreqFlood&) = delete;

    // Marks `node` as having processed the flood; true iff it had not.
    bool test_and_set(util::NodeId node);
    // Nodes marked so far, and the slots holding them.
    std::size_t size() const { return size_; }
    std::size_t capacity() const { return slots_.size(); }

private:
    friend class FloodPool;
    friend class FloodRef;

    static constexpr util::NodeId kEmpty = util::kInvalidNode;
    static constexpr std::size_t kMinSlots = 16;

    RreqFlood() = default;  // records come from a FloodPool
    std::size_t home(util::NodeId node) const;
    void grow();
    void reset();

    std::vector<util::NodeId> slots_;  // power-of-two size; kEmpty = free
    std::size_t size_ = 0;
    unsigned shift_ = 64;  // 64 - log2(slots_.size())
    std::uint32_t refs_ = 0;
    FloodPool* pool_ = nullptr;
};

// Shared handle to a pooled RreqFlood. Reference counting is intrusive
// and non-atomic: a World, its packets and its floods live on one thread.
class FloodRef {
public:
    FloodRef() = default;
    FloodRef(const FloodRef& other) : flood_(other.flood_) {
        if (flood_ != nullptr) {
            ++flood_->refs_;
        }
    }
    FloodRef(FloodRef&& other) noexcept
        : flood_(std::exchange(other.flood_, nullptr)) {}
    FloodRef& operator=(FloodRef other) noexcept {
        std::swap(flood_, other.flood_);
        return *this;
    }
    ~FloodRef() { reset(); }

    void reset();
    RreqFlood* get() const { return flood_; }
    RreqFlood* operator->() const { return flood_; }
    explicit operator bool() const { return flood_ != nullptr; }

private:
    friend class FloodPool;
    explicit FloodRef(RreqFlood* flood) : flood_(flood) { ++flood_->refs_; }

    RreqFlood* flood_ = nullptr;
};

// Recycler of flood records, owned by the World like its packet pool and
// declared before it: every FloodRef lives in a packet (or an event
// holding one), so records all come home before the pool dies.
class FloodPool {
public:
    FloodPool() = default;
    FloodPool(const FloodPool&) = delete;
    FloodPool& operator=(const FloodPool&) = delete;
    ~FloodPool();  // checks that no record is still live

    // A cleared record, recycled when one is free.
    FloodRef acquire();

    // Records held by at least one FloodRef.
    std::size_t live() const { return live_; }

private:
    friend class FloodRef;
    friend class RreqFlood;

    void release(RreqFlood* flood);

    std::vector<std::unique_ptr<RreqFlood>> records_;  // live and free
    std::vector<RreqFlood*> free_;
    std::size_t live_ = 0;
    // Rehash buffer: a growing record swaps its old slots in here, so the
    // pool recycles slot storage between growths.
    std::vector<util::NodeId> scratch_;
};

}  // namespace pqs::net
