// Strongly typed identifiers shared across the stack.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>

namespace pqs::util {

// Index of a node in the simulated network. Dense, assigned at creation;
// never reused within a run (nodes that leave keep their id so that stale
// membership entries and in-flight packets can refer to them).
using NodeId = std::uint32_t;
inline constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();

// Key of a published data item in the location service.
using Key = std::uint64_t;

// Per-node monotonically increasing sequence numbers (quorum accesses,
// random-walk ids, AODV sequence numbers).
using SeqNum = std::uint32_t;

// Home slot of `id` in an open-addressing table of 2^(64 - shift) slots
// (Fibonacci hashing: dense ids spread over the high product bits).
inline std::size_t id_slot(NodeId id, unsigned shift) {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(id) * 0x9e3779b97f4a7c15ULL) >> shift);
}

// Globally unique id of a quorum access / random walk: origin plus sequence.
struct AccessId {
    NodeId origin = kInvalidNode;
    SeqNum seq = 0;

    friend bool operator==(const AccessId&, const AccessId&) = default;
    friend auto operator<=>(const AccessId&, const AccessId&) = default;
};

}  // namespace pqs::util

template <>
struct std::hash<pqs::util::AccessId> {
    std::size_t operator()(const pqs::util::AccessId& id) const noexcept {
        const std::uint64_t packed =
            (static_cast<std::uint64_t>(id.origin) << 32) | id.seq;
        // splitmix64-style finalizer.
        std::uint64_t z = packed + 0x9e3779b97f4a7c15ULL;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return static_cast<std::size_t>(z ^ (z >> 31));
    }
};
