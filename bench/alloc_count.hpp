#pragma once

// Exact heap-allocation counting for the bench binaries. Linking
// alloc_count.cpp replaces the program-wide operator new/delete with
// versions that count every allocation (a relaxed atomic, so threads may
// allocate too), which makes a steady-state allocs/event or allocs/pkt
// figure exact rather than sampled.

#include <cstdint>

namespace clove::bench {

/// Heap allocations made through operator new since the process started.
[[nodiscard]] std::uint64_t alloc_count();

}  // namespace clove::bench
