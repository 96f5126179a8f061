#pragma once

// clove::prof — the engine's self-profiler (DESIGN.md §10).
//
// Answers "where does simulator wall-clock go" with a fixed taxonomy of
// scoped regions over the hot loop (event dispatch, link serialization and
// propagation, switch forwarding, hypervisor/policy decisions, transport,
// telemetry/flight-recorder overhead itself), plus the engine's memory
// story: event-queue/slab high-water marks, PacketPool churn, util::FlatMap
// occupancy and probe lengths, and process peak RSS.
//
// Cost model:
//   * CLOVE_PROF=off (default): no Profiler is installed; every
//     CLOVE_PROF_SCOPE reduces to one thread-local pointer load and a
//     predictable branch — the same discipline as the flight recorder, and
//     pinned at zero by the interleaved prof_guard arm of
//     bench_fabric_forwarding.
//   * summary: two monotonic-clock reads per scope plus a handful of plain
//     adds — per-scope self/total ns and counts only.
//   * full: summary plus a log2-bucket latency histogram per scope and a
//     folded-path table (nibble-packed scope stacks -> self ns) for
//     flamegraphs and Chrome traces.
//
// Profiling never touches simulation state: results are bit-identical with
// the profiler on, off, or at any CLOVE_THREADS (pinned by test_prof.cpp).
// Aggregation across ParallelRunner tasks is deterministic: each task
// profiles into its own Profiler and the runner merges them in task-index
// order (merge is commutative per key, so the folded output is stable).

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/flat_map.hpp"

namespace clove::prof {

/// CLOVE_PROF values. kOff installs nothing; see the cost model above.
enum class Mode { kOff, kSummary, kFull };

/// The scope taxonomy. Fixed and small on purpose: ids pack into 4-bit path
/// nibbles (kScopeCount must stay < 15) and index plain arrays, so the hot
/// path never hashes a string. Extend by appending — ids are stable in
/// exported artifacts.
enum ScopeId : std::uint8_t {
  kDispatch = 0,    ///< one simulator event: dequeue + callback
  kLinkTx,          ///< link serialization (tx-done processing)
  kLinkDeliver,     ///< propagation drain + hand-off to the receiver
  kSwitchForward,   ///< switch receive: route lookup + egress pick + enqueue
  kHypervisor,      ///< vswitch encap/decap/feedback pipeline
  kPolicy,          ///< load-balancer path decision
  kTransport,       ///< TCP/MPTCP segment processing
  kWorkload,        ///< job generation / completion bookkeeping
  kDiscovery,       ///< traceroute path discovery
  kTelemetry,       ///< metrics snapshot / trace + artifact export
  kFlight,          ///< flight-recorder summary, audits, export
  kOther,           ///< escape hatch (also absorbs stack overflow)
  kShardSync,       ///< reserved, always 0: perfbench reads every scope name
  kHybrid,          ///< hybrid flow/packet engine: rate solver + fluid advance
  kScopeCount
};

static_assert(kScopeCount < 15, "scope ids must fit a 4-bit path nibble");

[[nodiscard]] const char* scope_name(ScopeId id);

/// Occupancy / probe-length digest of one util::FlatMap (see
/// FlatMap::probe_stats()). `probe_sum` is the summed displacement of live
/// entries from their home slot, so mean probe length = probe_sum / size.
struct TableStats {
  std::uint64_t size{0};
  std::uint64_t capacity{0};
  std::uint64_t tombstones{0};
  std::uint64_t probe_sum{0};
  std::uint64_t max_probe{0};
};

/// Fixed 64-bucket log2 latency histogram: bucket b holds durations with
/// bit_width(ns) == b, i.e. [2^(b-1), 2^b). Bucket 0 is ns == 0. Cheap to
/// observe (one bit_width + add), trivially mergeable, deterministic.
class LatencyHistogram {
 public:
  static constexpr int kBuckets = 64;

  void observe(std::uint64_t ns) {
    ++buckets_[bucket_index(ns)];
    ++count_;
    sum_ += ns;
  }
  [[nodiscard]] static int bucket_index(std::uint64_t ns) {
    int b = 0;
    while (ns != 0) {
      ns >>= 1;
      ++b;
    }
    return b < kBuckets ? b : kBuckets - 1;
  }
  /// Lower edge of bucket b (0 for the zero bucket).
  [[nodiscard]] static std::uint64_t bucket_lower(int b) {
    return b <= 0 ? 0 : (1ull << (b - 1));
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::uint64_t sum() const { return sum_; }
  [[nodiscard]] std::uint64_t bucket(int b) const { return buckets_[b]; }
  /// p in [0,100]; linear interpolation inside the winning bucket.
  [[nodiscard]] double percentile(double p) const;

  void merge_from(const LatencyHistogram& o) {
    for (int b = 0; b < kBuckets; ++b) buckets_[b] += o.buckets_[b];
    count_ += o.count_;
    sum_ += o.sum_;
  }

 private:
  std::uint64_t buckets_[kBuckets]{};
  std::uint64_t count_{0};
  std::uint64_t sum_{0};
};

/// Per-scope aggregate. `self_ns` excludes child scopes; `total_ns` is
/// inclusive and counted only at the outermost frame of a recursive chain,
/// so per-scope fractions never exceed the profiled wall clock.
struct ScopeStat {
  std::uint64_t count{0};
  std::uint64_t self_ns{0};
  std::uint64_t total_ns{0};
};

/// One profiling domain: a scope stack plus aggregates. Not thread-safe —
/// exactly one Profiler is installed per thread (InstallGuard), mirroring
/// telemetry::Scope. Merge across tasks/threads happens after the fact via
/// merge_from().
class Profiler {
 public:
  static constexpr int kMaxDepth = 64;
  static constexpr int kMaxPathDepth = 15;  ///< nibbles in a packed path key

  explicit Profiler(Mode mode = Mode::kSummary) : mode_(mode) {}
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  [[nodiscard]] Mode mode() const { return mode_; }

  // --- hot path (called by prof::Scope) ----------------------------------
  /// Returns false when the stack is full; the caller then skips on_exit.
  bool on_enter(ScopeId id) {
    if (depth_ >= kMaxDepth) {
      ++overflow_;
      return false;
    }
    Frame& f = stack_[depth_];
    f.id = id;
    f.child_ns = 0;
    f.path = depth_ < kMaxPathDepth
                 ? (depth_ == 0 ? 0 : stack_[depth_ - 1].path) |
                       (static_cast<std::uint64_t>(id) + 1)
                           << (4 * depth_)
                 : stack_[depth_ - 1].path;
    ++depth_;
    ++recursion_[id];
    return true;
  }

  void on_exit(std::uint64_t elapsed_ns) {
    Frame& f = stack_[--depth_];
    const std::uint64_t self =
        elapsed_ns > f.child_ns ? elapsed_ns - f.child_ns : 0;
    ScopeStat& s = stats_[f.id];
    ++s.count;
    s.self_ns += self;
    if (--recursion_[f.id] == 0) s.total_ns += elapsed_ns;
    if (depth_ > 0) stack_[depth_ - 1].child_ns += elapsed_ns;
    if (mode_ == Mode::kFull) {
      hist_[f.id].observe(elapsed_ns);
      auto [cell, inserted] = paths_.try_emplace(f.path);
      cell->self_ns += self;
      ++cell->count;
      (void)inserted;
    }
  }

  // --- engine gauges (cold path) ------------------------------------------
  /// Fold in one simulation's event-queue story: live-event high-water mark
  /// and slab capacity (max-merged), events dispatched (summed).
  void note_simulator(std::uint64_t events, std::uint64_t queue_hwm,
                      std::uint64_t slab_capacity) {
    events_ += events;
    if (queue_hwm > queue_hwm_) queue_hwm_ = queue_hwm;
    if (slab_capacity > slab_capacity_) slab_capacity_ = slab_capacity;
    ++sims_;
  }
  /// Fold in one PacketPool's churn counters (summed).
  void note_pool(std::uint64_t allocated, std::uint64_t reused) {
    pool_allocated_ += allocated;
    pool_reused_ += reused;
  }
  /// Fold in one named FlatMap digest. Same-named tables aggregate (sizes
  /// and probe sums add, max probe maxes) so a fleet of per-switch flowlet
  /// tables reads as one row.
  void note_table(const std::string& name, const TableStats& t);

  // --- aggregation --------------------------------------------------------
  /// Fold another profiler's aggregates into this one. Commutative and
  /// associative per key, so any merge order yields identical exports; the
  /// parallel runner still merges in task-index order for good measure.
  void merge_from(const Profiler& o);

  // --- accessors / export -------------------------------------------------
  [[nodiscard]] const ScopeStat& stat(ScopeId id) const { return stats_[id]; }
  [[nodiscard]] const LatencyHistogram& histogram(ScopeId id) const {
    return hist_[id];
  }
  [[nodiscard]] std::uint64_t overflow() const { return overflow_; }
  [[nodiscard]] std::uint64_t events() const { return events_; }
  [[nodiscard]] std::uint64_t queue_hwm() const { return queue_hwm_; }
  [[nodiscard]] std::uint64_t slab_capacity() const { return slab_capacity_; }
  [[nodiscard]] int depth() const { return depth_; }

  /// Scope ids ordered by descending self time (ties by id), zero-self
  /// scopes excluded — the "top-N time sinks" view.
  [[nodiscard]] std::vector<ScopeId> top_sinks() const;

  /// The self-profile section embedded in JSON run artifacts. Serialized
  /// here (not via telemetry::Json) so prof stays a leaf library. A pure
  /// function of the folded-in aggregates: process gauges such as peak RSS
  /// belong to the enclosing artifact, which samples them once at export.
  [[nodiscard]] std::string to_json(int indent = 2) const;

  /// Folded flamegraph lines: "clove;dispatch;switch_forward 1234\n",
  /// sorted, value = self ns. Empty unless mode is kFull.
  [[nodiscard]] std::string folded() const;

  /// Chrome trace-event JSON (chrome://tracing / Perfetto): the folded tree
  /// laid out as one synthetic timeline of complete ("X") events, children
  /// nested inside parents, microsecond units. Empty unless mode is kFull.
  [[nodiscard]] std::string chrome_trace() const;

 private:
  struct Frame {
    ScopeId id{kOther};
    std::uint64_t child_ns{0};
    std::uint64_t path{0};
  };
  struct PathCell {
    std::uint64_t self_ns{0};
    std::uint64_t count{0};
  };
  struct TableAgg {
    TableStats sum;       ///< sizes/capacities/tombstones/probe_sum added
    std::uint64_t n{0};   ///< tables folded in
  };
  /// Sorted (path, cell) pairs — the deterministic view of paths_.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, PathCell>> sorted_paths()
      const;
  static std::string path_string(std::uint64_t path);

  Mode mode_;
  Frame stack_[kMaxDepth];
  int depth_{0};
  std::uint32_t recursion_[kScopeCount]{};
  ScopeStat stats_[kScopeCount]{};
  LatencyHistogram hist_[kScopeCount]{};
  util::FlatMap<std::uint64_t, PathCell> paths_;
  std::map<std::string, TableAgg> tables_;  ///< ordered for stable export
  std::uint64_t overflow_{0};
  std::uint64_t events_{0};
  std::uint64_t queue_hwm_{0};
  std::uint64_t slab_capacity_{0};
  std::uint64_t pool_allocated_{0};
  std::uint64_t pool_reused_{0};
  std::uint64_t sims_{0};
};

namespace detail {
/// The profiler scopes record into on this thread; null when CLOVE_PROF=off
/// (the common case) — the entire disabled cost is this one TLS load, which
/// constinit keeps free of the TLS-init wrapper call.
extern constinit thread_local Profiler* tl_prof;
[[nodiscard]] std::uint64_t now_ns();
}  // namespace detail

/// The thread's installed profiler, or null. Hot-path guard.
[[nodiscard]] inline Profiler* active() { return detail::tl_prof; }

/// RAII scope: ~40 ns (two clock reads) when a profiler is installed, one
/// TLS load + branch when not. Only the null tests are inline; the
/// profiler-on entry and exit are out-of-line cold calls, so a hot function
/// that opens a scope carries nothing else of it.
class Scope {
 public:
  explicit Scope(ScopeId id) : p_(detail::tl_prof) {
    if (p_ != nullptr) [[unlikely]] enter(id);
  }
  ~Scope() {
    if (p_ != nullptr) [[unlikely]] exit();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  [[gnu::cold, gnu::noinline]] void enter(ScopeId id);
  [[gnu::cold, gnu::noinline]] void exit();

  Profiler* p_;
  std::uint64_t t0_{0};
};

#define CLOVE_PROF_CONCAT2(a, b) a##b
#define CLOVE_PROF_CONCAT(a, b) CLOVE_PROF_CONCAT2(a, b)
/// Attribute the rest of the enclosing block to scope `id`.
#define CLOVE_PROF_SCOPE(id) \
  ::clove::prof::Scope CLOVE_PROF_CONCAT(clove_prof_scope_, __LINE__)(id)

/// Swap the installed profiler (or uninstall with null) for a block. Used by
/// the parallel runner to give each task its own Profiler, and by benches to
/// exclude measurement rounds from attribution.
class InstallGuard {
 public:
  explicit InstallGuard(Profiler* p) : prev_(detail::tl_prof) {
    detail::tl_prof = p;
  }
  ~InstallGuard() { detail::tl_prof = prev_; }
  InstallGuard(const InstallGuard&) = delete;
  InstallGuard& operator=(const InstallGuard&) = delete;

 private:
  Profiler* prev_;
};

/// CLOVE_PROF=off|summary|full (default off; unknown values read as off).
[[nodiscard]] Mode mode_from_env();
/// CLOVE_PROF_OUT if set, else `fallback` (normally the CLOVE_JSON_OUT dir).
[[nodiscard]] std::string out_dir_from_env(const std::string& fallback);

/// Owns a Profiler configured from CLOVE_PROF (or an explicit mode) and
/// installs it on the constructing thread for its lifetime. Declaring one
/// near the top of main() is all a binary needs to become profilable.
class SessionGuard {
 public:
  SessionGuard() : SessionGuard(mode_from_env()) {}
  explicit SessionGuard(Mode m);
  ~SessionGuard();
  SessionGuard(const SessionGuard&) = delete;
  SessionGuard& operator=(const SessionGuard&) = delete;

  /// Null when the mode is kOff.
  [[nodiscard]] Profiler* profiler() { return prof_; }

 private:
  Profiler* prof_{nullptr};
  Profiler* prev_{nullptr};
};

/// Process peak resident set size in MB (getrusage; 0.0 if unavailable).
/// Monotonic over the process lifetime — sample after the phase you want to
/// bound.
[[nodiscard]] double peak_rss_mb();

/// Rough cost of one Scope (two now_ns() calls), measured once at first use.
/// Exported in the self-profile so readers can subtract instrumentation skew.
[[nodiscard]] std::uint64_t scope_overhead_ns_estimate();

}  // namespace clove::prof
