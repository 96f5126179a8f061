#include "prof/prof.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace clove::prof {

namespace detail {
constinit thread_local Profiler* tl_prof = nullptr;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
}  // namespace detail

void Scope::enter(ScopeId id) {
  if (!p_->on_enter(id)) {
    p_ = nullptr;  // stack full: make the pair a no-op
    return;
  }
  t0_ = detail::now_ns();
}

void Scope::exit() { p_->on_exit(detail::now_ns() - t0_); }

const char* scope_name(ScopeId id) {
  switch (id) {
    case kDispatch: return "dispatch";
    case kLinkTx: return "link_tx";
    case kLinkDeliver: return "link_deliver";
    case kSwitchForward: return "switch_forward";
    case kHypervisor: return "hypervisor";
    case kPolicy: return "policy";
    case kTransport: return "transport";
    case kWorkload: return "workload";
    case kDiscovery: return "discovery";
    case kTelemetry: return "telemetry";
    case kFlight: return "flight";
    case kOther: return "other";
    case kShardSync: return "shard_sync";
    case kHybrid: return "hybrid";
    default: return "?";
  }
}

double LatencyHistogram::percentile(double p) const {
  if (count_ == 0) return 0.0;
  if (p <= 0.0) p = 0.0;
  if (p >= 100.0) p = 100.0;
  const double target = p / 100.0 * static_cast<double>(count_);
  std::uint64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    if (buckets_[b] == 0) continue;
    if (static_cast<double>(seen + buckets_[b]) >= target) {
      const double lo = static_cast<double>(bucket_lower(b));
      const double hi = b == 0 ? 0.0 : static_cast<double>(bucket_lower(b + 1));
      const double into =
          (target - static_cast<double>(seen)) / static_cast<double>(buckets_[b]);
      return lo + (hi - lo) * std::min(1.0, std::max(0.0, into));
    }
    seen += buckets_[b];
  }
  return static_cast<double>(bucket_lower(kBuckets));
}

void Profiler::note_table(const std::string& name, const TableStats& t) {
  TableAgg& a = tables_[name];
  a.sum.size += t.size;
  a.sum.capacity += t.capacity;
  a.sum.tombstones += t.tombstones;
  a.sum.probe_sum += t.probe_sum;
  if (t.max_probe > a.sum.max_probe) a.sum.max_probe = t.max_probe;
  ++a.n;
}

void Profiler::merge_from(const Profiler& o) {
  for (int i = 0; i < kScopeCount; ++i) {
    stats_[i].count += o.stats_[i].count;
    stats_[i].self_ns += o.stats_[i].self_ns;
    stats_[i].total_ns += o.stats_[i].total_ns;
    hist_[i].merge_from(o.hist_[i]);
  }
  // FlatMap iteration order is hash-dependent, but addition per distinct key
  // makes the merged table independent of visit order.
  for (auto it = o.paths_.begin(); it != o.paths_.end(); ++it) {
    auto [mine, inserted] = paths_.try_emplace(it.key());
    mine->self_ns += it.value().self_ns;
    mine->count += it.value().count;
    (void)inserted;
  }
  for (const auto& [name, agg] : o.tables_) {
    TableAgg& a = tables_[name];
    a.sum.size += agg.sum.size;
    a.sum.capacity += agg.sum.capacity;
    a.sum.tombstones += agg.sum.tombstones;
    a.sum.probe_sum += agg.sum.probe_sum;
    if (agg.sum.max_probe > a.sum.max_probe) a.sum.max_probe = agg.sum.max_probe;
    a.n += agg.n;
  }
  overflow_ += o.overflow_;
  events_ += o.events_;
  if (o.queue_hwm_ > queue_hwm_) queue_hwm_ = o.queue_hwm_;
  if (o.slab_capacity_ > slab_capacity_) slab_capacity_ = o.slab_capacity_;
  pool_allocated_ += o.pool_allocated_;
  pool_reused_ += o.pool_reused_;
  sims_ += o.sims_;
}

std::vector<ScopeId> Profiler::top_sinks() const {
  std::vector<ScopeId> ids;
  for (int i = 0; i < kScopeCount; ++i) {
    if (stats_[i].self_ns > 0) ids.push_back(static_cast<ScopeId>(i));
  }
  std::sort(ids.begin(), ids.end(), [this](ScopeId a, ScopeId b) {
    if (stats_[a].self_ns != stats_[b].self_ns) {
      return stats_[a].self_ns > stats_[b].self_ns;
    }
    return a < b;
  });
  return ids;
}

std::vector<std::pair<std::uint64_t, Profiler::PathCell>>
Profiler::sorted_paths() const {
  std::vector<std::pair<std::uint64_t, PathCell>> out;
  out.reserve(paths_.size());
  for (auto it = paths_.begin(); it != paths_.end(); ++it) {
    out.emplace_back(it.key(), it.value());
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

std::string Profiler::path_string(std::uint64_t path) {
  std::string s = "clove";
  while (path != 0) {
    const auto nib = static_cast<std::uint8_t>(path & 0xF);
    s += ';';
    s += scope_name(static_cast<ScopeId>(nib - 1));
    path >>= 4;
  }
  return s;
}

namespace {
const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kOff: return "off";
    case Mode::kSummary: return "summary";
    case Mode::kFull: return "full";
  }
  return "off";
}

void append_kv(std::string& out, const char* key, std::uint64_t v,
               bool comma = true) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "\"%s\": %llu%s", key,
                static_cast<unsigned long long>(v), comma ? ", " : "");
  out += buf;
}

void append_kv(std::string& out, const char* key, double v,
               bool comma = true) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "\"%s\": %.6g%s", key, v, comma ? ", " : "");
  out += buf;
}
}  // namespace

std::string Profiler::to_json(int indent) const {
  const std::string pad(indent < 0 ? 0 : static_cast<std::size_t>(indent), ' ');
  const std::string nl = indent < 0 ? "" : "\n";
  std::uint64_t self_total = 0;
  for (const ScopeStat& s : stats_) self_total += s.self_ns;

  std::string out = "{" + nl;
  out += pad + "\"mode\": \"" + mode_name(mode_) + "\"," + nl;
  out += pad;
  append_kv(out, "scope_overhead_ns", scope_overhead_ns_estimate(), false);
  out += "," + nl + pad;
  append_kv(out, "stack_overflows", overflow_, false);
  out += "," + nl + pad;
  append_kv(out, "profiled_self_ns", self_total, false);
  out += "," + nl;

  out += pad + "\"engine\": {";
  append_kv(out, "events", events_);
  append_kv(out, "queue_hwm", queue_hwm_);
  append_kv(out, "event_slab_capacity", slab_capacity_);
  append_kv(out, "pool_allocated", pool_allocated_);
  append_kv(out, "pool_reused", pool_reused_);
  append_kv(out, "sims", sims_, false);
  out += "}," + nl;

  out += pad + "\"scopes\": [";
  bool first = true;
  for (int i = 0; i < kScopeCount; ++i) {
    const ScopeStat& s = stats_[i];
    if (s.count == 0) continue;
    if (!first) out += ",";
    first = false;
    out += nl + pad + pad + "{\"name\": \"";
    out += scope_name(static_cast<ScopeId>(i));
    out += "\", ";
    append_kv(out, "count", s.count);
    append_kv(out, "self_ns", s.self_ns);
    append_kv(out, "total_ns", s.total_ns);
    const double frac =
        self_total > 0
            ? static_cast<double>(s.self_ns) / static_cast<double>(self_total)
            : 0.0;
    if (mode_ == Mode::kFull) {
      append_kv(out, "self_frac", frac);
      append_kv(out, "p50_ns", hist_[i].percentile(50.0));
      append_kv(out, "p99_ns", hist_[i].percentile(99.0), false);
    } else {
      append_kv(out, "self_frac", frac, false);
    }
    out += "}";
  }
  out += nl + pad + "]," + nl;

  out += pad + "\"tables\": [";
  first = true;
  for (const auto& [name, agg] : tables_) {
    if (!first) out += ",";
    first = false;
    out += nl + pad + pad + "{\"name\": \"" + name + "\", ";
    append_kv(out, "tables", agg.n);
    append_kv(out, "size", agg.sum.size);
    append_kv(out, "capacity", agg.sum.capacity);
    append_kv(out, "tombstones", agg.sum.tombstones);
    const double avg_probe =
        agg.sum.size > 0 ? static_cast<double>(agg.sum.probe_sum) /
                               static_cast<double>(agg.sum.size)
                         : 0.0;
    append_kv(out, "avg_probe", avg_probe);
    append_kv(out, "max_probe", agg.sum.max_probe, false);
    out += "}";
  }
  out += nl + pad + "]," + nl;

  out += pad;
  append_kv(out, "distinct_paths", paths_.size(), false);
  out += nl + "}";
  return out;
}

std::string Profiler::folded() const {
  std::vector<std::string> lines;
  for (const auto& [path, cell] : sorted_paths()) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), " %llu\n",
                  static_cast<unsigned long long>(cell.self_ns));
    lines.push_back(path_string(path) + buf);
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& l : lines) out += l;
  return out;
}

std::string Profiler::chrome_trace() const {
  // Lay the folded tree out as one synthetic timeline: each path becomes a
  // complete ("X") span whose duration is its inclusive time, children
  // nested inside their parent (after the parent's self time) in ascending
  // path order. ts/dur are microseconds per the trace-event spec. The
  // timeline is synthetic — spans are aggregates, not real timestamps —
  // which is exactly the flamegraph view chrome://tracing renders well.
  const auto paths = sorted_paths();
  std::map<std::uint64_t, PathCell> by_key(paths.begin(), paths.end());
  std::map<std::uint64_t, std::vector<std::uint64_t>> children;
  std::vector<std::uint64_t> roots;
  auto parent_of = [](std::uint64_t path) {
    std::uint64_t top = path, shift = 0;
    while (top >> 4 != 0) {
      top >>= 4;
      shift += 4;
    }
    return path & ~(0xFull << shift);  // highest nibble cleared
  };
  for (const auto& [path, cell] : by_key) {
    const std::uint64_t parent = parent_of(path);
    if (parent == 0 || by_key.count(parent) == 0) {
      roots.push_back(path);  // ascending: by_key iterates in key order
    } else {
      children[parent].push_back(path);
    }
  }

  // Inclusive time, deepest paths first (a nibble-longer path is a child).
  std::map<std::uint64_t, std::uint64_t> inclusive;
  auto depth_of = [](std::uint64_t p) {
    int d = 0;
    while (p != 0) {
      p >>= 4;
      ++d;
    }
    return d;
  };
  std::vector<std::uint64_t> order;
  for (const auto& [path, cell] : by_key) order.push_back(path);
  std::sort(order.begin(), order.end(), [&](std::uint64_t a, std::uint64_t b) {
    const int da = depth_of(a), db = depth_of(b);
    if (da != db) return da > db;
    return a < b;
  });
  for (std::uint64_t path : order) {
    std::uint64_t inc = by_key[path].self_ns;
    for (std::uint64_t c : children[path]) inc += inclusive[c];
    inclusive[path] = inc;
  }

  std::string out = "{\"traceEvents\": [";
  bool first = true;
  auto leaf_name = [](std::uint64_t path) {
    std::uint64_t last = 0;
    while (path != 0) {
      last = path & 0xF;
      path >>= 4;
    }
    return scope_name(static_cast<ScopeId>(last - 1));
  };
  // Depth ≤ kMaxPathDepth, so plain recursion is safe.
  auto emit = [&](auto&& self, std::uint64_t path,
                  std::uint64_t start_ns) -> void {
    char buf[224];
    std::snprintf(buf, sizeof(buf),
                  "%s\n  {\"name\": \"%s\", \"cat\": \"clove\", \"ph\": \"X\", "
                  "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 0, \"tid\": 0}",
                  first ? "" : ",", leaf_name(path),
                  static_cast<double>(start_ns) / 1e3,
                  static_cast<double>(inclusive[path]) / 1e3);
    out += buf;
    first = false;
    std::uint64_t off = start_ns + by_key[path].self_ns;
    for (std::uint64_t c : children[path]) {
      self(self, c, off);
      off += inclusive[c];
    }
  };
  std::uint64_t off = 0;
  for (std::uint64_t r : roots) {
    emit(emit, r, off);
    off += inclusive[r];
  }
  out += "\n]}\n";
  return out;
}

SessionGuard::SessionGuard(Mode m) : prev_(detail::tl_prof) {
  if (m != Mode::kOff) {
    prof_ = new Profiler(m);
    detail::tl_prof = prof_;
  }
}

SessionGuard::~SessionGuard() {
  detail::tl_prof = prev_;
  delete prof_;
}

double peak_rss_mb() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
#ifdef __APPLE__
  return static_cast<double>(ru.ru_maxrss) / (1024.0 * 1024.0);  // bytes
#else
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // kilobytes
#endif
}

std::uint64_t scope_overhead_ns_estimate() {
  static const std::uint64_t est = [] {
    constexpr int kReps = 4096;
    const std::uint64_t t0 = detail::now_ns();
    std::uint64_t sink = 0;
    for (int i = 0; i < kReps; ++i) sink ^= detail::now_ns();
    const std::uint64_t t1 = detail::now_ns();
    (void)sink;
    return 2 * (t1 - t0) / kReps;  // a Scope costs two clock reads
  }();
  return est;
}

}  // namespace clove::prof
