#pragma once

#include <memory>

#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"

namespace clove::telemetry {

/// Construction-time knobs for a telemetry Scope: the metrics registry on or
/// off, and the flight recorder's configuration.
struct ScopeSettings {
  bool enabled{false};
  FlightConfig flight{};
};

/// One telemetry collection domain: a metrics registry, a flight recorder and
/// an on/off flag. Scoping them lets harness::ParallelRunner give every
/// concurrently running sweep point its own isolated registry — no
/// cross-thread sharing, no locks on the recording hot path — while
/// single-threaded code records into the implicit process scope that
/// current_scope() falls back to.
///
/// A Scope is not itself thread-safe; it is installed on exactly one thread
/// at a time via ScopeGuard.
class Scope {
 public:
  Scope() = default;
  explicit Scope(const ScopeSettings& s)
      : enabled_(s.enabled), flight_cfg_(s.flight) {}
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] MetricsRegistry& metrics() { return metrics_; }

  /// Flip collection for this scope; when the scope is current on the calling
  /// thread, the hot-path enabled() flag is updated too.
  void set_enabled(bool on);
  [[nodiscard]] bool is_enabled() const { return enabled_; }

  /// The scope's flight recorder, or null while the configured mode is kOff.
  /// Created lazily on first use so disabled runs never pay for the tables.
  [[nodiscard]] FlightRecorder* flight_recorder();
  /// Reconfigure (and when mode != kOff, (re)create) the flight recorder.
  /// When this scope is current on the calling thread, the thread's active
  /// recorder pointer is updated too.
  void set_flight_config(const FlightConfig& cfg);
  [[nodiscard]] const FlightConfig& flight_config() const { return flight_cfg_; }

  /// Start-of-run housekeeping: zero metric values and clear the flight
  /// recorder so each experiment's snapshot reflects that experiment only.
  /// Resolved cell pointers stay valid.
  void begin_run() {
    metrics_.reset_values();
    if (flight_) flight_->reset();
  }

  /// The knobs a child scope should inherit to behave like this one.
  [[nodiscard]] ScopeSettings settings() const {
    return ScopeSettings{enabled_, flight_cfg_};
  }

  /// Binds one component's metric cells as it is built; a component counts
  /// only if its scope was enabled then. Enabled, each call registers (or
  /// finds) the named cell under the component's labels. Disabled, it does
  /// no registry work and never makes the labels: every call returns this
  /// scope's null cell of the kind, which no snapshot holds and the enabled()
  /// guard leaves unwritten while the scope stays off. Null cells are per
  /// scope, so no two threads share one.
  class Binder {
   public:
    Counter* counter(const char* name) {
      return live_ ? scope_.metrics_.counter(name, labels_)
                   : &scope_.null_counter_;
    }
    Gauge* gauge(const char* name) {
      return live_ ? scope_.metrics_.gauge(name, labels_) : &scope_.null_gauge_;
    }
    Histogram* histogram(const char* name) {
      return live_ ? scope_.metrics_.histogram(name, labels_)
                   : &scope_.null_histogram_;
    }

   private:
    friend class Scope;
    explicit Binder(Scope& scope) : scope_(scope), live_(scope.enabled_) {}

    Scope& scope_;
    bool live_;
    Labels labels_;
  };

  /// A binder for cells labelled with `make_labels()`, called only when the
  /// scope is enabled.
  template <typename MakeLabels>
  [[nodiscard]] Binder binder(MakeLabels&& make_labels) {
    Binder b(*this);
    if (b.live_) b.labels_ = make_labels();
    return b;
  }
  /// A binder for unlabelled cells.
  [[nodiscard]] Binder binder() { return Binder(*this); }

 private:
  MetricsRegistry metrics_;
  Counter null_counter_;
  Gauge null_gauge_;
  Histogram null_histogram_;
  bool enabled_{false};
  FlightConfig flight_cfg_{};
  std::unique_ptr<FlightRecorder> flight_;
};

// constinit (constant-initialized, no dynamic TLS init) lets every user read
// these as a plain TLS load, without a call through the TLS-init wrapper.
namespace detail {
/// The scope telemetry records into on this thread (null until a ScopeGuard
/// installs one or current_scope() falls back to the lazy process scope).
extern constinit thread_local Scope* tl_scope;
/// Mirror of current scope's is_enabled(), kept thread-local so the hot-path
/// guard stays a single TLS bool load.
extern constinit thread_local bool tl_enabled;
/// The current scope's flight recorder when (and only when) its mode is not
/// kOff — the datapath's disabled-cost guard is this one TLS pointer load.
extern constinit thread_local FlightRecorder* tl_flight;
}  // namespace detail

/// The zero-cost-when-disabled guard: one thread-local bool load. Every
/// hot-path recording site checks this before touching a cell or building an
/// event.
[[nodiscard]] inline bool enabled() { return detail::tl_enabled; }

/// The thread's active flight recorder (null unless a scope with mode
/// sampled/full is current). Datapath hooks are written as
///   if (auto* fr = telemetry::flight()) fr->on_...(...);
/// so a disabled recorder costs exactly one TLS pointer load.
[[nodiscard]] inline FlightRecorder* flight() { return detail::tl_flight; }
[[nodiscard]] inline bool flight_active() { return detail::tl_flight != nullptr; }

/// The scope telemetry resolves against on this thread. Threads with no
/// installed scope (the main thread, plain tests) share a lazily created
/// process-wide scope, created off; a binary configures it explicitly
/// (harness::RunEnv::apply_process, bench::Artifact).
[[nodiscard]] Scope& current_scope();

/// RAII installer: makes `s` the calling thread's current scope for the
/// guard's lifetime, restoring the previous scope (and its enabled flag) on
/// destruction. Used by the parallel runner around each sweep point.
class ScopeGuard {
 public:
  explicit ScopeGuard(Scope& s)
      : prev_(detail::tl_scope),
        prev_enabled_(detail::tl_enabled),
        prev_flight_(detail::tl_flight) {
    detail::tl_scope = &s;
    detail::tl_enabled = s.is_enabled();
    detail::tl_flight = s.flight_recorder();
  }
  ~ScopeGuard() {
    detail::tl_scope = prev_;
    detail::tl_enabled = prev_enabled_;
    detail::tl_flight = prev_flight_;
  }
  ScopeGuard(const ScopeGuard&) = delete;
  ScopeGuard& operator=(const ScopeGuard&) = delete;

 private:
  Scope* prev_;
  bool prev_enabled_;
  FlightRecorder* prev_flight_;
};

}  // namespace clove::telemetry
