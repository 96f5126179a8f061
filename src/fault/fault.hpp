#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/topology.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"
#include "telemetry/json.hpp"
#include "telemetry/metrics.hpp"

namespace clove::fault {

/// The fault classes the injector can schedule (DESIGN.md §8).
enum class FaultKind : std::uint8_t {
  kLinkDown = 0,    ///< hard-fail both directions of a connection
  kLinkUp,          ///< restore both directions
  kLinkDegrade,     ///< scale one direction's rate (value = capacity factor)
  kLinkDrop,        ///< silent per-packet loss (value = drop probability)
  kSwitchDown,      ///< blackout: every connection adjacent to the switch
  kSwitchUp,        ///< reboot complete: restore the adjacent connections
  kFeedbackLoss,    ///< drop arriving Clove feedback (value = probability)
  kFeedbackDelay,   ///< defer arriving Clove feedback (value = milliseconds)
};

[[nodiscard]] const char* fault_kind_name(FaultKind k);
[[nodiscard]] bool parse_fault_kind(const std::string& name, FaultKind* out);

/// One scheduled fault. Target syntax by kind:
///  - link events:     a connection name as Topology::connect() assigns them
///    ("L0->S1"), optionally "#k" to pick the k-th parallel link of the
///    pair (creation order, default 0). Down/up act on both directions;
///    degrade/drop act on the named direction only.
///  - switch events:   the switch name ("S1").
///  - feedback events: a hypervisor host name, or "*" for every hypervisor.
struct FaultEvent {
  sim::Time at{0};
  FaultKind kind{FaultKind::kLinkDown};
  std::string target;
  double value{0.0};
};

/// A deterministic, seed-reproducible schedule of fault events. Build in
/// code with add(), or parse from the small JSON spec (CLOVE_FAULT_PLAN):
///
///   {"seed": 7, "route_convergence_ms": 30,
///    "events": [{"at_ms": 400, "kind": "link_down", "target": "L1->S1#0"},
///               {"at_ms": 1200, "kind": "link_up", "target": "L1->S1#0"}]}
///
/// A bare JSON array is accepted as the events list with defaults for the
/// rest. `value` carries the kind-specific operand (capacity factor, drop /
/// loss probability, delay in milliseconds).
struct FaultPlan {
  std::vector<FaultEvent> events;
  /// Delay between a topology fault and the fabric's route recompute — the
  /// blackhole window during which routing still points at the failure.
  /// (Topology::fail_connection reroutes instantly; real convergence does
  /// not, and that window is where edge-based recovery earns its keep.)
  sim::Time route_convergence{30 * sim::kMillisecond};
  /// Seeds the per-link drop RNGs (derived per link, so the drop sequence
  /// is independent of event order and of other links).
  std::uint64_t seed{0xFA17};

  FaultPlan& add(sim::Time at, FaultKind kind, std::string target,
                 double value = 0.0);
  [[nodiscard]] bool empty() const { return events.empty(); }

  [[nodiscard]] telemetry::Json to_json() const;
  /// Parse the JSON spec; returns an empty plan and sets *error on failure.
  static FaultPlan parse(const telemetry::Json& doc, std::string* error);
  static FaultPlan parse_text(const std::string& text, std::string* error);
  /// A plan spec as CLOVE_FAULT_PLAN gives it: inline JSON (first non-space
  /// char '[' or '{') or a path to a JSON file (optionally '@'-prefixed).
  /// A blank spec is an empty plan.
  static FaultPlan load(const std::string& spec, std::string* error);
};

/// Statistics of one armed injector (tests / reports).
struct FaultInjectorStats {
  int events_applied{0};
  int events_failed{0};     ///< target did not resolve
  int route_recomputes{0};  ///< deferred convergence recomputes run
};

/// Applies a FaultPlan against a built topology. arm() schedules every
/// event on the topology's simulator; faults act directly on links/nodes
/// (Link::down/up, set_capacity_factor, set_fault_drop, Hypervisor feedback
/// hooks) and topology faults defer Topology::compute_routes() by
/// plan.route_convergence to model the blackhole window.
class FaultInjector {
 public:
  FaultInjector(net::Topology& topo, FaultPlan plan);

  /// Schedule the whole plan. Call once, after the topology is built and
  /// before (or during) the run; events in the past fire immediately.
  void arm();

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }
  [[nodiscard]] const FaultInjectorStats& stats() const { return stats_; }

 private:
  void apply(const FaultEvent& ev);
  [[nodiscard]] net::Link* resolve_link(const std::string& target);
  void apply_connection(net::Link* fwd, bool down);
  /// down() or up() one direction of a connection (null is a no-op).
  void toggle_link(net::Link* l, bool down);
  [[nodiscard]] bool apply_switch(const FaultEvent& ev, bool down);
  [[nodiscard]] bool apply_feedback(const FaultEvent& ev);
  void schedule_convergence();
  /// Per-link drop-RNG seed, independent of event order.
  [[nodiscard]] std::uint64_t drop_seed(net::LinkId id) const {
    return plan_.seed ^ (0x9e3779b97f4a7c15ULL * (id + 1));
  }

  net::Topology& topo_;
  FaultPlan plan_;
  FaultInjectorStats stats_;
  telemetry::Counter* applied_cell_{nullptr};
  telemetry::Counter* recompute_cell_{nullptr};
};

}  // namespace clove::fault
