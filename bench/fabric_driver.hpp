#pragma once

// The synthetic-fabric driver behind bench_fabric_forwarding and
// bench_scale: fabrics whose hosts drop what they receive, one traffic
// driver that floods them round by round, and two ways to time the rounds —
// measure() for one fabric, interleave() for arms paired round by round.

#include <cstdint>
#include <vector>

#include "net/topology.hpp"
#include "prof/prof.hpp"
#include "sim/simulator.hpp"
#include "telemetry/scope.hpp"

namespace clove::bench {

/// A k-ary fat-tree whose hosts each send to the same-index host of the pod
/// half the fabric away (5 switch hops), or a 2x2 leaf-spine with LetFlow or
/// CONGA leaves whose two leaves' hosts send to each other (3 hops).
struct FabricSpec {
  enum class Kind { kFatTree, kLetFlowLeafSpine, kCongaLeafSpine };
  Kind kind{Kind::kFatTree};
  int k{4};  ///< fat-tree arity
};

/// Injects `batch` packets from every source towards its peer, cycling
/// source ports so ECMP and flowlet tables see a mix of repeated and fresh
/// tuples, then drains the simulator.
struct TrafficDriver {
  std::vector<net::Node*> sources;
  std::vector<net::Node*> dests;  ///< dests[i] is the peer of sources[i]
  int batch{8};
  std::uint32_t port_cycle{0};

  std::uint64_t run_round(sim::Simulator& sim);
};

/// One fabric and its traffic, self-contained so several can coexist.
/// Construction builds it and warms the packet pool, event slab, routes and
/// flow tables with 8 rounds.
struct Fabric {
  Fabric(const FabricSpec& spec, int batch);
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  [[nodiscard]] int hosts() const {
    return static_cast<int>(driver.sources.size());
  }

  sim::Simulator sim;
  net::Topology topo{sim};
  TrafficDriver driver;
};

/// What some rounds of one fabric cost.
struct Measured {
  double wall_s{0.0};
  std::uint64_t events{0};
  std::uint64_t packets{0};
  std::uint64_t hops{0};
  std::uint64_t allocs{0};

  [[nodiscard]] double pkts_per_sec() const { return packets / wall_s; }
  [[nodiscard]] double events_per_sec() const { return events / wall_s; }
  [[nodiscard]] double ns_per_hop() const { return wall_s * 1e9 / hops; }
  [[nodiscard]] double allocs_per_pkt() const {
    return static_cast<double>(allocs) / static_cast<double>(packets);
  }
  Measured& operator+=(const Measured& o);
};

/// Runs `rounds` rounds of `f` with no profiler installed, so the rates
/// price the engine and not the instrumentation.
Measured measure(Fabric& f, int rounds);

/// One arm of an interleaved comparison: a fabric and what is installed
/// around each of its rounds.
struct Arm {
  const char* name;
  Fabric* fabric;
  telemetry::Scope* scope{nullptr};   ///< entered per round when set
  prof::Profiler* profiler{nullptr};  ///< installed per round (null: none)
};

struct ArmResult {
  const char* name;
  Measured total;
  /// Median over rounds of this arm's rate ÷ arm 0's in the same round, so
  /// one preempted round cannot swing it (1 for arm 0).
  double ratio{1.0};
};

/// After one untimed warm-up round per arm (a fabric gone cold, a profiler's
/// first use), runs `rounds` rounds of one round per arm in order, so the
/// arms see the same machine state; `rate` picks the compared rate.
std::vector<ArmResult> interleave(const std::vector<Arm>& arms, int rounds,
                                  double (Measured::*rate)() const);

/// CLOVE_FABRIC_ROUNDS if set to a positive integer, else the table's own
/// `fallback`.
int rounds_from_env(int fallback);

}  // namespace clove::bench
