#pragma once

#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/link.hpp"
#include "net/node.hpp"
#include "net/switch.hpp"
#include "sim/simulator.hpp"

namespace clove::net {

/// Owns every node and link of one simulated network, assigns ids/IPs,
/// wires bidirectional connections, computes shortest-path ECMP routes and
/// recomputes them after failures (as the fabric's routing protocol would).
class Topology {
 public:
  explicit Topology(sim::Simulator& sim) : sim_(sim) {}

  /// Add a standard ECMP switch (or pass a factory for a subclass).
  Switch* add_switch(const std::string& name);
  /// Register a custom switch built by `make(id, name)`.
  Switch* add_custom_switch(
      const std::string& name,
      const std::function<std::unique_ptr<Switch>(NodeId, std::string)>& make);

  /// Register an endpoint node (host/hypervisor) built by `make(id, name)`.
  /// The topology owns it; the typed pointer is returned to the caller.
  template <typename T, typename... Args>
  T* add_host(const std::string& name, Args&&... args) {
    auto node = std::make_unique<T>(next_id(), name, std::forward<Args>(args)...);
    T* raw = node.get();
    hosts_.push_back(raw);
    nodes_.push_back(std::move(node));
    return raw;
  }

  /// Wire a<->b with two unidirectional links; returns {a->b, b->a}.
  std::pair<Link*, Link*> connect(Node* a, Node* b, const LinkConfig& cfg);

  /// Fail / restore both directions of a connection and re-run routing.
  void fail_connection(Link* a_to_b);
  void restore_connection(Link* a_to_b);

  /// Compute shortest-path ECMP routes from every switch to every host and
  /// install them. Call once after building and after any manual link state
  /// change (fail_connection / restore_connection call it themselves).
  void compute_routes();

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] const std::vector<Node*>& hosts() const { return hosts_; }
  [[nodiscard]] const std::vector<Switch*>& switches() const { return switches_; }
  [[nodiscard]] const std::vector<std::unique_ptr<Link>>& links() const {
    return links_;
  }
  [[nodiscard]] Node* node_by_ip(IpAddr ip) const {
    return ip < nodes_.size() ? nodes_[ip].get() : nullptr;
  }
  /// The reverse direction of a link created by connect().
  [[nodiscard]] Link* reverse_of(Link* l) const;

  /// Number of route recomputations (visible to tests).
  [[nodiscard]] int route_epoch() const { return route_epoch_; }

 private:
  static constexpr NodeId kNoNode = std::numeric_limits<NodeId>::max();

  NodeId next_id() { return static_cast<NodeId>(nodes_.size()); }
  /// The node a "stub" host hangs off: its one live egress link leads
  /// there and every live link into it comes from there. kNoNode for any
  /// other host (dual-homed, or with no live link).
  [[nodiscard]] NodeId stub_attachment(const Node* h) const;

  sim::Simulator& sim_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<Link>> links_;
  std::vector<Switch*> switches_;
  std::vector<Node*> hosts_;
  // links_[i] and links_[i^1] are the two directions of one connection.
  int route_epoch_{0};
};

/// Parameters of the paper's evaluation fabric (§5 "Topology"): a 2-tier
/// leaf-spine with parallel leaf-spine links and no oversubscription.
struct LeafSpineConfig {
  int n_leaves{2};
  int n_spines{2};
  int links_per_pair{2};    ///< parallel links between each leaf-spine pair
  int hosts_per_leaf{16};
  double host_gbps{10.0};
  double fabric_gbps{40.0};
  sim::Time link_propagation{5 * sim::kMicrosecond};
  std::int64_t host_queue_pkts{256};
  std::int64_t fabric_queue_pkts{256};
  std::int64_t ecn_threshold_pkts{20};   ///< paper: 20 MTU-sized packets
  std::int64_t mtu_bytes{1578};          ///< MTU + modeled header overhead
  bool int_telemetry{false};
  bool conga_metric{false};
};

/// A built leaf-spine fabric with handles to the pieces experiments touch.
struct LeafSpine {
  LeafSpineConfig cfg;
  std::vector<Switch*> leaves;
  std::vector<Switch*> spines;
  std::vector<std::vector<Node*>> hosts_by_leaf;
  /// fabric_links[leaf][spine][k] = the leaf->spine direction of parallel
  /// link k (use Topology::reverse_of for the other direction).
  std::vector<std::vector<std::vector<Link*>>> fabric_links;

  [[nodiscard]] int leaf_of_host(const Node* h) const;
};

/// Build the paper's leaf-spine testbed into `topo`. `make_host(id, name,
/// leaf_index)` creates each endpoint; switches are created with
/// `make_switch(id, name, leaf_index_or_minus1_for_spine)` when given,
/// else standard ECMP switches.
LeafSpine build_leaf_spine(
    Topology& topo, const LeafSpineConfig& cfg,
    const std::function<Node*(Topology&, const std::string&, int)>& make_host,
    const std::function<std::unique_ptr<Switch>(NodeId, std::string, int)>&
        make_switch = nullptr);

}  // namespace clove::net
