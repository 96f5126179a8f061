// Path discovery demo: builds the leaf-spine fabric, runs the traceroute
// daemon from one hypervisor, and prints the discovered mapping from
// encapsulation source ports to physical paths — the §3.1 mechanism that
// turns standard ECMP into an indirect source-routing primitive.
//
//   ./path_discovery [--fail-link]

#include <cstdio>
#include <cstring>

#include "harness/experiment.hpp"
#include "harness/run_env.hpp"

int main(int argc, char** argv) {
  using namespace clove;

  const bool fail_link = argc > 1 && std::strcmp(argv[1], "--fail-link") == 0;
  const harness::RunEnv env = harness::RunEnv::from_env();
  env.apply_process();

  harness::ExperimentConfig cfg = harness::make_testbed_profile();
  cfg.scheme = harness::Scheme::kCloveEcn;
  cfg.asymmetric = fail_link;
  env.apply(cfg);
  harness::Testbed tb(cfg);

  auto* src = tb.clients()[0];
  auto* dst = tb.servers()[0];
  std::printf("probing paths %s -> %s over the %s fabric...\n\n",
              src->name().c_str(), dst->name().c_str(),
              fail_link ? "ASYMMETRIC (S2-L2 link down)" : "symmetric");

  src->start_discovery({dst->ip()});
  tb.simulator().run(cfg.discovery.probe_timeout + sim::milliseconds(5));

  const overlay::PathSet* ps = src->discovery().paths(dst->ip());
  if (ps == nullptr) {
    std::printf("no paths discovered!\n");
    return 1;
  }

  std::printf("probes sent: %llu, paths selected: %zu\n\n",
              static_cast<unsigned long long>(src->discovery().probes_sent()),
              ps->size());
  for (const auto& path : ps->paths) {
    std::printf("  outer src port %5u  ->  ", path.port);
    for (std::size_t h = 0; h < path.hops.size(); ++h) {
      const net::Node* node = tb.topology().node_by_ip(path.hops[h].node);
      std::printf("%s%s(if%d)", h ? " -> " : "",
                  node ? node->name().c_str() : "?", path.hops[h].ingress);
    }
    std::printf("\n");
  }

  std::printf("\nverifying against the switches' actual ECMP hash...\n");
  for (const auto& path : ps->paths) {
    net::FiveTuple t{src->ip(), dst->ip(), path.port, overlay::kSttPort,
                     net::Proto::kStt};
    net::Switch* leaf = tb.fabric().leaves[0];
    const auto* route = leaf->route(dst->ip());
    net::Link* up =
        leaf->port((*route)[static_cast<std::size_t>(
            leaf->ecmp_port(t, route->size()))]);
    const bool ok = up->dst()->ip() == path.hops[1].node;
    std::printf("  port %5u -> first hop %-4s %s\n", path.port,
                up->dst()->name().c_str(), ok ? "[matches trace]" : "[MISMATCH]");
  }
  return 0;
}
