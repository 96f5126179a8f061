// Ablation A4: workload sensitivity. The paper evaluates on the web-search
// distribution only; CONGA/Presto also report the heavier-tailed
// data-mining distribution, where flowlet switching has fewer opportunities
// (most bytes sit in a handful of giant flows). This ablation compares
// ECMP / Edge-Flowlet / Clove-ECN across both distributions on the
// asymmetric fabric.

#include "bench_common.hpp"
#include "workload/flow_size.hpp"

int main() {
  using namespace clove;
  const auto scale = harness::BenchScale::from_env();
  bench::print_header("Ablation A4 - workload distribution sensitivity",
                      "CoNEXT'17 Clove §5 workload choice", scale);
  bench::Artifact artifact("ablation_workloads", "CoNEXT'17 Clove §5 workload choice", scale);

  const std::vector<harness::Scheme> schemes = {harness::Scheme::kEcmp,
                                                harness::Scheme::kEdgeFlowlet,
                                                harness::Scheme::kCloveEcn};
  struct Dist {
    const char* label;
    workload::FlowSizeDistribution dist;
  };
  const std::vector<Dist> dists = {
      {"web-search", workload::FlowSizeDistribution::web_search()},
      {"data-mining", workload::FlowSizeDistribution::data_mining()},
  };
  const double load = 0.6;

  stats::Table table({"workload", "scheme", "avg FCT (s)", "p99 FCT (s)"});
  for (const auto& d : dists) {
    for (auto s : schemes) {
      harness::ExperimentConfig cfg = harness::make_testbed_profile();
      cfg.scheme = s;
      cfg.asymmetric = true;

      workload::ClientServerConfig wl;
      wl.load = load;
      wl.jobs_per_conn = scale.jobs_per_conn;
      wl.conns_per_client = scale.conns_per_client;
      wl.sizes = d.dist;

      double avg = 0;
      stats::FctRecorder pooled;
      for (int seed = 0; seed < scale.seeds; ++seed) {
        cfg.seed = static_cast<std::uint64_t>(seed) * 7919 + 1;
        auto r = harness::run_fct_experiment(cfg, wl);
        avg += r.avg_fct_s / scale.seeds;
        pooled.merge(*r.fct);
      }
      const double p99 = pooled.all().percentile(99);
      table.add_row({d.label, harness::scheme_name(s), stats::Table::fmt(avg),
                     stats::Table::fmt(p99)});
      std::printf(".");
      std::fflush(stdout);
    }
  }
  std::printf("\n\n%.0f%% load, asymmetric fabric:\n", load * 100);
  table.print();
  return 0;
}
