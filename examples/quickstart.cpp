// Quickstart: build the paper's 2-tier leaf-spine testbed, run the
// web-search workload at 60% load under ECMP and under Clove-ECN, and
// compare average flow completion times.
//
//   ./quickstart [load_percent]
//
// This is the smallest end-to-end use of the public API: Testbed +
// ClientServerWorkload via harness::run_fct_experiment.

#include <cstdio>
#include <cstdlib>

#include "harness/experiment.hpp"
#include "harness/run_env.hpp"
#include "stats/stats.hpp"

int main(int argc, char** argv) {
  using namespace clove;

  const double load = argc > 1 ? std::atof(argv[1]) / 100.0 : 0.6;
  const harness::RunEnv env = harness::RunEnv::from_env();
  env.apply_process();

  workload::ClientServerConfig wl;
  wl.load = load;
  wl.jobs_per_conn = 30;
  wl.conns_per_client = 2;

  std::printf("Clove quickstart: web-search workload at %.0f%% load\n",
              load * 100);
  std::printf("topology: 2 leaves x 16 hosts @10G, 2 spines, 2x40G per pair\n\n");

  stats::Table table({"scheme", "avg FCT (s)", "p99 FCT (s)", "jobs",
                      "timeouts", "drops"});
  for (harness::Scheme s :
       {harness::Scheme::kEcmp, harness::Scheme::kCloveEcn}) {
    harness::ExperimentConfig cfg = harness::make_testbed_profile();
    cfg.scheme = s;
    env.apply(cfg);
    auto r = harness::run_fct_experiment(cfg, wl);
    table.add_row({harness::scheme_name(s), stats::Table::fmt(r.avg_fct_s),
                   stats::Table::fmt(r.p99_fct_s), std::to_string(r.jobs),
                   std::to_string(r.timeouts), std::to_string(r.drops)});
  }
  table.print();
  return 0;
}
