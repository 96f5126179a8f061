// Incast demo (§5.3): one client fetches a 10 MB object striped over n
// servers that respond simultaneously (partition-aggregate). Compares the
// client's achieved goodput under Clove-ECN, Edge-Flowlet and MPTCP —
// showing MPTCP's subflow burstiness hurting as fan-in grows.
//
//   ./incast_fanout [fanout] [requests]

#include <cstdio>
#include <cstdlib>

#include "harness/experiment.hpp"
#include "harness/run_env.hpp"
#include "stats/stats.hpp"

int main(int argc, char** argv) {
  using namespace clove;

  const int fanout = argc > 1 ? std::atoi(argv[1]) : 8;
  const int requests = argc > 2 ? std::atoi(argv[2]) : 40;
  const harness::RunEnv env = harness::RunEnv::from_env();
  env.apply_process();

  std::printf("incast: 10MB object over %d servers, %d requests\n\n", fanout,
              requests);

  stats::Table table({"scheme", "goodput (Gb/s)", "p99 request time (ms)"});
  for (harness::Scheme s :
       {harness::Scheme::kCloveEcn, harness::Scheme::kEdgeFlowlet,
        harness::Scheme::kMptcp}) {
    harness::ExperimentConfig cfg = harness::make_testbed_profile();
    cfg.scheme = s;
    env.apply(cfg);
    harness::Testbed tb(cfg);
    tb.start_discovery();

    workload::IncastConfig ic;
    ic.fanout = fanout;
    ic.requests = requests;
    ic.tcp = cfg.tcp;
    ic.mptcp = cfg.mptcp;
    ic.use_mptcp = (s == harness::Scheme::kMptcp);
    ic.start_time = cfg.traffic_start;
    workload::IncastWorkload incast(tb.simulator(), ic, tb.clients()[0],
                                    tb.servers());
    incast.start([&] { tb.simulator().stop(); });
    tb.simulator().run(cfg.max_sim_time);

    table.add_row({harness::scheme_name(s),
                   stats::Table::fmt(incast.goodput_gbps(), 2),
                   stats::Table::fmt(
                       incast.request_durations().percentile(99) * 1000, 1)});
  }
  table.print();
  return 0;
}
