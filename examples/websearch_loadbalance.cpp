// Full web-search load-balancing comparison with CLI control: pick schemes,
// load, topology symmetry and scale from the command line. This is the
// general-purpose driver behind the Fig. 4/8 experiments, exposed as an
// example of composing the public API directly.
//
//   ./websearch_loadbalance [--load 70] [--asymmetric] [--jobs 40]
//                           [--conns 2] [--seeds 1] [--ns2]
//                           [--schemes ecmp,edge-flowlet,clove-ecn,...]
//
// Run with CLOVE_FLIGHT_RECORDER=sampled (or =full) to append, per scheme,
// the flight recorder's view of the run: per-spine traffic shares built from
// actual packet provenance plus the four invariant audit counters.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "stats/stats.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/scope.hpp"

namespace {

/// One line of provenance per scheme: where the bytes actually went, and
/// whether the always-on auditors stayed clean.
void print_flight_summary(const char* scheme,
                          const clove::telemetry::FlightSummary& fs) {
  std::printf("  %-13s %llu pkts, %llu journeys (recon %.1f%%), %llu flowlets",
              scheme, static_cast<unsigned long long>(fs.packets_seen),
              static_cast<unsigned long long>(fs.journeys_started),
              fs.reconstruction_rate() * 100.0,
              static_cast<unsigned long long>(fs.flowlets));
  const auto shares = fs.shares();
  if (!shares.empty()) std::printf(" |");
  for (std::size_t i = 0; i < shares.size(); ++i) {
    std::printf(" via %s %.1f%%", fs.path_names[i].c_str(),
                shares[i].bytes_pct);
  }
  std::printf(" | audits c=%llu fr=%llu vr=%llu em=%llu %s\n",
              static_cast<unsigned long long>(fs.audit.conservation),
              static_cast<unsigned long long>(fs.audit.flowlet_reorder),
              static_cast<unsigned long long>(fs.audit.vm_reorder),
              static_cast<unsigned long long>(fs.audit.ecn_mask),
              fs.audit.total() == 0 ? "[clean]" : "[VIOLATIONS]");
}

clove::harness::Scheme parse_scheme(const std::string& name) {
  using clove::harness::Scheme;
  if (name == "ecmp") return Scheme::kEcmp;
  if (name == "edge-flowlet") return Scheme::kEdgeFlowlet;
  if (name == "clove-ecn") return Scheme::kCloveEcn;
  if (name == "clove-int") return Scheme::kCloveInt;
  if (name == "clove-latency") return Scheme::kCloveLatency;
  if (name == "presto") return Scheme::kPresto;
  if (name == "mptcp") return Scheme::kMptcp;
  if (name == "conga") return Scheme::kConga;
  if (name == "letflow") return Scheme::kLetFlow;
  std::fprintf(stderr, "unknown scheme '%s'\n", name.c_str());
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace clove;

  double load = 0.7;
  bool asymmetric = false;
  bool ns2 = false;
  int jobs = 40, conns = 2, seeds = 1;
  std::vector<harness::Scheme> schemes = {
      harness::Scheme::kEcmp, harness::Scheme::kEdgeFlowlet,
      harness::Scheme::kCloveEcn, harness::Scheme::kMptcp,
      harness::Scheme::kPresto};

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(1);
      }
      return argv[++i];
    };
    if (arg == "--load") {
      load = std::atof(next()) / 100.0;
    } else if (arg == "--asymmetric") {
      asymmetric = true;
    } else if (arg == "--ns2") {
      ns2 = true;
    } else if (arg == "--jobs") {
      jobs = std::atoi(next());
    } else if (arg == "--conns") {
      conns = std::atoi(next());
    } else if (arg == "--seeds") {
      seeds = std::atoi(next());
    } else if (arg == "--schemes") {
      schemes.clear();
      std::stringstream ss(next());
      std::string item;
      while (std::getline(ss, item, ',')) schemes.push_back(parse_scheme(item));
    } else {
      std::fprintf(stderr, "usage: %s [--load P] [--asymmetric] [--ns2] "
                           "[--jobs N] [--conns N] [--seeds N] "
                           "[--schemes a,b,c]\n",
                   argv[0]);
      return 1;
    }
  }

  std::printf("web-search workload @ %.0f%% load, %s fabric, profile=%s\n",
              load * 100, asymmetric ? "asymmetric" : "symmetric",
              ns2 ? "ns2" : "testbed");
  std::printf("%d jobs/conn x %d conns/client x %d seed(s)\n\n", jobs, conns,
              seeds);

  const bool flight_on =
      telemetry::FlightConfig::from_env().mode != telemetry::FlightMode::kOff;

  stats::Table table({"scheme", "avg FCT (s)", "mice avg (s)", ">10MB avg (s)",
                      "p99 (s)", "timeouts", "drops"});
  for (harness::Scheme s : schemes) {
    double avg = 0, mice = 0, elep = 0, p99 = 0;
    std::uint64_t timeouts = 0, drops = 0;
    telemetry::FlightSummary flight{};
    for (int seed = 0; seed < seeds; ++seed) {
      harness::ExperimentConfig cfg =
          ns2 ? harness::make_ns2_profile() : harness::make_testbed_profile();
      cfg.scheme = s;
      cfg.asymmetric = asymmetric;
      cfg.seed = static_cast<std::uint64_t>(seed) * 7919 + 1;
      workload::ClientServerConfig wl;
      wl.load = load;
      wl.jobs_per_conn = jobs;
      wl.conns_per_client = conns;
      auto r = harness::run_fct_experiment(cfg, wl);
      avg += r.avg_fct_s / seeds;
      mice += r.mice_avg_fct_s / seeds;
      elep += r.elephant_avg_fct_s / seeds;
      p99 += r.p99_fct_s / seeds;
      timeouts += r.timeouts;
      drops += r.drops;
      flight = r.flight;  // last seed's provenance (each run resets the
                          // recorder, so only the latest snapshot is live)
    }
    table.add_row({harness::scheme_name(s), stats::Table::fmt(avg),
                   stats::Table::fmt(mice), stats::Table::fmt(elep),
                   stats::Table::fmt(p99), std::to_string(timeouts),
                   std::to_string(drops)});
    if (flight_on) {
      print_flight_summary(harness::scheme_name(s).c_str(), flight);
    } else {
      std::printf(".");
    }
    std::fflush(stdout);
  }
  std::printf("\n\n");
  table.print();
  if (!flight_on) {
    std::printf(
        "\n(rerun with CLOVE_FLIGHT_RECORDER=sampled for per-scheme path "
        "provenance and invariant audits)\n");
  }
  return 0;
}
