// Micro-benchmarks (google-benchmark) for the per-packet datapath
// operations Clove adds to the hypervisor vswitch (§4 "Minimal packet
// processing overhead"): ECMP hashing, flowlet-table touches, WRR picks,
// DRE updates, full policy pick_port() calls, the simulator event/packet
// hot loop (events/sec and heap allocations per event — the perf baseline
// EXPERIMENTS.md tracks), guest TCP ACK processing through a SACK
// recovery, and building and re-routing a k=8 / k=16 fat-tree.
//
// With CLOVE_JSON_OUT=<dir> set, the custom main() below writes every
// benchmark's ns/op and user counters to <dir>/BENCH_micro.json so runs can
// be diffed across commits.

#include <benchmark/benchmark.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>

#include "alloc_count.hpp"
#include "bench_common.hpp"
#include "lb/clove_ecn.hpp"
#include "lb/clove_int.hpp"
#include "lb/ecmp.hpp"
#include "lb/edge_flowlet.hpp"
#include "lb/presto.hpp"
#include "net/fat_tree.hpp"
#include "net/packet_pool.hpp"
#include "overlay/flowlet.hpp"
#include "overlay/hypervisor.hpp"
#include "sim/simulator.hpp"
#include "telemetry/dre.hpp"
#include "telemetry/scope.hpp"
#include "transport/tcp.hpp"

namespace {

using namespace clove;
using bench::alloc_count;

net::FiveTuple tuple_for(int i) {
  return net::FiveTuple{1, 2, static_cast<std::uint16_t>(1000 + (i & 1023)),
                        80, net::Proto::kTcp};
}

overlay::PathSet four_paths() {
  overlay::PathSet ps;
  for (std::uint16_t i = 0; i < 4; ++i) {
    overlay::PathInfo p;
    p.port = static_cast<std::uint16_t>(50000 + i);
    p.hops = {{10, 0},
              {static_cast<net::IpAddr>(20 + i / 2), static_cast<int>(i % 2)},
              {11, static_cast<int>(i % 2)},
              {2, 0}};
    ps.paths.push_back(p);
  }
  return ps;
}

void BM_EcmpHash(benchmark::State& state) {
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::hash_tuple(tuple_for(i++), 42));
  }
}
BENCHMARK(BM_EcmpHash);

void BM_FlowletTouch(benchmark::State& state) {
  overlay::FlowletTracker tracker(100 * sim::kMicrosecond);
  sim::Time now = 0;
  int i = 0;
  for (auto _ : state) {
    now += 1000;
    benchmark::DoNotOptimize(tracker.touch(tuple_for(i++), now));
  }
}
BENCHMARK(BM_FlowletTouch);

void BM_DreUpdate(benchmark::State& state) {
  telemetry::Dre dre(0.1, 50 * sim::kMicrosecond, 1.25e9);
  sim::Time now = 0;
  for (auto _ : state) {
    now += 1200;
    dre.on_transmit(now, 1500);
    benchmark::DoNotOptimize(dre.utilization(now));
  }
}
BENCHMARK(BM_DreUpdate);

template <typename Policy>
void run_policy_bench(benchmark::State& state, Policy& policy,
                      bool with_paths) {
  if (with_paths) policy.on_paths_updated(2, four_paths());
  auto pkt = net::make_packet();
  sim::Time now = 0;
  int i = 0;
  for (auto _ : state) {
    now += 1000;
    pkt->inner = tuple_for(i++);
    pkt->payload = 1460;
    benchmark::DoNotOptimize(policy.pick_port(*pkt, 2, now));
  }
}

void BM_PickPort_Ecmp(benchmark::State& state) {
  lb::EcmpPolicy p;
  run_policy_bench(state, p, false);
}
BENCHMARK(BM_PickPort_Ecmp);

void BM_PickPort_EdgeFlowlet(benchmark::State& state) {
  lb::EdgeFlowletPolicy p;
  run_policy_bench(state, p, false);
}
BENCHMARK(BM_PickPort_EdgeFlowlet);

void BM_PickPort_CloveEcn(benchmark::State& state) {
  lb::CloveEcnPolicy p;
  run_policy_bench(state, p, true);
}
BENCHMARK(BM_PickPort_CloveEcn);

void BM_PickPort_CloveInt(benchmark::State& state) {
  lb::CloveIntPolicy p;
  run_policy_bench(state, p, true);
}
BENCHMARK(BM_PickPort_CloveInt);

void BM_PickPort_Presto(benchmark::State& state) {
  lb::PrestoPolicy p;
  run_policy_bench(state, p, true);
}
BENCHMARK(BM_PickPort_Presto);

// --- telemetry overhead ----------------------------------------------------
// Telemetry must be free when disabled (one predictable branch on the hot
// path) and cheap when enabled. Compare the *_Telemetry variants against
// their plain counterparts above: the disabled delta is the §4 "minimal
// overhead" claim for the instrumentation itself.

/// RAII: run one benchmark with telemetry enabled, restore the default after.
struct ScopedTelemetry {
  explicit ScopedTelemetry(bool on)
      : was_(telemetry::current_scope().is_enabled()) {
    telemetry::current_scope().set_enabled(on);
  }
  ~ScopedTelemetry() {
    telemetry::current_scope().set_enabled(was_);
    telemetry::current_scope().begin_run();
  }
  bool was_;
};

void BM_PickPort_CloveEcn_Telemetry(benchmark::State& state) {
  ScopedTelemetry t(true);
  lb::CloveEcnPolicy p;
  run_policy_bench(state, p, true);
}
BENCHMARK(BM_PickPort_CloveEcn_Telemetry);

void BM_TelemetryGuard_Disabled(benchmark::State& state) {
  // The cost instrumented components pay when telemetry is off: one load +
  // branch around the (skipped) counter add.
  ScopedTelemetry t(false);
  telemetry::Counter* c =
      telemetry::current_scope().metrics().counter("bench.guard");
  for (auto _ : state) {
    if (telemetry::enabled()) c->add();
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_TelemetryGuard_Disabled);

void BM_TelemetryCounterAdd_Enabled(benchmark::State& state) {
  ScopedTelemetry t(true);
  telemetry::Counter* c =
      telemetry::current_scope().metrics().counter("bench.guard");
  for (auto _ : state) {
    if (telemetry::enabled()) c->add();
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_TelemetryCounterAdd_Enabled);

void BM_TelemetryHistogramObserve(benchmark::State& state) {
  ScopedTelemetry t(true);
  telemetry::Histogram* h =
      telemetry::current_scope().metrics().histogram("bench.histogram");
  double v = 1.0;
  for (auto _ : state) {
    v = v < 1e6 ? v * 1.37 : 1.0;
    h->observe(v);
  }
  benchmark::DoNotOptimize(h);
}
BENCHMARK(BM_TelemetryHistogramObserve);

void BM_CloveEcnFeedback(benchmark::State& state) {
  lb::CloveEcnPolicy p;
  p.on_paths_updated(2, four_paths());
  net::CloveFeedback fb;
  fb.present = true;
  fb.ecn_set = true;
  sim::Time now = 0;
  int i = 0;
  for (auto _ : state) {
    now += 10'000;
    fb.port = static_cast<std::uint16_t>(50000 + (i++ & 3));
    p.on_feedback(2, fb, now);
  }
}
BENCHMARK(BM_CloveEcnFeedback);

// --- simulator event loop --------------------------------------------------
// The perf baseline behind the pooled-packet + slab-EventQueue + SmallFn
// datapath: events/sec through schedule->run and exact heap allocations per
// event. The first iterations warm the slab/pool (a handful of allocations);
// amortized over the run, steady state must read 0.00 allocs/event.

void report_events(benchmark::State& state, std::uint64_t allocs) {
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
  state.counters["allocs_per_event"] =
      benchmark::Counter(static_cast<double>(allocs),
                         benchmark::Counter::kAvgIterations);
}

void BM_EventChain(benchmark::State& state) {
  sim::Simulator sim;
  sim::Time t = 0;
  std::uint64_t fired = 0;
  const std::uint64_t a0 = alloc_count();
  for (auto _ : state) {
    t += 1000;
    sim.schedule_at(t, [&fired] { ++fired; });
    sim.run(t);
  }
  report_events(state, alloc_count() - a0);
  benchmark::DoNotOptimize(fired);
}
BENCHMARK(BM_EventChain);

/// The transport's load on the event queue: kLinks link-like events, one
/// per microsecond, each re-arming itself kLinks microseconds later, and
/// every fire re-arms one of kTimers 200 ms RTO timers (cancel + schedule),
/// as each ACK does in TcpSender. A cancelled timer entry would otherwise
/// sit in the heap until its deadline, 200 k events later.
struct TimerChurn {
  static constexpr int kLinks = 600;
  static constexpr std::size_t kTimers = 32;
  sim::EventQueue q;
  sim::Time now = 0;
  std::array<sim::EventId, kTimers> rto{};
  std::size_t next_rto = 0;
  std::uint64_t timeouts = 0;

  void link_event() {
    sim::EventId& timer = rto[next_rto++ % kTimers];
    q.cancel(timer);
    timer = q.schedule(now + 200 * sim::kMillisecond, [this] { ++timeouts; });
    q.schedule(now + kLinks * sim::kMicrosecond, [this] { link_event(); });
  }
};

void BM_EventQueue_TimerChurn(benchmark::State& state) {
  TimerChurn c;
  for (int i = 0; i < TimerChurn::kLinks; ++i) {
    c.q.schedule(i * sim::kMicrosecond, [&c] { c.link_event(); });
  }
  const std::uint64_t a0 = alloc_count();
  for (auto _ : state) c.q.run_next_until(sim::kTimeNever, &c.now);
  report_events(state, alloc_count() - a0);
  benchmark::DoNotOptimize(c.timeouts);
}
BENCHMARK(BM_EventQueue_TimerChurn);

/// The mix the workloads schedule: every packet hop is a tx completion
/// followed by a propagation wake. kLinks links each alternate the two, with
/// the six most frequent serialization delays recorded in the perfbench
/// workloads (15 ns to 1.23 us) and 1 or 5 us of propagation, and every wake
/// re-arms one of kTimers 200 ms RTO timers (cancel + schedule), as an ACK
/// does in TcpSender.
struct LinkMix {
  static constexpr int kLinks = 96;
  static constexpr std::size_t kTimers = 32;
  static constexpr std::array<sim::Time, 6> kTx{15, 28, 62, 113, 307, 1230};
  static constexpr std::array<sim::Time, 2> kProp{1 * sim::kMicrosecond,
                                                  5 * sim::kMicrosecond};
  sim::EventQueue q;
  sim::Time now = 0;
  std::array<sim::EventId, kTimers> rto{};
  std::size_t next_rto = 0;
  std::uint64_t timeouts = 0;

  void tx_done(int link) {
    q.schedule(now + kProp[(link / kTx.size()) % kProp.size()],
               [this, link] { wake(link); });
  }

  void wake(int link) {
    sim::EventId& timer = rto[next_rto++ % kTimers];
    q.cancel(timer);
    timer = q.schedule(now + 200 * sim::kMillisecond, [this] { ++timeouts; });
    q.schedule(now + kTx[link % kTx.size()], [this, link] { tx_done(link); });
  }
};

void BM_EventQueue_LinkMix(benchmark::State& state) {
  LinkMix m;
  for (int link = 0; link < LinkMix::kLinks; ++link) {
    m.q.schedule(link, [&m, link] { m.tx_done(link); });
  }
  const std::uint64_t a0 = alloc_count();
  for (auto _ : state) m.q.run_next_until(sim::kTimeNever, &m.now);
  report_events(state, alloc_count() - a0);
  benchmark::DoNotOptimize(m.timeouts);
}
BENCHMARK(BM_EventQueue_LinkMix);

void BM_PacketEvent_Pooled(benchmark::State& state) {
  // The steady-state datapath op: acquire a pooled packet, schedule an event
  // owning it (inline in the SmallFn buffer), fire it, packet returns to the
  // pool. Zero heap traffic once the pool and slab are warm.
  sim::Simulator sim;
  sim::Time t = 0;
  std::uint64_t bytes = 0;
  const std::uint64_t a0 = alloc_count();
  for (auto _ : state) {
    t += 1000;
    auto pkt = net::make_packet(sim);
    pkt->payload = 1460;
    sim.schedule_at(t, [&bytes, pkt = std::move(pkt)]() mutable {
      bytes += pkt->wire_size();
      pkt.reset();
    });
    sim.run(t);
  }
  report_events(state, alloc_count() - a0);
  state.counters["pool_allocated"] = static_cast<double>(
      net::PacketPool::of(sim).allocated());
  benchmark::DoNotOptimize(bytes);
}
BENCHMARK(BM_PacketEvent_Pooled);

void BM_PacketEvent_Heap(benchmark::State& state) {
  // Same op with the heap factory: one packet allocation per event (what
  // every packet cost before the pool; the std::function-era datapath added
  // two more for the callable and its shared_ptr holder).
  sim::Simulator sim;
  sim::Time t = 0;
  std::uint64_t bytes = 0;
  const std::uint64_t a0 = alloc_count();
  for (auto _ : state) {
    t += 1000;
    auto pkt = net::make_packet();
    pkt->payload = 1460;
    sim.schedule_at(t, [&bytes, pkt = std::move(pkt)]() mutable {
      bytes += pkt->wire_size();
      pkt.reset();
    });
    sim.run(t);
  }
  report_events(state, alloc_count() - a0);
  benchmark::DoNotOptimize(bytes);
}
BENCHMARK(BM_PacketEvent_Heap);

void BM_PacketPool_RoundTrip(benchmark::State& state) {
  sim::Simulator sim;
  auto& pool = net::PacketPool::of(sim);
  const std::uint64_t a0 = alloc_count();
  for (auto _ : state) {
    auto pkt = pool.acquire();
    benchmark::DoNotOptimize(pkt);
  }
  report_events(state, alloc_count() - a0);
}
BENCHMARK(BM_PacketPool_RoundTrip);

void BM_PacketHeap_RoundTrip(benchmark::State& state) {
  const std::uint64_t a0 = alloc_count();
  for (auto _ : state) {
    auto pkt = net::make_packet();
    benchmark::DoNotOptimize(pkt);
  }
  report_events(state, alloc_count() - a0);
}
BENCHMARK(BM_PacketHeap_RoundTrip);

// --- guest TCP ACK processing ----------------------------------------------
// A sender and receiver joined by a 10 us pipe that drops each episode's
// first transmission of every other segment among its segments 40 to 239:
// every episode is a SACK recovery whose scoreboard grows to 100 holes.
// One iteration runs the pipe until the sender has processed one more ACK,
// so ns_per_ack prices the whole ACK clock (delivery events, the receiver's
// reassembly and SACK generation, the sender's scoreboard and pump). Once
// the pools and the scoreboard are warm the transport allocates nothing;
// allocs_per_ack reads ~4e-5, the event queue now and then regrowing a
// bucket array it gave back.

class SackRecoveryLoop {
 public:
  static constexpr std::uint32_t kMss = 1460;
  static constexpr std::uint64_t kSegments = 400;
  static constexpr std::uint64_t kWindow = 256;  ///< segments sent at once
  static constexpr std::uint64_t kFirstHole = 40;
  static constexpr std::uint64_t kHoles = 100;
  static constexpr sim::Time kDelay = 10 * sim::kMicrosecond;

  SackRecoveryLoop()
      : tx_port_(*this, true),
        rx_port_(*this, false),
        tx_(tx_port_, tuple_for(0)),
        rx_(rx_port_, tuple_for(0).reversed()) {}

  /// Run the pipe until the sender has processed one more ACK.
  void next_ack() {
    const std::uint64_t before = acks_;
    for (;;) {
      sim_.clear_stop();
      sim_.run();
      if (acks_ != before) return;
      start_episode();  // the pipe drained: the last episode is over
    }
  }

  [[nodiscard]] std::uint64_t acks() const { return acks_; }
  [[nodiscard]] std::uint64_t episodes() const { return episodes_; }
  [[nodiscard]] const transport::TcpSenderStats& stats() const {
    return tx_.stats();
  }

 private:
  class Port : public transport::VmPort {
   public:
    Port(SackRecoveryLoop& loop, bool data) : loop_(loop), data_(data) {}
    void vm_send(net::PacketPtr pkt) override {
      loop_.carry(data_, std::move(pkt));
    }
    sim::Simulator& simulator() override { return loop_.sim_; }

   private:
    SackRecoveryLoop& loop_;
    bool data_;
  };

  /// Every episode restarts at the same window: hybrid_suspend() and
  /// hybrid_resume() are the sender's way to resume at a given rate.
  void start_episode() {
    ++episodes_;
    episode_start_ = tx_.stream_end();
    tx_.hybrid_suspend();
    tx_.write(kSegments * kMss);
    const double rtt_s =
        static_cast<double>(tx_.srtt() > 0 ? tx_.srtt() : sim::kMillisecond) /
        static_cast<double>(sim::kSecond);
    tx_.hybrid_resume(static_cast<double>(kWindow * kMss) / rtt_s, sim_.now());
  }

  void carry(bool data, net::PacketPtr pkt) {
    if (data) {
      const std::uint64_t seq = pkt->tcp.seq;
      if (seq >= sent_end_) {  // a first transmission
        sent_end_ = seq + pkt->payload;
        const std::uint64_t seg = (seq - episode_start_) / kMss;
        if (seg >= kFirstHole && seg < kFirstHole + 2 * kHoles &&
            (seg - kFirstHole) % 2 == 0) {
          return;
        }
      }
    }
    transport::TcpEndpoint* dst = data ? static_cast<transport::TcpEndpoint*>(&rx_)
                                       : &tx_;
    sim_.schedule_in(kDelay, [this, dst, data, pkt = std::move(pkt)]() mutable {
      dst->on_packet(std::move(pkt));
      if (!data) {
        ++acks_;
        sim_.stop();
      }
    });
  }

  sim::Simulator sim_;
  Port tx_port_;
  Port rx_port_;
  transport::TcpSender tx_;
  transport::TcpReceiver rx_;
  std::uint64_t episode_start_{0};
  std::uint64_t sent_end_{0};
  std::uint64_t acks_{0};
  std::uint64_t episodes_{0};
};

void BM_TcpSender_SackRecovery(benchmark::State& state) {
  SackRecoveryLoop loop;
  // Warm up: the pools, the scoreboard and the event queue reach their
  // steady sizes.
  while (loop.episodes() < 20) loop.next_ack();
  const std::uint64_t a0 = alloc_count();
  const std::uint64_t e0 = loop.episodes();
  const std::uint64_t fr0 = loop.stats().fast_retransmits;
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) loop.next_ack();
  const std::chrono::duration<double, std::nano> ns =
      std::chrono::steady_clock::now() - t0;
  const auto acks = static_cast<double>(state.iterations());
  state.counters["ns_per_ack"] = ns.count() / acks;
  state.counters["allocs_per_ack"] =
      static_cast<double>(alloc_count() - a0) / acks;
  benchmark::DoNotOptimize(loop.acks());
  if (loop.stats().timeouts > 0) state.SkipWithError("recovery hit an RTO");
  // The episode running when timing stopped may not have recovered yet.
  if (loop.stats().fast_retransmits - fr0 + 1 < loop.episodes() - e0) {
    state.SkipWithError("an episode ended without a SACK recovery");
  }
}
BENCHMARK(BM_TcpSender_SackRecovery);

// --- fabric construction ---------------------------------------------------
// Builds a k-ary fat-tree of Hypervisor hosts (ECMP policy) the way the
// repo benchmark's fat-tree workload builds it: nodes and links, their
// metric cells registered in a fresh telemetry scope (telemetry off, as in
// an untraced run, so every cell is new), and the initial route
// computation. Reports per build: wall ns, heap allocations, route-table
// bytes, and the minor page faults of one build in a fresh child process;
// and ns per route recompute, which every link event triggers. The
// allocs_per_build and route_bytes rows are committed; the times and
// faults are informational.

struct FatTreeRig {
  telemetry::Scope scope{telemetry::ScopeSettings{}};
  telemetry::ScopeGuard guard{scope};
  sim::Simulator sim{1};
  net::Topology topo{sim};

  explicit FatTreeRig(int k) {
    net::FatTreeConfig cfg;
    cfg.k = k;
    transport::TcpConfig tcp;
    tcp.ecn = true;
    net::build_fat_tree(
        topo, cfg, [this, tcp](net::Topology& t, const std::string& name, int) {
          overlay::HypervisorConfig h;
          h.tcp = tcp;
          return static_cast<net::Node*>(t.add_host<overlay::Hypervisor>(
              name, sim, h, std::make_unique<lb::EcmpPolicy>()));
        });
  }
};

long minor_faults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_minflt;
}

/// Minor page faults of one k-ary build in a forked child, or -1. A warm
/// loop cannot price first touches: after one build frees its memory, the
/// next build's faults count whichever pages glibc happened to trim. In a
/// child every page the build writes faults once, first touch or
/// copy-on-write, as it does in a process that builds one fabric.
long fresh_build_faults(int k) {
  int fds[2];
  if (pipe(fds) != 0) return -1;
  const pid_t pid = fork();
  if (pid == 0) {
    close(fds[0]);
    const long f0 = minor_faults();
    {
      FatTreeRig rig(k);
      benchmark::DoNotOptimize(rig.topo.route_epoch());
    }
    const long faults = minor_faults() - f0;
    const bool sent = write(fds[1], &faults, sizeof faults) == sizeof faults;
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  long faults = -1;
  if (pid < 0 || read(fds[0], &faults, sizeof faults) != sizeof faults) {
    faults = -1;
  }
  close(fds[0]);
  if (pid > 0) waitpid(pid, nullptr, 0);
  return faults;
}

std::size_t route_bytes(const net::Topology& topo) {
  std::size_t bytes = 0;
  for (const net::Switch* sw : topo.switches()) {
    bytes += sw->route_table_bytes();
  }
  return bytes;
}

void BM_FatTreeBuild(benchmark::State& state) {
  using Clock = std::chrono::steady_clock;
  const int k = static_cast<int>(state.range(0));
  FatTreeRig(k).topo.compute_routes();  // warm lazily-built process state
  const std::uint64_t a0 = alloc_count();
  Clock::duration built{};
  for (auto _ : state) {
    const Clock::time_point t0 = Clock::now();
    auto rig = std::make_unique<FatTreeRig>(k);
    built += Clock::now() - t0;
    benchmark::DoNotOptimize(rig->topo.route_epoch());
    state.PauseTiming();
    rig.reset();
    state.ResumeTiming();
  }
  const std::uint64_t allocs = alloc_count() - a0;
  const auto builds = static_cast<double>(state.iterations());
  state.counters["ns_per_build"] =
      std::chrono::duration<double, std::nano>(built).count() / builds;
  state.counters["allocs_per_build"] =
      static_cast<double>(allocs) / builds;
  state.counters["faults_per_build"] =
      static_cast<double>(fresh_build_faults(k));

  FatTreeRig rig(k);
  state.counters["route_bytes"] =
      static_cast<double>(route_bytes(rig.topo));
  constexpr int kRecomputes = 8;
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kRecomputes; ++i) rig.topo.compute_routes();
  state.counters["ns_per_recompute"] =
      std::chrono::duration<double, std::nano>(Clock::now() - t0).count() /
      kRecomputes;
}
BENCHMARK(BM_FatTreeBuild)->Arg(8)->Arg(16)->Unit(benchmark::kMillisecond);

// --- artifact emission -----------------------------------------------------

/// Records every run's ns/op and user counters into the bench Artifact,
/// producing BENCH_micro.json when CLOVE_JSON_OUT is set (see
/// run_benches.sh), and hands each report on to the display reporter
/// --benchmark_format selects.
class ArtifactReporter : public benchmark::BenchmarkReporter {
 public:
  bool ReportContext(const Context& context) override {
    return display_->ReportContext(context);
  }
  void ReportRuns(const std::vector<Run>& runs) override {
    if (bench::Artifact* a = bench::Artifact::current()) {
      for (const Run& run : runs) {
        if (run.iterations == 0) continue;
        const double ns_per_op = run.real_accumulated_time /
                                 static_cast<double>(run.iterations) * 1e9;
        a->add_value(run.benchmark_name() + ".ns_per_op", ns_per_op);
        for (const auto& [cname, counter] : run.counters) {
          a->add_value(run.benchmark_name() + "." + cname, counter.value);
        }
      }
    }
    display_->ReportRuns(runs);
  }
  void Finalize() override { display_->Finalize(); }

 private:
  /// Owned by the library.
  benchmark::BenchmarkReporter* display_ =
      benchmark::CreateDefaultDisplayReporter();
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  const auto scale = clove::harness::BenchScale::from_env();
  clove::bench::Artifact artifact("BENCH_micro",
                                  "micro datapath perf baseline", scale);
  // The Artifact enables telemetry for figure benches; here it would skew the
  // plain (telemetry-off) datapath numbers, and the *_Telemetry benchmarks
  // scope their own enablement anyway.
  clove::telemetry::current_scope().set_enabled(false);
  ArtifactReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}
