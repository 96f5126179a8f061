#pragma once

// Shared plumbing for the bench binaries: the JSON artifact. Each bench's
// main() reads the CLOVE_* knobs once (harness::RunEnv; README.md lists
// them) and declares a bench::Artifact with the RunEnv's directory and
// profiler mode; with CLOVE_JSON_OUT=<dir> it writes <dir>/<bench>.json on
// exit.

#include <chrono>
#include <cstdio>
#include <string>
#include <utility>

#include "harness/experiment.hpp"
#include "harness/run_env.hpp"
#include "prof/prof.hpp"
#include "telemetry/artifact.hpp"
#include "telemetry/scope.hpp"

namespace clove::bench {

/// Collects every point a bench sweeps and, when `dir` is not empty, writes
/// `<dir>/<bench>.json` on destruction. Constructing one enables telemetry
/// when artifacts are requested, so snapshots carry data, and installs a
/// session profiler in `prof_mode`. current() is the most recently
/// constructed instance.
class Artifact {
 public:
  Artifact(std::string name, std::string paper_ref,
           const harness::BenchScale& scale, std::string dir,
           prof::Mode prof_mode)
      : name_(std::move(name)),
        dir_(std::move(dir)),
        doc_(telemetry::Json::object()),
        points_(telemetry::Json::array()),
        values_(telemetry::Json::array()),
        start_(std::chrono::steady_clock::now()),
        prof_session_(prof_mode) {
    doc_.set("bench", telemetry::Json(name_));
    doc_.set("reproduces", telemetry::Json(paper_ref));
    scale_.set("jobs_per_conn", telemetry::Json(scale.jobs_per_conn));
    scale_.set("seeds", telemetry::Json(scale.seeds));
    scale_.set("conns_per_client", telemetry::Json(scale.conns_per_client));
    doc_.set("scale", scale_);
    // Artifacts without telemetry would carry all-zero counters; requesting
    // JSON output implies wanting the instrumented values.
    if (!dir_.empty()) telemetry::current_scope().set_enabled(true);
    current_ = this;
  }

  Artifact(const Artifact&) = delete;
  Artifact& operator=(const Artifact&) = delete;

  ~Artifact() {
    if (current_ == this) current_ = nullptr;
    if (dir_.empty()) return;
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    doc_.set("wall_time_s", telemetry::Json(wall_s));

    // Engine observability (DESIGN.md §10): every bench artifact carries the
    // run's event throughput, queue pressure, and process peak RSS — and,
    // when a profiler is installed, its self-profile section plus
    // flamegraph/Chrome-trace side files.
    const double rss_mb = prof::peak_rss_mb();
    telemetry::Json eng = telemetry::Json::object();
    eng.set("events", telemetry::Json(static_cast<double>(total_events_)));
    const double eps = wall_s > 0.0 && total_events_ > 0
                           ? static_cast<double>(total_events_) / wall_s
                           : 0.0;
    eng.set("events_per_sec", telemetry::Json(eps));
    eng.set("queue_hwm",
            telemetry::Json(static_cast<double>(queue_hwm_)));
    eng.set("peak_rss_mb", telemetry::Json(rss_mb));
    if (prof::Profiler* p = prof_session_.profiler()) {
      std::string err;
      telemetry::Json sp = telemetry::Json::parse(p->to_json(), &err);
      if (err.empty()) eng.set("self_profile", std::move(sp));
      if (p->mode() == prof::Mode::kFull) {
        telemetry::write_text_artifact(dir_, "PROF_" + name_ + ".folded",
                                       p->folded());
        telemetry::write_text_artifact(dir_, "PROF_" + name_ + "_trace.json",
                                       p->chrome_trace());
      }
    }
    doc_.set("engine", eng);
    // Mirror the guard-relevant gauges into `values` so bench_check.py can
    // hold them to its floor (_per_sec) and ceiling (.rss_mb) rules.
    if (total_events_ > 0 && mirror_engine_rate_) {
      add_value("engine.events_per_sec", eps);
    }
    add_value("engine.rss_mb", rss_mb);

    doc_.set("points", points_);
    if (values_.size() > 0) doc_.set("values", values_);
    const std::string path = telemetry::write_json_artifact(dir_, name_, doc_);
    if (!path.empty()) {
      std::printf("\nartifact: %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "\nwarning: CLOVE_JSON_OUT=%s is not writable, %s.json not saved\n",
                   dir_.c_str(), name_.c_str());
    }
  }

  [[nodiscard]] static Artifact* current() { return current_; }

  /// One swept point (an object; the figure driver builds it).
  void add_point(telemetry::Json point) { points_.push_back(std::move(point)); }

  /// Record, in the `scale` block, the engine modes the run's peak RSS
  /// depends on: bench_check.py fails an rss row whose baseline was taken
  /// in other modes.
  void set_run_modes(unsigned threads, const char* flight_recorder) {
    scale_.set("threads", telemetry::Json(static_cast<int>(threads)));
    scale_.set("flight_recorder", telemetry::Json(flight_recorder));
    doc_.set("scale", scale_);
  }

  /// Free-form named value for benches whose output is not a load sweep
  /// (incast goodput, micro-bench ratios, parameter ablations).
  void add_value(const std::string& name, double value,
                 const telemetry::Labels& labels = {}) {
    telemetry::Json v = telemetry::Json::object();
    v.set("name", telemetry::Json(name));
    for (const auto& [k, val] : labels) v.set(k, telemetry::Json(val));
    v.set("value", telemetry::Json(value));
    values_.push_back(v);
  }

 private:
  inline static Artifact* current_ = nullptr;

  std::string name_;
  std::string dir_;
  telemetry::Json doc_;
  telemetry::Json scale_{telemetry::Json::object()};
  telemetry::Json points_;
  telemetry::Json values_;
  std::chrono::steady_clock::time_point start_;
  /// Installs a Profiler for the bench's lifetime unless the mode is off —
  /// declaring the Artifact makes the binary profilable, nothing else to do.
  prof::SessionGuard prof_session_;
  std::uint64_t total_events_{0};
  std::uint64_t queue_hwm_{0};
  bool mirror_engine_rate_{true};

 public:
  /// Fold one run's engine gauges into the artifact totals.
  void note_engine(std::uint64_t events, std::uint64_t queue_hwm) {
    total_events_ += events;
    if (queue_hwm > queue_hwm_) queue_hwm_ = queue_hwm;
  }
  /// Opt out of the blended `engine.events_per_sec` values row (the JSON
  /// `engine` section keeps it either way). For benches whose phases are
  /// gated on knobs (bench_scale's CLOVE_HYBRID A/B arm) the blend
  /// mixes different work per CI matrix leg, so no one committed floor fits
  /// every leg — their per-phase *_per_sec rows carry the throughput guard
  /// instead.
  void set_mirror_engine_rate(bool on) { mirror_engine_rate_ = on; }
  /// The bench's session profiler, or null when its mode is off.
  [[nodiscard]] prof::Profiler* profiler() { return prof_session_.profiler(); }
};

}  // namespace clove::bench
