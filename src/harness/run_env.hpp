#pragma once

#include <optional>
#include <string>

#include "fault/fault.hpp"
#include "harness/experiment.hpp"
#include "prof/prof.hpp"
#include "sim/logging.hpp"
#include "telemetry/flight_recorder.hpp"

namespace clove::harness {

/// Every CLOVE_* knob a run takes from the environment. A binary's main()
/// reads it once and applies it explicitly to its configs, telemetry scope,
/// profiler session, ParallelRunner and log level; library code reads no
/// environment, so a config alone decides what a run computes.
struct RunEnv {
  std::string json_out;  ///< CLOVE_JSON_OUT: artifact directory ("" = none)
  /// CLOVE_JOBS / CLOVE_SEEDS / CLOVE_CONNS; non-positive values are ignored.
  BenchScale scale{};
  unsigned threads{0};  ///< CLOVE_THREADS, at most 1024 (0 = hardware)
  bool hybrid{false};   ///< CLOVE_HYBRID=on|1|true
  /// CLOVE_PROF=off|summary|full (unknown reads as off; unset: the binary's
  /// own default).
  std::optional<prof::Mode> prof;
  /// CLOVE_FLIGHT_RECORDER=off|sampled|full.
  telemetry::FlightMode flight{telemetry::FlightMode::kOff};
  int fabric_rounds{0};  ///< CLOVE_FABRIC_ROUNDS (0 = the bench's own)
  /// CLOVE_FAULT_PLAN via FaultPlan::load; empty, with the reason in
  /// fault_plan_error, when malformed.
  fault::FaultPlan fault_plan{};
  std::string fault_plan_error;
  sim::LogLevel log_level{sim::LogLevel::kWarn};  ///< CLOVE_LOG_LEVEL

  [[nodiscard]] static RunEnv from_env();

  /// Sets the log level and the calling thread's telemetry scope's flight
  /// recorder mode, and warns about an ignored fault plan.
  void apply_process() const;

  /// CLOVE_HYBRID turns the engine on, CLOVE_FAULT_PLAN arms when `cfg` has
  /// no plan of its own, and flight dumps go to CLOVE_JSON_OUT.
  void apply(ExperimentConfig& cfg) const;
};

}  // namespace clove::harness
