#include "harness/run_env.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "telemetry/scope.hpp"

namespace clove::harness {

RunEnv RunEnv::from_env() {
  auto positive = [](const char* name, int def) {
    const char* v = std::getenv(name);
    const int n = v != nullptr ? std::atoi(v) : 0;
    return n > 0 ? n : def;
  };
  auto is = [](const char* v, const char* s) {
    return v != nullptr && std::strcmp(v, s) == 0;
  };

  RunEnv env;
  if (const char* v = std::getenv("CLOVE_JSON_OUT")) env.json_out = v;
  env.scale.jobs_per_conn = positive("CLOVE_JOBS", env.scale.jobs_per_conn);
  env.scale.seeds = positive("CLOVE_SEEDS", env.scale.seeds);
  env.scale.conns_per_client =
      positive("CLOVE_CONNS", env.scale.conns_per_client);
  env.threads =
      static_cast<unsigned>(std::min(positive("CLOVE_THREADS", 0), 1024));
  const char* hybrid = std::getenv("CLOVE_HYBRID");
  env.hybrid = is(hybrid, "on") || is(hybrid, "1") || is(hybrid, "true");
  if (const char* v = std::getenv("CLOVE_PROF")) {
    env.prof = is(v, "summary") ? prof::Mode::kSummary
               : is(v, "full")  ? prof::Mode::kFull
                                : prof::Mode::kOff;
  }
  const char* flight = std::getenv("CLOVE_FLIGHT_RECORDER");
  env.flight = is(flight, "full")      ? telemetry::FlightMode::kFull
               : is(flight, "sampled") ? telemetry::FlightMode::kSampled
                                       : telemetry::FlightMode::kOff;
  env.fabric_rounds = positive("CLOVE_FABRIC_ROUNDS", 0);
  if (const char* v = std::getenv("CLOVE_FAULT_PLAN")) {
    env.fault_plan = fault::FaultPlan::load(v, &env.fault_plan_error);
  }
  if (const char* v = std::getenv("CLOVE_LOG_LEVEL")) {
    env.log_level = sim::parse_log_level(v);
  }
  return env;
}

void RunEnv::apply_process() const {
  sim::log_level() = log_level;
  telemetry::current_scope().set_flight_config({.mode = flight});
  if (!fault_plan_error.empty()) {
    CLOVE_WARN(0, "harness", "ignoring fault plan: %s",
               fault_plan_error.c_str());
  }
}

void RunEnv::apply(ExperimentConfig& cfg) const {
  if (hybrid) cfg.hybrid.enabled = true;
  if (cfg.fault_plan.empty()) cfg.fault_plan = fault_plan;
  cfg.artifact_dir = json_out;
}

}  // namespace clove::harness
