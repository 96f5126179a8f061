#include "telemetry/scope.hpp"

#include <cstdlib>

namespace clove::telemetry {

namespace detail {
constinit thread_local Scope* tl_scope = nullptr;
constinit thread_local bool tl_enabled = false;
constinit thread_local FlightRecorder* tl_flight = nullptr;
}  // namespace detail

ScopeSettings ScopeSettings::from_env() {
  ScopeSettings s;
  if (const char* v = std::getenv("CLOVE_TELEMETRY")) {
    s.enabled = v[0] != '\0' && v[0] != '0';
  }
  s.flight = FlightConfig::from_env();
  return s;
}

void Scope::set_enabled(bool on) {
  enabled_ = on;
  if (detail::tl_scope == this) detail::tl_enabled = on;
}

FlightRecorder* Scope::flight_recorder() {
  if (flight_cfg_.mode == FlightMode::kOff) return nullptr;
  if (!flight_) {
    flight_ = std::make_unique<FlightRecorder>(flight_cfg_, &metrics_);
  }
  return flight_.get();
}

void Scope::set_flight_config(const FlightConfig& cfg) {
  flight_cfg_ = cfg;
  flight_.reset();  // drop stale state recorded under the old config
  if (detail::tl_scope == this) detail::tl_flight = flight_recorder();
}

Scope& current_scope() {
  if (detail::tl_scope == nullptr) {
    // Lazy process-wide fallback, configured from the environment. Threads
    // that never install a scope all resolve here; construction is
    // thread-safe (magic static).
    static Scope process_scope{ScopeSettings::from_env()};
    detail::tl_scope = &process_scope;
    detail::tl_enabled = process_scope.is_enabled();
    detail::tl_flight = process_scope.flight_recorder();
  }
  return *detail::tl_scope;
}

}  // namespace clove::telemetry
