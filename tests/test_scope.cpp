// Tests for telemetry scoping: the thread-local current scope, ScopeGuard
// nesting, the enabled() hot-path flag, and per-scope metric isolation.

#include <gtest/gtest.h>

#include <thread>

#include "telemetry/scope.hpp"

namespace clove::telemetry {
namespace {

TEST(Scope, GuardInstallsAndRestores) {
  Scope& before = current_scope();
  Scope inner;
  {
    ScopeGuard guard(inner);
    EXPECT_EQ(&current_scope(), &inner);
  }
  EXPECT_EQ(&current_scope(), &before);
}

TEST(Scope, GuardsNest) {
  Scope a;
  Scope b;
  ScopeGuard ga(a);
  {
    ScopeGuard gb(b);
    EXPECT_EQ(&current_scope(), &b);
  }
  EXPECT_EQ(&current_scope(), &a);
}

TEST(Scope, EnabledFlagTracksCurrentScope) {
  Scope on{ScopeSettings{true}};
  Scope off;
  {
    ScopeGuard g(on);
    EXPECT_TRUE(enabled());
    {
      ScopeGuard g2(off);
      EXPECT_FALSE(enabled());
    }
    EXPECT_TRUE(enabled());
  }
}

TEST(Scope, SetEnabledUpdatesHotPathFlagWhenCurrent) {
  Scope s;
  ScopeGuard g(s);
  EXPECT_FALSE(enabled());
  s.set_enabled(true);
  EXPECT_TRUE(enabled());
  s.set_enabled(false);
  EXPECT_FALSE(enabled());
}

TEST(Scope, MetricsAreIsolatedPerScope) {
  Scope a;
  Scope b;
  {
    ScopeGuard g(a);
    current_scope().metrics().counter("scope.test")->add(3);
  }
  {
    ScopeGuard g(b);
    auto* c = current_scope().metrics().counter("scope.test");
    EXPECT_EQ(c->value(), 0u) << "scopes must not share registries";
  }
  {
    ScopeGuard g(a);
    EXPECT_EQ(current_scope().metrics().counter("scope.test")->value(), 3u);
  }
}

TEST(Scope, SettingsRoundTripToChildScopes) {
  ScopeSettings s;
  s.enabled = true;
  s.flight.mode = FlightMode::kSampled;
  s.flight.sample_every = 8;
  Scope parent{s};
  const ScopeSettings inherited = parent.settings();
  EXPECT_TRUE(inherited.enabled);
  EXPECT_EQ(inherited.flight.mode, FlightMode::kSampled);
  EXPECT_EQ(inherited.flight.sample_every, 8u);
  Scope child{inherited};
  EXPECT_TRUE(child.is_enabled());
  EXPECT_EQ(child.flight_config().mode, FlightMode::kSampled);
  EXPECT_EQ(child.flight_config().sample_every, 8u);
}

TEST(Scope, BeginRunClearsValuesButKeepsCells) {
  Scope s{ScopeSettings{true}};
  ScopeGuard g(s);
  auto* c = current_scope().metrics().counter("scope.begin_run");
  c->add(5);
  current_scope().begin_run();
  EXPECT_EQ(c->value(), 0u);  // same cell, zeroed
  EXPECT_EQ(current_scope().metrics().counter("scope.begin_run"), c);
  if (enabled()) c->add();  // the instrumented-site idiom still records
  EXPECT_EQ(c->value(), 1u);
}

TEST(Scope, ProcessScopeBeginRunZeroesWithoutInvalidating) {
  // No guard installed: the thread's process scope, as component
  // constructors see it.
  Scope& s = current_scope();
  const bool was = s.is_enabled();
  s.set_enabled(true);
  Counter* c = s.metrics().counter("test.process_scope.counter");
  c->add(5);
  s.begin_run();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(s.metrics().counter("test.process_scope.counter"), c);
  if (enabled()) c->add();  // the instrumented-site idiom
  EXPECT_EQ(c->value(), 1u);
  s.set_enabled(was);
  s.begin_run();
}

TEST(Scope, DisabledGuardSkipsRecording) {
  Scope s;
  ScopeGuard g(s);
  current_scope().begin_run();
  EXPECT_FALSE(enabled());
  auto* c = current_scope().metrics().counter("scope.disabled");
  if (enabled()) c->add();  // skipped: the scope is disabled
  EXPECT_EQ(c->value(), 0u);
}

TEST(Scope, EachThreadFallsBackToTheProcessScope) {
  // Threads with no installed scope share the lazily created process scope.
  Scope* main_scope = &current_scope();
  Scope* seen = nullptr;
  std::thread t([&seen] { seen = &current_scope(); });
  t.join();
  EXPECT_EQ(seen, main_scope);
}

TEST(Scope, InstalledScopeIsThreadLocal) {
  // A scope installed on one thread must not leak to another.
  Scope inner;
  ScopeGuard g(inner);
  Scope* other_thread_scope = nullptr;
  std::thread t([&other_thread_scope] {
    other_thread_scope = &current_scope();
  });
  t.join();
  EXPECT_NE(other_thread_scope, &inner);
}

}  // namespace
}  // namespace clove::telemetry
