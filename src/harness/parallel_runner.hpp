#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "telemetry/scope.hpp"

namespace clove::harness {

/// Threads to use for parallel sweeps: the CLOVE_THREADS environment knob,
/// else std::thread::hardware_concurrency(). CLOVE_THREADS=1 disables
/// parallelism (tasks run inline on the caller, the pre-runner behavior).
[[nodiscard]] unsigned default_threads();

/// Thread pool for embarrassingly parallel sweep points.
///
/// Each sweep point is an independent simulation: its own Simulator, its own
/// packet pool, and — via telemetry::ScopeGuard — its own telemetry scope, so
/// worker threads share no mutable state and results are bit-identical to a
/// serial run at equal seeds (per-point RNG seeding and per-simulation packet
/// uids make thread count invisible to the simulation).
///
/// Scheduling: workers claim tasks in input order from one shared atomic
/// index until it runs past the end. Tasks are coarse (whole simulations,
/// seconds each), so a worker that draws a short point just claims the next
/// one — that absorbs the large per-point runtime variance of a load sweep.
///
/// map() delivers results in input order regardless of completion order, so
/// artifact files and stdout summaries are deterministic too.
///
/// Lifecycle: construction only records the thread count — workers are
/// spawned per run_all() call and joined before it returns, so a runner is
/// cheap to create, reusable for consecutive batches, and holds no threads
/// while idle. run_all() is not itself thread-safe (one batch at a time)
/// and must not be called from inside one of its own tasks.
class ParallelRunner {
 public:
  using Task = std::function<void()>;

  /// `threads == 0` means default_threads(). With one thread no workers are
  /// spawned and run_all()/map() execute inline on the calling thread.
  explicit ParallelRunner(unsigned threads = 0);
  ~ParallelRunner();
  ParallelRunner(const ParallelRunner&) = delete;
  ParallelRunner& operator=(const ParallelRunner&) = delete;

  [[nodiscard]] unsigned threads() const { return threads_; }

  /// Run every task to completion (in parallel when threads() > 1). Each task
  /// executes under a fresh telemetry Scope inheriting the submitter's
  /// settings — including when inline — so telemetry isolation does not
  /// depend on thread count. The calling thread participates in the work.
  /// The first task exception (by input order) is rethrown after all tasks
  /// finish.
  void run_all(std::vector<Task> tasks);

  /// run_all() for value-returning functions: results come back in input
  /// order, not completion order. R must be default-constructible (results
  /// are pre-sized) and move-assignable. If any task throws, the first
  /// exception by *input order* propagates after all tasks finish — the
  /// slots of throwing tasks are left default-constructed, but the caller
  /// never sees them.
  template <typename R>
  [[nodiscard]] std::vector<R> map(std::vector<std::function<R()>> fns) {
    std::vector<R> results(fns.size());
    std::vector<Task> tasks;
    tasks.reserve(fns.size());
    for (std::size_t i = 0; i < fns.size(); ++i) {
      tasks.push_back(
          [&results, i, fn = std::move(fns[i])] { results[i] = fn(); });
    }
    run_all(std::move(tasks));
    return results;
  }

 private:
  unsigned threads_;
};

}  // namespace clove::harness
