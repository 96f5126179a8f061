#include "harness/parallel_runner.hpp"

#include <algorithm>
#include <atomic>
#include <memory>

#include "prof/prof.hpp"

namespace clove::harness {

ParallelRunner::ParallelRunner(unsigned threads)
    : threads_(threads != 0
                   ? threads
                   : std::max(1u, std::thread::hardware_concurrency())) {}

ParallelRunner::~ParallelRunner() = default;

void ParallelRunner::run_all(std::vector<Task> tasks) {
  if (tasks.empty()) return;

  // Every task gets a fresh telemetry scope inheriting the submitter's
  // settings — also when running inline, so a CLOVE_THREADS=1 run produces
  // byte-identical telemetry snapshots to a parallel one.
  const telemetry::ScopeSettings settings =
      telemetry::current_scope().settings();
  // When the submitter carries an engine profiler, each task profiles into
  // its own Profiler (worker threads have none installed) and the results
  // are merged below in task-index order — deterministic at any thread
  // count, like the telemetry scopes.
  prof::Profiler* submitter_prof = prof::active();
  std::vector<std::unique_ptr<prof::Profiler>> task_profs;
  if (submitter_prof != nullptr) {
    task_profs.reserve(tasks.size());
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      task_profs.push_back(
          std::make_unique<prof::Profiler>(submitter_prof->mode()));
    }
  }
  std::vector<std::exception_ptr> errors(tasks.size());
  auto run_one = [&](std::size_t i) {
    telemetry::Scope scope(settings);
    telemetry::ScopeGuard guard(scope);
    prof::InstallGuard pguard(submitter_prof != nullptr ? task_profs[i].get()
                                                        : nullptr);
    try {
      tasks[i]();
    } catch (...) {
      errors[i] = std::current_exception();
    }
  };

  // Tasks are whole simulations, so one shared counter is all the
  // scheduling needed: a worker that finishes early simply claims the next
  // index, which absorbs the per-point runtime variance of a sweep. With
  // one worker no thread is spawned and tasks run inline in input order.
  const std::size_t workers = std::min<std::size_t>(threads_, tasks.size());
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (std::size_t i = next++; i < tasks.size(); i = next++) run_one(i);
  };
  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (std::size_t w = 1; w < workers; ++w) pool.emplace_back(worker);
  worker();  // the calling thread works too
  for (std::thread& t : pool) t.join();

  if (submitter_prof != nullptr) {
    for (const auto& tp : task_profs) submitter_prof->merge_from(*tp);
  }

  for (std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace clove::harness
