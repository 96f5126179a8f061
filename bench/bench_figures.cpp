// Regenerates the paper's evaluation figures, the ablations and the
// fault-recovery baseline (see figures.cpp for what each one sweeps and
// claims).
//
// Usage: bench_figures [name...]
// With no names every figure runs, in table order; otherwise only the named
// ones (fig4b_symmetric ... ablation_workloads, BENCH_fault). Scale comes
// from CLOVE_JOBS / CLOVE_SEEDS / CLOVE_CONNS / CLOVE_THREADS
// (bench_common.hpp) unless a figure pins its own (BENCH_fault does), and
// each figure writes <CLOVE_JSON_OUT>/<name>.json when that is set. Every
// CLOVE_* knob is read once, here (harness::RunEnv).

#include <cstdio>
#include <exception>
#include <vector>

#include "figures.hpp"

int main(int argc, char** argv) {
  using namespace clove;
  std::vector<const bench::FigureSpec*> selected;
  for (int i = 1; i < argc; ++i) {
    const bench::FigureSpec* found = nullptr;
    for (const bench::FigureSpec& f : bench::figures()) {
      if (f.name == argv[i]) found = &f;
    }
    if (found == nullptr) {
      std::fprintf(stderr, "unknown figure '%s'; known:", argv[i]);
      for (const bench::FigureSpec& f : bench::figures()) {
        std::fprintf(stderr, " %s", f.name.c_str());
      }
      std::fprintf(stderr, "\n");
      return 2;
    }
    selected.push_back(found);
  }
  if (selected.empty()) {
    for (const bench::FigureSpec& f : bench::figures()) selected.push_back(&f);
  }
  try {
    for (const bench::FigureSpec* f : selected) bench::validate(*f);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "invalid figure spec: %s\n", e.what());
    return 1;
  }

  const harness::RunEnv env = harness::RunEnv::from_env();
  env.apply_process();
  for (const bench::FigureSpec* f : selected) {
    bench::run_figure(*f, env);
    std::printf("\n");
  }
  return 0;
}
