// The benchmark's C++ binary. Each subcommand prints one JSON line;
// run.py builds this binary, caches what `prepare-*` writes, and turns the
// raw samples of `run-*` / `serve-pass` into the benchmark's metrics.

#include <cstdio>
#include <exception>
#include <string>

#include "perfbench/perfbench.h"

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: her_perfbench <prepare-scale|run-scale|"
                 "prepare-learned|run-learned|prepare-serve|serve-pass> "
                 "--key value ...\n");
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    const perfbench::Args args(argc, argv);
    if (cmd == "prepare-scale") return perfbench::PrepareScale(args);
    if (cmd == "run-scale") return perfbench::RunScaleWorkload(args);
    if (cmd == "prepare-learned") return perfbench::PrepareLearned(args);
    if (cmd == "run-learned") return perfbench::RunLearnedWorkload(args);
    if (cmd == "prepare-serve") return perfbench::PrepareServe(args);
    if (cmd == "serve-pass") return perfbench::RunServePass(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "her_perfbench: %s\n", e.what());
    return 2;
  }
  std::fprintf(stderr, "her_perfbench: unknown subcommand '%s'\n",
               cmd.c_str());
  return 2;
}
