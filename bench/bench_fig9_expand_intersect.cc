// Reproduces Fig 9: EXPAND_INTERSECT effectiveness on cyclic patterns.
// QC1 (triangle), QC2 (square), QC3 (4-clique); RelGo vs RelGoNoEI, two
// scales. A bounded memory budget reproduces the paper's OOM of RelGoNoEI
// on the 4-clique. Runs on the pipeline engine at --threads workers; the wco
// intersection is the hottest loop in the system, so this is the primary
// scaling probe for the morsel-driven pipeline.

#include <cstdio>

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace relgo;
  using optimizer::OptimizerMode;
  auto args = bench::ParseArgs(argc, argv, 0.6);
  bench::Banner("Fig 9", "RelGo vs RelGoNoEI on QC1..3 (cyclic patterns)");

  for (double scale : {args.scale, args.scale * 2.0}) {
    Database* db = bench::MakeLdbc(scale);
    exec::ExecutionOptions exec_options = bench::BenchExecOptions(args);
    exec_options.max_total_rows = 30'000'000;  // paper-style memory bound
    auto queries = workload::LdbcCyclicQueries(*db);
    const std::vector<OptimizerMode> modes = {OptimizerMode::kRelGo,
                                              OptimizerMode::kRelGoNoEI};

    workload::Harness harness(db, exec_options, args.reps);
    auto runs = harness.RunGrid(queries, modes);

    std::printf("engine=pipeline (%d threads):\n%s", args.threads,
                workload::Harness::FormatTable(runs, true).c_str());
    std::printf("speedups:\n%s\n",
                workload::Harness::FormatSpeedups(runs, "RelGoNoEI").c_str());

    bench::BenchJson::Global().AddGrid("fig9_expand_intersect", "ldbc", scale,
                                       runs, args.threads);
    delete db;
  }
  bench::BenchJson::Global().Write();
  std::printf(
      "Shape check (paper): RelGo wins moderately on QC1/QC2 (1.2-1.3x) and\n"
      "RelGoNoEI hits OOM on the 4-clique QC3.\n");
  return 0;
}
