// Reproduces Fig 11a: comprehensive LDBC evaluation — speedup of RelGo,
// UmbraPlans, GRainDB and the GDBMS stand-in (the paper used Kùzu) over
// the DuckDB graph-agnostic baseline, on all IC query variants.

#include <cstdio>

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace relgo;
  using optimizer::OptimizerMode;
  auto args = bench::ParseArgs(argc, argv, 0.6);
  bench::Banner("Fig 11a", "speedup vs DuckDB on LDBC IC queries");

  Database* db = bench::MakeLdbc(args.scale);
  workload::Harness harness(db, bench::BenchExecOptions(args), args.reps);
  auto runs = harness.RunGrid(
      workload::LdbcInteractiveQueries(*db),
      {OptimizerMode::kDuckDB, OptimizerMode::kRelGo,
       OptimizerMode::kUmbraLike, OptimizerMode::kGRainDB,
       OptimizerMode::kGdbmsSim});
  std::printf("execution time (ms):\n%s\n",
              workload::Harness::FormatTable(runs, false).c_str());
  std::printf("speedup vs DuckDB:\n%s\n",
              workload::Harness::FormatSpeedups(runs, "DuckDB").c_str());
  std::printf("estimator accuracy (geomean per-operator q-error):\n%s\n",
              workload::Harness::FormatQErrors(runs).c_str());
  for (const char* mode : {"RelGo", "UmbraPlans", "GRainDB", "GdbmsSim"}) {
    std::printf("avg %-10s vs DuckDB: %.2fx\n", mode,
                workload::Harness::AverageSpeedup(runs, "DuckDB", mode));
  }
  bench::BenchJson::Global().AddGrid("fig11a_ldbc", "ldbc", args.scale, runs,
                                     args.threads);

  // Adaptive-statistics loop (warm-up -> feedback -> re-plan; runs after
  // the baseline grid so those numbers stay uncontaminated): each record's
  // qerror is its own cold-corrections first run (the grid resets keyed
  // corrections between cells), qerror_after the re-planned one.
  auto adaptive = harness.RunAdaptiveGrid(
      workload::LdbcInteractiveQueries(*db),
      {OptimizerMode::kRelGo, OptimizerMode::kDuckDB}, 2);
  std::printf("adaptive feedback (q-error first run -> after feedback):\n%s\n",
              workload::Harness::FormatAdaptiveQErrors(adaptive).c_str());
  bench::BenchJson::Global().AddGrid("fig11a_ldbc_adaptive", "ldbc",
                                     args.scale, adaptive, args.threads);
  bench::BenchJson::Global().Write();
  std::printf(
      "\nShape check (paper, LDBC100): RelGo 21.9x, GRainDB ~4x (RelGo 5.4x\n"
      "over GRainDB), Umbra below RelGo, Kuzu slowest; cyclic IC7 shows the\n"
      "largest RelGo advantage.\n");
  delete db;
  return 0;
}
