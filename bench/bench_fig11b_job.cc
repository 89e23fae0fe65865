// Reproduces Fig 11b: comprehensive JOB evaluation — speedup of RelGo,
// UmbraPlans, GRainDB and the GDBMS stand-in over DuckDB on JOB1..33.

#include <cstdio>

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace relgo;
  using optimizer::OptimizerMode;
  auto args = bench::ParseArgs(argc, argv, 0.35);
  bench::Banner("Fig 11b", "speedup vs DuckDB on JOB1..33");

  Database* db = bench::MakeImdb(args.scale);
  workload::Harness harness(db, bench::BenchExecOptions(args), args.reps);
  auto runs = harness.RunGrid(
      workload::JobQueries(*db),
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
  bench::BenchJson::Global().AddGrid("fig11b_job", "imdb", args.scale, runs,
                                     args.threads);

  bench::BenchJson::Global().Write();
  std::printf(
      "\nShape check (paper): RelGo 8.2x and GRainDB ~2x over DuckDB\n"
      "(RelGo 4.0x over GRainDB); RelGo ~1.7x over Umbra with occasional\n"
      "Umbra wins (JOB30); the GDBMS baseline trails far behind.\n");
  delete db;
  return 0;
}
