// Reproduces Fig 10: join-order efficiency on JOB1..10 — RelGo, GRainDB,
// RelGoHash (converged ordering without the graph index), DuckDB — on the
// pipeline engine at --threads workers, recording BENCH_pipeline.json.

#include <cstdio>

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace relgo;
  using optimizer::OptimizerMode;
  auto args = bench::ParseArgs(argc, argv, 0.5);
  bench::Banner("Fig 10", "join order efficiency on JOB1..10");

  Database* db = bench::MakeImdb(args.scale);
  auto all = workload::JobQueries(*db);
  std::vector<workload::WorkloadQuery> subset(
      std::make_move_iterator(all.begin()),
      std::make_move_iterator(all.begin() + 10));
  const std::vector<OptimizerMode> modes = {
      OptimizerMode::kRelGo, OptimizerMode::kGRainDB,
      OptimizerMode::kRelGoHash, OptimizerMode::kDuckDB};

  workload::Harness harness(db, bench::BenchExecOptions(args), args.reps);
  auto runs = harness.RunGrid(subset, modes);

  std::printf("execution time (ms), engine=pipeline (%d threads):\n%s\n",
              args.threads,
              workload::Harness::FormatTable(runs, false).c_str());
  std::printf("avg RelGo vs GRainDB:   %.2fx\n",
              workload::Harness::AverageSpeedup(runs, "GRainDB", "RelGo"));
  std::printf("avg RelGoHash vs DuckDB: %.2fx\n",
              workload::Harness::AverageSpeedup(runs, "DuckDB", "RelGoHash"));

  auto& json = bench::BenchJson::Global();
  json.AddGrid("fig10_join_order", "imdb", args.scale, runs, args.threads);
  json.Write();

  std::printf(
      "\nShape check (paper): RelGo beats GRainDB on all ten (avg 4.1x);\n"
      "RelGoHash is at least as good as DuckDB (avg 1.6x) — good join\n"
      "orders pay off with or without the index.\n");
  delete db;
  return 0;
}
