// Ablation (Sec 4.3 design note): RelGo with GLogue high-order statistics
// vs RelGo restricted to low-order statistics. The paper notes RelGo
// "remains functional with only low-order statistics, but the efficiency
// of the generated plan may decrease" — this bench quantifies that on the
// cyclic queries, where triangle counts matter most.

#include <cstdio>

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace relgo;
  using optimizer::OptimizerMode;
  auto args = bench::ParseArgs(argc, argv, 0.5);
  bench::Banner("Ablation", "GLogue high-order vs low-order statistics");

  Database* db = bench::MakeLdbc(args.scale);
  auto queries = workload::LdbcCyclicQueries(*db);
  auto interactive = workload::LdbcInteractiveQueries(*db);
  for (auto& wq : interactive) {
    if (wq.cyclic) queries.push_back(std::move(wq));
  }

  workload::Harness harness(db, bench::BenchExecOptions(args), args.reps);
  auto runs = harness.RunGrid(
      queries, {OptimizerMode::kRelGo, OptimizerMode::kRelGoLowOrder});
  std::printf("execution time (ms):\n%s\n",
              workload::Harness::FormatTable(runs, false).c_str());
  std::printf("avg RelGo vs low-order-only: %.2fx\n",
              workload::Harness::AverageSpeedup(runs, "RelGoLowOrd",
                                                "RelGo"));
  delete db;
  return 0;
}
