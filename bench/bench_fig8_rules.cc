// Reproduces Fig 8: effectiveness of the heuristic rules. QR1/QR2 probe
// FilterIntoMatchRule, QR3/QR4 probe TrimAndFuseRule; RelGo runs with the
// rules, RelGoNoRule without, on two dataset scales (the paper's LDBC10
// and LDBC30).

#include <cstdio>

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace relgo;
  using optimizer::OptimizerMode;
  auto args = bench::ParseArgs(argc, argv, 0.4);
  bench::Banner("Fig 8", "RelGo vs RelGoNoRule on QR1..4");

  for (double scale : {args.scale, args.scale * 2.0}) {
    Database* db = bench::MakeLdbc(scale);
    workload::Harness harness(db, bench::BenchExecOptions(args), args.reps);
    auto queries = workload::LdbcRuleQueries(*db);
    // QR1/QR2: with vs without FilterIntoMatchRule.
    std::vector<workload::WorkloadQuery> filter_queries(
        std::make_move_iterator(queries.begin()),
        std::make_move_iterator(queries.begin() + 2));
    auto filter_runs = harness.RunGrid(
        filter_queries, {OptimizerMode::kRelGo, OptimizerMode::kRelGoNoRule});
    std::printf("%s", workload::Harness::FormatTable(filter_runs, true)
                          .c_str());
    std::printf("FilterIntoMatchRule speedup:\n%s\n",
                workload::Harness::FormatSpeedups(filter_runs, "RelGoNoRule")
                    .c_str());
    // QR3/QR4: with vs without TrimAndFuseRule (FilterIntoMatch stays on).
    std::vector<workload::WorkloadQuery> fuse_queries(
        std::make_move_iterator(queries.begin() + 2),
        std::make_move_iterator(queries.end()));
    auto fuse_runs = harness.RunGrid(
        fuse_queries, {OptimizerMode::kRelGo, OptimizerMode::kRelGoNoFuse});
    std::printf("%s", workload::Harness::FormatTable(fuse_runs, true)
                          .c_str());
    std::printf("TrimAndFuseRule speedup:\n%s\n",
                workload::Harness::FormatSpeedups(fuse_runs, "RelGoNoFuse")
                    .c_str());
    delete db;
  }
  std::printf(
      "Shape check (paper): FilterIntoMatchRule dominates (hundreds-fold on\n"
      "QR1/2); TrimAndFuseRule contributes ~2x on QR3/4.\n");
  return 0;
}
