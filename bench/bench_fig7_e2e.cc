// Reproduces Fig 7: end-to-end time (optimization + execution), RelGo vs
// GRainDB, on (a) LDBC queries IC1-3, IC2, IC4, IC7 and (b) JOB1..4, run on
// the pipeline engine at --threads workers and recorded into
// BENCH_pipeline.json.

#include <cstdio>

#include "bench_util.h"

namespace {

void RunSide(const relgo::Database* db, const char* workload, double scale,
             const std::vector<relgo::workload::WorkloadQuery>& queries,
             const relgo::bench::BenchArgs& args) {
  using relgo::optimizer::OptimizerMode;
  const std::vector<OptimizerMode> modes = {OptimizerMode::kRelGo,
                                            OptimizerMode::kGRainDB};

  relgo::workload::Harness harness(db, relgo::bench::BenchExecOptions(args),
                                   args.reps);
  auto runs = harness.RunGrid(queries, modes);

  std::printf("%-8s %12s %12s %12s %12s\n", "query", "RelGo Opt",
              "RelGo Exe", "GRainDB Opt", "GRainDB Exe");
  for (size_t i = 0; i + 1 < runs.size(); i += 2) {
    const auto& relgo_run = runs[i];
    const auto& graindb_run = runs[i + 1];
    std::printf("%-8s %12.2f %12.2f %12.2f %12.2f\n", relgo_run.query.c_str(),
                relgo_run.optimization_ms, relgo_run.execution_ms,
                graindb_run.optimization_ms, graindb_run.execution_ms);
  }

  std::printf(
      "average RelGo-vs-GRainDB execution speedup (pipeline, %d threads): "
      "%.2fx\n\n",
      args.threads,
      relgo::workload::Harness::AverageSpeedup(runs, "GRainDB", "RelGo"));
  std::printf("estimator accuracy (geomean per-operator q-error):\n%s\n",
              relgo::workload::Harness::FormatQErrors(runs).c_str());

  relgo::bench::BenchJson::Global().AddGrid(
      "fig7_e2e", workload, scale, runs, args.threads);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace relgo;
  auto args = bench::ParseArgs(argc, argv, 0.4);
  bench::Banner("Fig 7", "end-to-end optimization + execution time");

  {
    std::printf("--- (a) LDBC-like, IC{1-3, 2, 4, 7} ---\n");
    Database* db = bench::MakeLdbc(args.scale);
    auto all = workload::LdbcInteractiveQueries(*db);
    std::vector<workload::WorkloadQuery> subset;
    for (auto& wq : all) {
      if (wq.query.name == "IC1-3" || wq.query.name == "IC2" ||
          wq.query.name == "IC4" || wq.query.name == "IC7") {
        subset.push_back(std::move(wq));
      }
    }
    RunSide(db, "ldbc", args.scale, subset, args);
    delete db;
  }
  {
    std::printf("--- (b) IMDB-like, JOB1..4 ---\n");
    Database* db = bench::MakeImdb(args.scale);
    auto all = workload::JobQueries(*db);
    std::vector<workload::WorkloadQuery> subset(
        std::make_move_iterator(all.begin()),
        std::make_move_iterator(all.begin() + 4));
    RunSide(db, "imdb", args.scale, subset, args);
    delete db;
  }
  bench::BenchJson::Global().Write();
  std::printf(
      "Shape check (paper): RelGo end-to-end beats GRainDB (7.5x LDBC30,\n"
      "3.8x IMDB) despite slightly higher optimization cost.\n");
  return 0;
}
