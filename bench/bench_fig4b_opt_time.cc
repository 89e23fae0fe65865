// Reproduces Fig 4b: query optimization time on the LDBC IC queries —
// the graph-agnostic optimizer (stand-in for Calcite's Volcano planner
// on the flattened join graph) vs RelGo's converged optimizer — and on
// the 33 JOB templates, whose patterns are the largest and so give the
// graph optimizer its largest decomposition DP.
//
// Note on scale: our graph-agnostic baseline memoizes its DP, so it never
// hits the paper's 10-minute Calcite timeouts; the per-query gap is smaller
// but the ordering (RelGo optimizes faster, most queries within 10-100 ms)
// is preserved. The per-query search-space sizes from the Fig 4a
// enumerators are printed alongside to show what a transformation-based
// planner would face.
//
// Records: one "fig4b_opt_time" record per query and mode, with the mean
// optimization_ms over --reps optimizations (no execution).

#include <cstdio>

#include "bench_util.h"
#include "pattern/search_space.h"

namespace {

using namespace relgo;

void TimeWorkload(const Database& db, const std::string& workload,
                  double scale, int reps,
                  const std::vector<workload::WorkloadQuery>& queries) {
  const optimizer::OptimizerMode modes[] = {optimizer::OptimizerMode::kDuckDB,
                                            optimizer::OptimizerMode::kRelGo};
  std::printf("%-8s %14s %14s %16s %16s\n", "query", "Agnostic(ms)",
              "RelGo(ms)", "agnostic-space", "aware-space");
  for (const auto& wq : queries) {
    double ms[2] = {0, 0};
    bool ok[2] = {true, true};
    for (int m = 0; m < 2; ++m) {
      for (int rep = 0; rep < reps && ok[m]; ++rep) {
        auto r = db.Optimize(wq.query, modes[m]);
        ok[m] = r.ok();
        if (ok[m]) ms[m] += r->optimization_ms;
      }
      ms[m] = ok[m] ? ms[m] / reps : -1;
      bench::BenchRecord rec;
      rec.bench = "fig4b_opt_time";
      rec.workload = workload;
      rec.scale = scale;
      rec.query = wq.query.name;
      rec.mode = optimizer::ModeName(modes[m]);
      rec.engine = "none";
      rec.optimization_ms = ok[m] ? ms[m] : 0.0;
      rec.status = ok[m] ? "ok" : "ERR";
      bench::BenchJson::Global().Add(std::move(rec));
    }
    auto agnostic_space =
        pattern::CountAgnosticSearchSpace(wq.query.pattern);
    auto aware_space = pattern::CountAwareSearchSpace(wq.query.pattern);
    std::printf("%-8s %14.3f %14.3f %16.3e %16.3e\n", wq.query.name.c_str(),
                ms[0], ms[1], agnostic_space.ok() ? *agnostic_space : -1.0,
                aware_space.ok() ? *aware_space : -1.0);
  }
}

}  // namespace

int main(int argc, char** argv) {
  auto args = bench::ParseArgs(argc, argv, 0.3);
  bench::Banner("Fig 4b", "optimization time on LDBC IC and JOB queries");

  Database* ldbc = bench::MakeLdbc(args.scale);
  TimeWorkload(*ldbc, "ldbc", args.scale, args.reps,
               workload::LdbcInteractiveQueries(*ldbc));
  delete ldbc;

  Database* imdb = bench::MakeImdb(args.scale);
  TimeWorkload(*imdb, "imdb", args.scale, args.reps,
               workload::JobQueries(*imdb));
  delete imdb;

  bench::BenchJson::Global().Write();
  return 0;
}
