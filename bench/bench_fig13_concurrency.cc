// Fig 13 (extension; no paper counterpart): concurrent query serving.
// N client threads replay an LDBC query mix against one shared Database —
// all pipelines interleave on the process-wide worker pool, and filtered
// scans amortize across queries through the cross-query scan cache. For
// each client count the mix runs twice, cache-cold (cleared first) and
// cache-warm, so the JSON trajectory records both the QPS scaling curve
// and the steady-state cache hit rate heavy traffic would see.

#include <cstdio>

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace relgo;
  using optimizer::OptimizerMode;
  auto args = bench::ParseArgs(argc, argv, 0.3);
  bench::Banner("Fig 13", "concurrent serving: QPS + scan-cache hit rate");

  Database* db = bench::MakeLdbc(args.scale);
  auto mix = workload::LdbcInteractiveQueries(*db);
  exec::ExecutionOptions options = bench::BenchExecOptions(args);
  // This bench measures cache amortization, so it opts back into the
  // scan cache and plan cache that BenchExecOptions disables for the
  // figure benches.
  options.scan_cache = true;
  options.plan_cache = true;
  workload::Harness harness(db, options, args.reps);

  const int kQueriesPerClient = 2 * static_cast<int>(mix.size());
  std::printf("%8s %10s %10s %10s %10s %10s %8s %8s %8s\n", "clients",
              "queries", "wall ms", "QPS", "hits", "hit rate", "p50 ms",
              "p95 ms", "p99 ms");
  for (int clients : {1, 2, 4, 8}) {
    for (bool warm : {false, true}) {
      if (!warm) db->ClearScanCache();
      auto m = harness.RunConcurrent(mix, OptimizerMode::kRelGo, clients,
                                     kQueriesPerClient);
      std::printf("%5d %s %10llu %10.1f %10.1f %10llu %9.1f%% %8.2f %8.2f "
                  "%8.2f\n",
                  clients, warm ? "warm" : "cold",
                  static_cast<unsigned long long>(m.queries_ok), m.wall_ms,
                  m.qps, static_cast<unsigned long long>(m.scan_cache_hits),
                  100.0 * m.cache_hit_rate, m.latency_p50_ms,
                  m.latency_p95_ms, m.latency_p99_ms);
      if (m.queries_failed != 0) {
        std::printf("  (%llu queries failed)\n",
                    static_cast<unsigned long long>(m.queries_failed));
      }
      bench::BenchJson::Global().AddConcurrent(
          warm ? "fig13_concurrency_warm" : "fig13_concurrency_cold", "ldbc",
          args.scale, m, args.threads);
    }
  }
  // Shed-load sweep: the same storm at 8 clients, but with admission
  // control capping concurrency and a chaos controller cancelling a
  // fraction of queries mid-flight — the JSON then shows how much load
  // the lifecycle layer sheds (cancelled / rejected) while the surviving
  // queries keep completing. Tight queue bounds make rejection visible.
  std::printf("\nshed load (8 clients, admission cap + chaos cancels):\n");
  std::printf("%18s %10s %10s %10s %10s %10s\n", "config", "ok", "cancel",
              "reject", "timeout", "QPS");
  struct ShedConfig {
    const char* name;
    int max_concurrent;  // 0 = admission off
    double cancel_fraction;
  };
  for (const ShedConfig& cfg :
       {ShedConfig{"baseline", 0, 0.0}, ShedConfig{"cap2", 2, 0.0},
        ShedConfig{"cap2+cancel25", 2, 0.25}}) {
    exec::pipeline::AdmissionOptions admission;
    admission.max_concurrent_queries = cfg.max_concurrent;
    admission.max_queued = 2;
    admission.max_wait_ms = 50;
    db->worker_pool().SetAdmission(admission);
    workload::ChaosOptions chaos;
    chaos.cancel_fraction = cfg.cancel_fraction;
    auto m = harness.RunConcurrent(mix, OptimizerMode::kRelGo, 8,
                                   kQueriesPerClient, chaos);
    std::printf("%18s %10llu %10llu %10llu %10llu %10.1f\n", cfg.name,
                static_cast<unsigned long long>(m.queries_ok),
                static_cast<unsigned long long>(m.queries_cancelled),
                static_cast<unsigned long long>(m.queries_rejected),
                static_cast<unsigned long long>(m.queries_timeout), m.qps);
    bench::BenchJson::Global().AddConcurrent(
        std::string("fig13_shed_") + cfg.name, "ldbc", args.scale, m,
        args.threads);
  }
  db->worker_pool().SetAdmission({});  // restore: admission off

  // Hot-template sweep: the parameterized-query steady state. Every
  // interactive template runs once cold (plan cache cleared), then warm
  // rounds replay the set — with the cache on, warm optimization_ms
  // collapses to a lookup + rebind while execution stays bit-identical.
  // A cache-off sweep records the re-optimization baseline next to it.
  std::printf("\nhot templates (%zu templates, cold + %d warm rounds):\n",
              mix.size(), 3);
  std::printf("%12s %10s %12s %12s %10s %10s\n", "plan cache", "ok",
              "cold opt ms", "warm opt ms", "hits", "hit rate");
  for (bool cache_on : {false, true}) {
    exec::ExecutionOptions sweep_options = options;
    sweep_options.plan_cache = cache_on;
    workload::Harness sweep(db, sweep_options, args.reps);
    auto m = sweep.RunHotTemplates(mix, OptimizerMode::kRelGo, 3);
    std::printf("%12s %10llu %12.3f %12.3f %10llu %9.1f%%\n",
                cache_on ? "on" : "off",
                static_cast<unsigned long long>(m.queries_ok),
                m.cold_optimization_ms, m.warm_optimization_ms,
                static_cast<unsigned long long>(m.plan_cache_hits),
                100.0 * m.plan_cache_hit_rate);
    if (m.queries_failed != 0) {
      std::printf("  (%llu queries failed)\n",
                  static_cast<unsigned long long>(m.queries_failed));
    }
    const std::string tag = cache_on ? "fig13_plan_cache" : "fig13_reopt";
    bench::BenchJson::Global().AddHotTemplates(
        tag, "ldbc", args.scale, m, args.threads, "cold");
    bench::BenchJson::Global().AddHotTemplates(
        tag, "ldbc", args.scale, m, args.threads, "warm");
  }

  std::printf("\nshared pool threads spawned: %d\n",
              db->worker_pool().pool_threads());

  bench::BenchJson::Global().Write();
  delete db;
  return 0;
}
