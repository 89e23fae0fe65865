#include "core/database.h"

#include <memory>
#include <utility>

#include "common/string_util.h"
#include "common/timer.h"
#include "exec/pipeline/engine.h"

namespace relgo {

Database::Database() : table_stats_(&catalog_) {
  // Wire the observability substrate once, before any query (and hence any
  // concurrency) exists. Handles are resolved here so the per-query path
  // records through plain pointers without touching the registry lock.
  exec::pipeline::SchedulerMetrics pm;
  pm.jobs = &metrics_.GetCounter("relgo_pool_jobs_total");
  pm.inline_jobs = &metrics_.GetCounter("relgo_pool_inline_jobs_total");
  pm.tasks = &metrics_.GetCounter("relgo_pool_tasks_total");
  pm.queue_depth = &metrics_.GetGauge("relgo_pool_queue_depth");
  pm.pool_threads = &metrics_.GetGauge("relgo_pool_threads");
  pm.job_run_ms = &metrics_.GetHistogram("relgo_pool_job_run_ms");
  pm.job_wait_ms = &metrics_.GetHistogram("relgo_pool_job_wait_ms");
  pool_.SetMetrics(pm);

  query_metrics_.queries = &metrics_.GetCounter("relgo_queries_total");
  query_metrics_.failures =
      &metrics_.GetCounter("relgo_query_failures_total");
  query_metrics_.optimization_ms =
      &metrics_.GetHistogram("relgo_query_optimization_ms");
  query_metrics_.execution_ms =
      &metrics_.GetHistogram("relgo_query_execution_ms");
  query_metrics_.cancelled =
      &metrics_.GetCounter("relgo_queries_cancelled_total");
  query_metrics_.rejected =
      &metrics_.GetCounter("relgo_queries_rejected_total");
  query_metrics_.timeout =
      &metrics_.GetCounter("relgo_queries_timeout_total");

  // The scan cache keeps its own lifetime Stats (the single source of
  // truth — obs_test pins the no-drift property); the registry pulls them
  // at snapshot time instead of mirroring every event.
  exec::ScanCache* cache = &scan_cache_;
  metrics_.AddCollector([cache](obs::MetricsSnapshot* out) {
    exec::ScanCache::Stats s = cache->stats();
    out->counters["relgo_scan_cache_hits_total"] += s.hits;
    out->counters["relgo_scan_cache_misses_total"] += s.misses;
    out->counters["relgo_scan_cache_insertions_total"] += s.insertions;
    out->counters["relgo_scan_cache_evictions_total"] += s.evictions;
    out->counters["relgo_scan_cache_invalidations_total"] +=
        s.invalidations;
    out->gauges["relgo_scan_cache_entries"] +=
        static_cast<int64_t>(cache->entries());
    out->gauges["relgo_scan_cache_bytes"] +=
        static_cast<int64_t>(cache->bytes());
  });

  // Same pull-collector pattern for the plan cache: its lifetime Stats are
  // the single source of truth; the registry reads them at snapshot time.
  optimizer::PlanCache* plans = &plan_cache_;
  metrics_.AddCollector([plans](obs::MetricsSnapshot* out) {
    optimizer::PlanCache::Stats s = plans->stats();
    out->counters["relgo_plan_cache_hits_total"] += s.hits;
    out->counters["relgo_plan_cache_misses_total"] += s.misses;
    out->counters["relgo_plan_cache_insertions_total"] += s.insertions;
    out->counters["relgo_plan_cache_evictions_total"] += s.evictions;
    out->counters["relgo_plan_cache_invalidations_total"] +=
        s.invalidations;
    out->gauges["relgo_plan_cache_entries"] +=
        static_cast<int64_t>(plans->entries());
  });
}

Database::~Database() { Shutdown(ShutdownMode::kCancel); }

void Database::Shutdown(ShutdownMode mode) const {
  // Order matters: stop admitting first so no query can register between
  // the cancel sweep and the drain wait; then (kCancel) signal everything
  // in flight; then wait. Engines observe the token within one interrupt
  // check, unregister on every exit path, and the last one out wakes the
  // wait — so this terminates even under a full storm.
  query_registry_.BeginShutdown();
  if (mode == ShutdownMode::kCancel) query_registry_.CancelAll();
  query_registry_.WaitUntilIdle();
}

Status Database::Finalize(optimizer::GlogueOptions glogue_options) {
  // Dictionary-encode every base-table string column (sorted-unique
  // dictionary + int32 code vector, storage::StringDictionary). The
  // pipeline engine uses the codes wherever a column carries one; the
  // reference interpreter reads only the string payloads.
  for (const std::string& name : catalog_.ListTables()) {
    auto table = catalog_.GetTable(name);
    if (!table.ok()) continue;
    for (size_t c = 0; c < (*table)->num_columns(); ++c) {
      if ((*table)->column(c).type() == LogicalType::kString) {
        (*table)->column(c).BuildDictionary();
      }
    }
  }
  RELGO_RETURN_NOT_OK(mapping_.Validate(catalog_));
  RELGO_RETURN_NOT_OK(index_.Build(catalog_, mapping_));
  RELGO_RETURN_NOT_OK(graph_stats_.Build(catalog_, mapping_, index_));
  RELGO_RETURN_NOT_OK(glogue_.Build(catalog_, mapping_, index_, graph_stats_,
                                    glogue_options));
  optimizer_ = std::make_unique<optimizer::QueryOptimizer>(
      &catalog_, &mapping_, &graph_stats_, &glogue_, &table_stats_);
  finalized_ = true;
  return Status::OK();
}

Result<pattern::PatternGraph> Database::ParsePattern(
    const std::string& text) const {
  if (!trace_sink_.enabled()) return pattern::ParsePattern(text, mapping_);
  // Parsing happens before a query id exists, so parse spans live on
  // track 0 ("frontend") rather than a per-query track.
  double start = obs::TraceNowMs();
  auto parsed = pattern::ParsePattern(text, mapping_);
  obs::TraceEvent ev;
  ev.name = "parse";
  ev.cat = "query";
  ev.tid = 0;
  ev.ts_ms = start;
  ev.dur_ms = obs::TraceNowMs() - start;
  ev.args.emplace_back("pattern", text);
  ev.args.emplace_back("status",
                       parsed.ok() ? "ok" : parsed.status().ToString());
  trace_sink_.Record(std::move(ev));
  return parsed;
}

Result<optimizer::OptimizeResult> Database::OptimizeInternal(
    const plan::SpjmQuery& query, optimizer::OptimizerMode mode) const {
  if (!finalized_) {
    return Status::InvalidArgument("call Finalize() before Optimize()");
  }
  return optimizer_->Optimize(query, mode);
}

uint64_t Database::CatalogDataVersion() const {
  uint64_t version = 0;
  for (const std::string& name : catalog_.ListTables()) {
    auto table = catalog_.GetTable(name);
    if (table.ok()) version += (*table)->version();
  }
  return version;
}

Result<Database::PlannedQuery> Database::PlanQuery(
    const plan::SpjmQuery& query, optimizer::OptimizerMode mode,
    const exec::ExecutionOptions& options) const {
  PlannedQuery out;
  if (!options.plan_cache || !finalized_) {
    RELGO_ASSIGN_OR_RETURN(auto optimized, OptimizeInternal(query, mode));
    out.plan = std::move(optimized.plan);
    out.optimization_ms = optimized.optimization_ms;
    return out;
  }

  Timer timer;
  out.cache_key = optimizer::TemplateSignature(query, mode);
  out.cache_data_version = CatalogDataVersion();
  std::shared_ptr<const plan::PhysicalOp> cached =
      plan_cache_.Get(out.cache_key, out.cache_data_version);
  if (cached != nullptr) {
    // Hit: run the cached template plan itself. It is shared read-only;
    // the call's constants bind where execution clones each expression.
    out.plan = std::move(cached);
    out.optimization_ms = timer.ElapsedMillis();
    out.cache_status = exec::QueryProfile::PlanCacheStatus::kHit;
    return out;
  }

  auto optimized = OptimizeInternal(query, mode);
  if (!optimized.ok()) return optimized.status();
  out.plan = std::move(optimized->plan);
  out.optimization_ms = optimized->optimization_ms;
  out.cache_status = exec::QueryProfile::PlanCacheStatus::kMiss;
  return out;
}

void Database::PublishPlan(const PlannedQuery& planned) const {
  if (planned.cache_status != exec::QueryProfile::PlanCacheStatus::kMiss) {
    return;
  }
  plan_cache_.Put(planned.cache_key, planned.cache_data_version,
                  planned.plan);
}

Result<optimizer::OptimizeResult> Database::Optimize(
    const plan::SpjmQuery& query, optimizer::OptimizerMode mode) const {
  auto optimized = OptimizeInternal(query, mode);
  if (optimized.ok()) {
    query_metrics_.optimization_ms->Record(optimized->optimization_ms);
  }
  return optimized;
}

Result<storage::TablePtr> Database::ExecuteWithContext(
    const plan::PhysicalOp& op, exec::ExecutionContext* ctx,
    const std::string& label) const {
  const exec::ExecutionOptions& options = ctx->options();
  // Run/RunProfiled mint the id up front (their trace spans carry it);
  // direct Execute() calls get one here. Either way every execution is
  // registered — and hence cancellable — under a unique id.
  uint64_t query_id = ctx->query_id();
  if (query_id == 0) {
    query_id = trace_sink_.NextQueryId();
    ctx->SetQueryId(query_id);
  }
  auto registered = query_registry_.Register(query_id, label);
  if (!registered.ok()) return registered.status();
  core::QueryHandlePtr handle = std::move(registered).value();
  ctx->SetCancelToken(handle->flag());
  // Export the id only after registration: a controller that reads it is
  // guaranteed CancelQuery(id) finds the query (or it already finished).
  if (options.query_id_out != nullptr) {
    options.query_id_out->store(query_id, std::memory_order_release);
  }

  // Admission: the wait is bounded by the query's remaining timeout
  // budget, and the cancel token aborts a queued query promptly.
  double remaining_ms = options.timeout_ms - ctx->elapsed_ms();
  if (remaining_ms < 0.0) remaining_ms = 0.0;
  Status admitted =
      pool_.AdmitQuery(static_cast<uint64_t>(remaining_ms), handle->flag());
  if (!admitted.ok()) {
    query_registry_.Unregister(query_id);
    return admitted;
  }

  ctx->SetScheduler(&pool_);
  if (options.scan_cache) ctx->SetScanCache(&scan_cache_);
  Result<storage::TablePtr> table =
      options.engine == exec::EngineKind::kPipeline
          ? exec::pipeline::Run(op, ctx)
          : exec::Executor::Run(op, ctx);

  // Scan-cache entries queued during execution become visible to other
  // queries only now, and only on success — a cancelled, timed-out, or
  // faulted query never publishes (lifecycle_test pins this).
  if (table.ok()) {
    ctx->CommitScanCachePublications();
  } else {
    ctx->DropScanCachePublications();
  }
  pool_.ReleaseQuery();
  query_registry_.Unregister(query_id);
  return table;
}

Result<storage::TablePtr> Database::Execute(
    const plan::PhysicalOp& op, exec::ExecutionOptions options) const {
  exec::ExecutionContext ctx(&catalog_, &mapping_, &index_, options);
  return ExecuteWithContext(op, &ctx);
}

void Database::ObserveQuery(const plan::SpjmQuery& query,
                            optimizer::OptimizerMode mode,
                            const exec::ExecutionOptions& options,
                            const QueryObservation& obs) const {
  if (options.metrics) {
    query_metrics_.queries->Increment();
    if (!obs.status.ok()) {
      query_metrics_.failures->Increment();
      // Lifecycle breakdown: at most one of these per failed query (the
      // terminal status is single-valued by construction).
      switch (obs.status.code()) {
        case StatusCode::kCancelled:
          query_metrics_.cancelled->Increment();
          break;
        case StatusCode::kResourceExhausted:
          query_metrics_.rejected->Increment();
          break;
        case StatusCode::kTimeout:
          query_metrics_.timeout->Increment();
          break;
        default:
          break;
      }
    }
    query_metrics_.optimization_ms->Record(obs.optimization_ms);
    query_metrics_.execution_ms->Record(obs.execution_ms);
  }
  double total_ms = obs.optimization_ms + obs.execution_ms;
  if (options.slow_query_ms > 0.0 && total_ms >= options.slow_query_ms) {
    slow_log_.Record(StrFormat(
        "slow_query query=%s mode=%s engine=%s total_ms=%.3f opt_ms=%.3f "
        "exec_ms=%.3f rows=%llu scan_cache_hits=%llu threshold_ms=%.3f "
        "status=%s",
        query.name.empty() ? "<unnamed>" : query.name.c_str(),
        optimizer::ModeName(mode),
        options.engine == exec::EngineKind::kPipeline ? "pipeline"
                                                      : "materialize",
        total_ms, obs.optimization_ms, obs.execution_ms,
        static_cast<unsigned long long>(obs.rows),
        static_cast<unsigned long long>(obs.scan_cache_hits),
        options.slow_query_ms,
        obs.status.ok() ? "ok" : obs.status.ToString().c_str()));
  }
}

namespace {

/// Stack guard absorbing a query's TraceRecorder into the sink on every
/// exit path (success and error returns alike), so no traced query can
/// leave its spans behind.
class TraceScope {
 public:
  /// `query_id` is minted by the caller (unconditionally, so cancellation
  /// works with tracing off) and shared with the cancellation registry.
  TraceScope(obs::TraceSink* sink, bool enabled, std::string label,
             uint64_t query_id)
      : sink_(sink), label_(std::move(label)) {
    if (enabled) {
      recorder_ = std::make_unique<obs::TraceRecorder>(query_id);
    }
  }
  ~TraceScope() {
    if (recorder_ != nullptr) sink_->Absorb(recorder_.get(), label_);
  }

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

  /// Null when tracing is off — the engine-side null-check discipline.
  obs::TraceRecorder* recorder() const { return recorder_.get(); }

 private:
  obs::TraceSink* sink_;
  std::string label_;
  std::unique_ptr<obs::TraceRecorder> recorder_;
};

std::string TraceLabel(const plan::SpjmQuery& query,
                       optimizer::OptimizerMode mode) {
  std::string name = query.name.empty() ? "<unnamed>" : query.name;
  return name + " [" + optimizer::ModeName(mode) + "]";
}

const char* PlanCacheStatusName(exec::QueryProfile::PlanCacheStatus s) {
  switch (s) {
    case exec::QueryProfile::PlanCacheStatus::kOff:
      return "off";
    case exec::QueryProfile::PlanCacheStatus::kMiss:
      return "miss";
    case exec::QueryProfile::PlanCacheStatus::kHit:
      return "hit";
  }
  return "off";
}

}  // namespace

Result<QueryRunResult> Database::RunQuery(const plan::SpjmQuery& query,
                                          optimizer::OptimizerMode mode,
                                          const exec::ExecutionOptions& options,
                                          ProfiledRunResult* profiled) const {
  uint64_t query_id = trace_sink_.NextQueryId();
  std::string label = TraceLabel(query, mode);
  TraceScope trace(&trace_sink_, options.trace || trace_sink_.enabled(),
                   label, query_id);
  QueryObservation obs;
  QueryRunResult result;

  double opt_start = trace.recorder() != nullptr ? obs::TraceNowMs() : 0.0;
  auto planned = PlanQuery(query, mode, options);
  if (trace.recorder() != nullptr) {
    trace.recorder()->Record(
        "optimize", "query", opt_start,
        {{"mode", optimizer::ModeName(mode)},
         {"plan_cache",
          planned.ok() ? PlanCacheStatusName(planned->cache_status) : "off"},
         {"status", planned.ok() ? "ok" : planned.status().ToString()}});
  }
  if (!planned.ok()) {
    obs.status = planned.status();
    ObserveQuery(query, mode, options, obs);
    return planned.status();
  }
  obs.optimization_ms = result.optimization_ms = planned->optimization_ms;
  result.plan_cache = planned->cache_status;

  exec::ExecutionContext ctx(&catalog_, &mapping_, &index_, options);
  ctx.SetQueryId(query_id);
  ctx.SetParams(optimizer::CollectBoundParams(query));
  if (profiled != nullptr) {
    profiled->profile.SetPlanCacheStatus(planned->cache_status);
    profiled->profile.SetParams(ctx.params());
    ctx.EnableProfiling(&profiled->profile);
  }
  ctx.SetTrace(trace.recorder());
  double exec_start = trace.recorder() != nullptr ? obs::TraceNowMs() : 0.0;
  Timer timer;
  auto table = ExecuteWithContext(*planned->plan, &ctx, label);
  obs.execution_ms = result.execution_ms = timer.ElapsedMillis();
  obs.scan_cache_hits = result.scan_cache_hits = ctx.scan_cache_hits();
  if (table.ok()) obs.rows = (*table)->num_rows();
  if (trace.recorder() != nullptr) {
    trace.recorder()->Record(
        "execute", "query", exec_start,
        {{"engine", options.engine == exec::EngineKind::kPipeline
                        ? "pipeline"
                        : "materialize"},
         {"scan_cache_hits", std::to_string(ctx.scan_cache_hits())},
         {"rows", std::to_string(obs.rows)},
         {"status", table.ok() ? "ok" : table.status().ToString()}});
  }
  if (!table.ok()) {
    obs.status = table.status();
    ObserveQuery(query, mode, options, obs);
    return table.status();
  }
  result.table = std::move(table).value();
  // Publish only now — after the plan executed to completion — so a
  // cancelled, timed-out, or faulted query never seeds the plan cache
  // (the scan cache's commit-on-success chokepoint, applied to plans).
  PublishPlan(*planned);
  if (profiled != nullptr) {
    profiled->profile.SetScanCacheHits(ctx.scan_cache_hits());
    profiled->plan = std::move(planned->plan);
  }
  ObserveQuery(query, mode, options, obs);
  return result;
}

Result<QueryRunResult> Database::Run(const plan::SpjmQuery& query,
                                     optimizer::OptimizerMode mode,
                                     exec::ExecutionOptions options) const {
  return RunQuery(query, mode, options, nullptr);
}

Result<ProfiledRunResult> Database::RunProfiled(
    const plan::SpjmQuery& query, optimizer::OptimizerMode mode,
    exec::ExecutionOptions options) const {
  ProfiledRunResult result;
  RELGO_ASSIGN_OR_RETURN(QueryRunResult run,
                         RunQuery(query, mode, options, &result));
  result.table = std::move(run.table);
  result.optimization_ms = run.optimization_ms;
  result.execution_ms = run.execution_ms;
  return result;
}

Result<std::string> Database::Explain(const plan::SpjmQuery& query,
                                      optimizer::OptimizerMode mode) const {
  RELGO_ASSIGN_OR_RETURN(auto optimized, Optimize(query, mode));
  return plan::PrintPlan(*optimized.plan);
}

Result<std::string> Database::ExplainAnalyze(
    const plan::SpjmQuery& query, optimizer::OptimizerMode mode,
    exec::ExecutionOptions options) const {
  RELGO_ASSIGN_OR_RETURN(auto profiled, RunProfiled(query, mode, options));
  if (options.engine == exec::EngineKind::kPipeline) {
    return exec::RenderAnalyzedPipelines(*profiled.plan, profiled.profile);
  }
  return exec::RenderAnalyzedTree(*profiled.plan, profiled.profile);
}

}  // namespace relgo
