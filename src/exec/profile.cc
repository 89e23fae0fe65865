#include "exec/profile.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "plan/physical_plan.h"

namespace relgo {
namespace exec {

double QError(double estimated, double actual) {
  double est = std::max(estimated, 1.0);
  double act = std::max(actual, 1.0);
  return std::max(est / act, act / est);
}

namespace {

/// Appends "  [est=... act=... q=... calls=... ms]" for one profiled node.
void AppendAnnotation(const plan::PhysicalOp& op, const QueryProfile& profile,
                      std::string* out) {
  const OperatorProfile* prof = profile.Find(&op);
  char buf[160];
  if (prof == nullptr) {
    if (op.estimated_cardinality >= 0) {
      std::snprintf(buf, sizeof(buf), "  [est=%.0f]",
                    op.estimated_cardinality);
      *out += buf;
    }
    return;
  }
  if (op.estimated_cardinality >= 0) {
    std::snprintf(
        buf, sizeof(buf),
        "  [est=%.0f act=%llu rows, q=%.2f, calls=%llu, %.2f ms]",
        op.estimated_cardinality,
        static_cast<unsigned long long>(prof->rows_out),
        QError(op.estimated_cardinality,
               static_cast<double>(prof->rows_out)),
        static_cast<unsigned long long>(prof->invocations), prof->wall_ms);
  } else {
    std::snprintf(buf, sizeof(buf),
                  "  [act=%llu rows, calls=%llu, %.2f ms]",
                  static_cast<unsigned long long>(prof->rows_out),
                  static_cast<unsigned long long>(prof->invocations),
                  prof->wall_ms);
  }
  *out += buf;
}

void RenderTree(const plan::PhysicalOp& op, const QueryProfile& profile,
                int indent, std::string* out) {
  for (int i = 0; i < indent; ++i) *out += "  ";
  *out += op.Describe();
  AppendAnnotation(op, profile, out);
  *out += "\n";
  for (const auto& child : op.children) {
    RenderTree(*child, profile, indent + 1, out);
  }
}

void Summarize(const plan::PhysicalOp& op, const QueryProfile& profile,
               double* log_sum, QErrorSummary* summary) {
  const OperatorProfile* prof = profile.Find(&op);
  if (prof != nullptr && op.estimated_cardinality >= 0) {
    double q = QError(op.estimated_cardinality,
                      static_cast<double>(prof->rows_out));
    *log_sum += std::log(q);
    ++summary->ops;
    if (q > summary->max_q || summary->worst == nullptr) {
      summary->max_q = q;
      summary->worst = &op;
    }
  }
  for (const auto& child : op.children) {
    Summarize(*child, profile, log_sum, summary);
  }
}

}  // namespace

QErrorSummary SummarizeQError(const plan::PhysicalOp& root,
                              const QueryProfile& profile) {
  QErrorSummary summary;
  double log_sum = 0.0;
  Summarize(root, profile, &log_sum, &summary);
  if (summary.ops > 0) {
    summary.geomean = std::exp(log_sum / summary.ops);
  }
  return summary;
}

namespace {

/// Footer line reporting replayed filtered scans; empty when the query
/// never hit the cross-query scan cache (cache off, cold, or no filtered
/// scans), so cache-free renderings are byte-identical to older builds.
std::string ScanCacheFooter(const QueryProfile& profile) {
  if (profile.scan_cache_hits() == 0) return "";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "scan cache: %llu hits\n",
                static_cast<unsigned long long>(profile.scan_cache_hits()));
  return buf;
}

/// Footer line reporting whether the plan came from the cross-query plan
/// cache; empty when the cache was off or bypassed, so cache-free
/// renderings are byte-identical to older builds.
std::string PlanCacheFooter(const QueryProfile& profile) {
  switch (profile.plan_cache_status()) {
    case QueryProfile::PlanCacheStatus::kOff:
      return "";
    case QueryProfile::PlanCacheStatus::kMiss:
      return "plan cache: miss\n";
    case QueryProfile::PlanCacheStatus::kHit:
      return "plan cache: hit\n";
  }
  return "";
}

/// Footer line listing this call's parameter values in slot order, e.g.
/// "params: $0 = 'Jose', $1 = 42"; empty for unparameterized queries.
std::string ParamsFooter(const QueryProfile& profile) {
  if (profile.params().empty()) return "";
  std::map<int, Value> by_slot(profile.params().begin(),
                               profile.params().end());
  std::string out = "params:";
  const char* sep = " $";
  for (const auto& [slot, value] : by_slot) {
    out += sep + std::to_string(slot) + " = " +
           storage::Expr::Constant(value)->ToString();
    sep = ", $";
  }
  return out + "\n";
}

}  // namespace

std::string RenderAnalyzedTree(const plan::PhysicalOp& root,
                               const QueryProfile& profile) {
  std::string out;
  RenderTree(root, profile, 0, &out);
  out += ScanCacheFooter(profile);
  out += PlanCacheFooter(profile);
  out += ParamsFooter(profile);
  out += RenderQErrorFooter(root, profile);
  return out;
}

std::string RenderAnalyzedPipelines(const plan::PhysicalOp& root,
                                    const QueryProfile& profile) {
  std::string out;
  char buf[160];
  int index = 0;
  for (const PipelineTrace& trace : profile.pipelines()) {
    if (trace.stages.empty() && trace.breaker != nullptr) {
      // A materializing step outside any pipeline (NAIVE_MATCH).
      out += "BREAKER " + trace.breaker->Describe();
      AppendAnnotation(*trace.breaker, profile, &out);
      out += "\n";
      continue;
    }
    std::snprintf(buf, sizeof(buf),
                  "PIPELINE #%d (morsels=%llu, threads=%d, %.2f ms) -> %s",
                  index++, static_cast<unsigned long long>(trace.morsels),
                  trace.threads, trace.wall_ms, trace.sink.c_str());
    out += buf;
    out += "\n";
    for (const plan::PhysicalOp* stage : trace.stages) {
      out += "  ";
      out += stage == nullptr ? "TABLE_SOURCE (materialized breaker input)"
                              : stage->Describe();
      if (stage != nullptr) AppendAnnotation(*stage, profile, &out);
      out += "\n";
    }
    if (trace.fused != nullptr) {
      // The breaker fused below the sink's own plan node (ORDER BY under a
      // TOP_K sink): rendered first, matching its position in the plan.
      out += "  sink: " + trace.fused->Describe();
      AppendAnnotation(*trace.fused, profile, &out);
      out += "\n";
    }
    if (trace.breaker != nullptr) {
      out += "  sink: " + trace.breaker->Describe();
      AppendAnnotation(*trace.breaker, profile, &out);
      out += "\n";
    }
  }
  if (profile.build_ms() > 0.0 || profile.sort_ms() > 0.0) {
    std::snprintf(buf, sizeof(buf),
                  "breakers: build=%.2f ms sort=%.2f ms\n",
                  profile.build_ms(), profile.sort_ms());
    out += buf;
  }
  if (profile.late_gathers() > 0) {
    std::snprintf(buf, sizeof(buf),
                  "late gather: cols=%llu rows=%llu %.2f ms\n",
                  static_cast<unsigned long long>(profile.late_gather_cols()),
                  static_cast<unsigned long long>(profile.late_gather_rows()),
                  profile.late_gather_ms());
    out += buf;
  }
  if (profile.unfenced_top_k()) out += "top-k fence: off (profiled run)\n";
  out += ScanCacheFooter(profile);
  out += PlanCacheFooter(profile);
  out += ParamsFooter(profile);
  out += RenderQErrorFooter(root, profile);
  return out;
}

std::string RenderQErrorFooter(const plan::PhysicalOp& root,
                               const QueryProfile& profile) {
  QErrorSummary summary = SummarizeQError(root, profile);
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "q-error: geomean=%.2f max=%.2f over %d operators\n",
                summary.geomean, summary.max_q, summary.ops);
  return buf;
}

}  // namespace exec
}  // namespace relgo
