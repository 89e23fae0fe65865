#ifndef RELGO_OPTIMIZER_PLAN_CACHE_H_
#define RELGO_OPTIMIZER_PLAN_CACHE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/versioned_lru.h"
#include "optimizer/query_optimizer.h"
#include "plan/physical_plan.h"
#include "plan/spjm_query.h"

namespace relgo {
namespace optimizer {

/// A query template: an SpjmQuery whose eligible constants have been
/// replaced by parameter slots ($0, $1, ...), plus the default value each
/// slot was extracted from. Bind concrete constants with BindTemplate;
/// every binding shares one TemplateSignature, so every binding reuses one
/// cached plan.
struct ParameterizedQuery {
  plan::SpjmQuery query;
  std::vector<Value> defaults;  ///< per-slot values, in slot order
};

/// Extracts a template from `query`: every non-bool, non-null constant in
/// the pattern predicates, join scan filters and WHERE clause becomes a
/// parameter slot (slot order: pattern vertices, pattern edges, joins,
/// where — left to right within each expression). Bool/null constants are
/// structural (e.g. the empty-conjunction TRUE) and stay literal; IN-list
/// members and STARTS WITH / CONTAINS string arguments are part of the
/// template shape and are not slotted.
ParameterizedQuery ParameterizeQuery(const plan::SpjmQuery& query);

/// Binds one constant per slot into a copy of the template. Fails when the
/// arity or any value's LogicalType differs from the template's defaults.
/// Bound constants keep their slot annotation, so the optimizer estimates
/// them value-insensitively — a fresh optimize of the bound query produces
/// the same plan as the cached template plan.
Result<plan::SpjmQuery> BindTemplate(const ParameterizedQuery& t,
                                     const std::vector<Value>& params);

/// Canonical cache key of (query shape, optimizer mode): renders the
/// pattern, projections, joins, predicates (via Expr::ToTemplateString, so
/// parameter slots erase their bound values), output clause and mode name
/// into one deterministic string. Two bindings of one template map to the
/// same signature; a plain unparameterized query gets a value-rendered
/// signature (exact-match caching).
std::string TemplateSignature(const plan::SpjmQuery& query,
                              OptimizerMode mode);

/// Slot -> currently-bound constant for every parameterized constant in
/// `query`'s expressions; empty for unparameterized queries. Database
/// hands them to execution (ExecutionContext::params).
storage::ParamValues CollectBoundParams(const plan::SpjmQuery& query);

/// Process-wide cache of optimized physical plans, keyed by
/// TemplateSignature and validated against the owning Database's catalog
/// data version. Invalidation is exact, never timed: an entry dies when
/// the data changed under it (table version bump). Statistics are fixed
/// after Database::Finalize, so the data version is the only clock.
/// Count-based LRU (each plan costs 1); internally synchronized.
///
/// One cached plan serves every binding of its template: executions share
/// it read-only and bind each call's values where they clone the plan's
/// expressions (Expr::CloneWithParams). Callers only Put after the plan
/// executed successfully (the same no-publish-on-failure chokepoint the
/// scan cache uses), so a cancelled or faulted query never seeds the
/// cache. Re-publishing a live key overwrites it without counting an
/// insertion.
class PlanCache : public VersionedLru<std::shared_ptr<const plan::PhysicalOp>> {
 public:
  explicit PlanCache(size_t capacity = 256)
      : VersionedLru(capacity, capacity, /*count_replacements=*/false) {}

  size_t capacity() const { return budget(); }
};

}  // namespace optimizer
}  // namespace relgo

#endif  // RELGO_OPTIMIZER_PLAN_CACHE_H_
