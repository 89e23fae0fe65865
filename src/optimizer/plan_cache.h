#ifndef RELGO_OPTIMIZER_PLAN_CACHE_H_
#define RELGO_OPTIMIZER_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

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
/// the same plan as rebinding the cached template plan.
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
/// `query`'s expressions; empty for unparameterized queries.
std::unordered_map<int, Value> CollectBoundParams(const plan::SpjmQuery& query);

/// Deep-copies `e`, substituting `params[slot]` at each slotted constant
/// whose slot is present in the map (absent slots keep their value).
/// Resolved column indexes are dropped — callers re-Bind, per the
/// clone-before-Bind discipline.
storage::ExprPtr RebindExpr(const storage::ExprPtr& e,
                            const std::unordered_map<int, Value>& params);

/// Process-wide cache of optimized physical plans, keyed by
/// TemplateSignature and validated against the owning Database's catalog
/// data version. Invalidation is exact, never timed: an entry dies when
/// the data changed under it (table version bump). Statistics are fixed
/// after Database::Finalize, so the data version is the only clock.
/// Count-based LRU; internally synchronized.
class PlanCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;      ///< capacity pressure
    uint64_t invalidations = 0;  ///< stale data version
    uint64_t Lookups() const { return hits + misses; }
    double HitRate() const {
      return Lookups() == 0
                 ? 0.0
                 : static_cast<double>(hits) / static_cast<double>(Lookups());
    }
  };

  explicit PlanCache(size_t capacity = 256) : capacity_(capacity) {}

  /// Returns the cached plan for `key` if present and still valid against
  /// `data_version`; otherwise records a miss. A present but stale entry
  /// is erased and additionally counted as an invalidation.
  std::shared_ptr<const plan::PhysicalOp> Get(const std::string& key,
                                              uint64_t data_version);

  /// Publishes a plan under `key`. Callers only publish after the plan
  /// executed successfully (the same no-publish-on-failure chokepoint the
  /// scan cache uses), so a cancelled or faulted query never seeds the
  /// cache. Re-publishing an existing key overwrites it.
  void Put(const std::string& key, uint64_t data_version,
           std::shared_ptr<const plan::PhysicalOp> plan);

  void Clear();
  Stats stats() const;
  size_t entries() const;
  size_t capacity() const { return capacity_; }

 private:
  struct Entry {
    std::string key;
    uint64_t data_version = 0;
    std::shared_ptr<const plan::PhysicalOp> plan;
  };

  mutable std::mutex mu_;
  size_t capacity_;
  std::list<Entry> lru_;  ///< front = most recently used
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  Stats stats_;
};

}  // namespace optimizer
}  // namespace relgo

#endif  // RELGO_OPTIMIZER_PLAN_CACHE_H_
