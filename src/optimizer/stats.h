#ifndef RELGO_OPTIMIZER_STATS_H_
#define RELGO_OPTIMIZER_STATS_H_

#include <mutex>
#include <string>
#include <unordered_map>

#include "common/rng.h"
#include "storage/catalog.h"
#include "storage/expression.h"

namespace relgo {
namespace optimizer {

/// Low-order relational statistics: table cardinalities, per-column
/// distinct counts, and predicate selectivities.
///
/// Two selectivity estimation modes mirror the paper's baselines:
///  * heuristic (DuckDB/GRainDB-like): magic numbers per predicate shape,
///    1/ndv for equality;
///  * sampled (Umbra-like): evaluates the predicate on a reservoir sample,
///    capturing attribute value distributions (Sec 5.3.2 explains why this
///    sometimes beats RelGo's estimates).
class TableStats {
 public:
  explicit TableStats(const storage::Catalog* catalog) : catalog_(catalog) {}

  /// Rows in `table`; 0 when the table is unknown.
  double Cardinality(const std::string& table) const;

  /// Number of distinct values of an int64 column (exact, cached).
  /// Thread-safe: concurrent optimizations of different queries share the
  /// cache; racing threads may both compute a cold entry (same value).
  double DistinctCount(const std::string& table,
                       const std::string& column) const;

  /// Heuristic selectivity of `filter` against `table`.
  double HeuristicSelectivity(const storage::Table& table,
                              const storage::ExprPtr& filter) const;

  /// Sampling-based selectivity: evaluates `filter` on up to `sample_size`
  /// rows (deterministic stride sample).
  double SampledSelectivity(const storage::Table& table,
                            const storage::ExprPtr& filter,
                            size_t sample_size = 1024) const;

 private:
  const storage::Catalog* catalog_;
  mutable std::mutex distinct_mu_;  ///< guards distinct_cache_
  mutable std::unordered_map<std::string, double> distinct_cache_;
};

}  // namespace optimizer
}  // namespace relgo

#endif  // RELGO_OPTIMIZER_STATS_H_
