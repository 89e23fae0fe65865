#include "optimizer/plan_annotator.h"

#include <algorithm>

namespace relgo {
namespace optimizer {

using plan::OpKind;
using plan::PhysicalOp;

namespace {

double ChildEstimate(const PhysicalOp& op, size_t i) {
  if (i >= op.children.size()) return -1.0;
  return op.children[i]->estimated_cardinality;
}

/// Fallback cardinality for one node whose emitter left the sentinel.
double FallbackCardinality(const PhysicalOp& op,
                           const storage::Catalog* catalog,
                           const TableStats* tstats) {
  double child = ChildEstimate(op, 0);
  switch (op.kind) {
    case OpKind::kScanTable: {
      const auto& scan = static_cast<const plan::PhysScanTable&>(op);
      auto table = catalog->GetTable(scan.table);
      if (!table.ok()) return -1.0;
      double base = static_cast<double>((*table)->num_rows());
      if (scan.filter) {
        base *= tstats->HeuristicSelectivity(**table, scan.filter);
      }
      return std::max(base, 1.0);
    }
    case OpKind::kLimit: {
      auto limit = static_cast<const plan::PhysLimit&>(op).limit;
      if (child < 0) return limit < 0 ? -1.0 : static_cast<double>(limit);
      return limit < 0 ? child
                       : std::min(child, static_cast<double>(limit));
    }
    case OpKind::kHashAggregate: {
      const auto& agg = static_cast<const plan::PhysHashAggregate&>(op);
      if (agg.group_by.empty()) return 1.0;
      // Fixed 10% grouping-factor heuristic; no NDV statistics survive to
      // this layer for derived columns.
      return child < 0 ? -1.0 : std::max(child * 0.1, 1.0);
    }
    case OpKind::kHashJoin:
    case OpKind::kPatternJoin: {
      // PK-FK heuristic: each probe row matches about one build row.
      double left = ChildEstimate(op, 0);
      double right = ChildEstimate(op, 1);
      if (left < 0) return right;
      if (right < 0) return left;
      return std::max(left, right);
    }
    default:
      // Filters, projections, sorts, expansions, bridges: propagate the
      // child's estimate (conservative; exact for cardinality-preserving
      // ops, an upper bound for filters).
      return child;
  }
}

void Annotate(PhysicalOp* op, const storage::Catalog* catalog,
              const TableStats* tstats) {
  for (auto& child : op->children) Annotate(child.get(), catalog, tstats);
  if (op->estimated_cardinality < 0) {
    op->estimated_cardinality = FallbackCardinality(*op, catalog, tstats);
  }
  if (op->estimated_cost < 0) {
    double cost = std::max(op->estimated_cardinality, 0.0);
    for (const auto& child : op->children) {
      cost += std::max(child->estimated_cost, 0.0);
    }
    op->estimated_cost = cost;
  }
}

}  // namespace

void AnnotatePlanEstimates(PhysicalOp* root, const storage::Catalog* catalog,
                           const TableStats* tstats) {
  Annotate(root, catalog, tstats);
}

}  // namespace optimizer
}  // namespace relgo
