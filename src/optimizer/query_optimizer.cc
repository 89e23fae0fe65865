#include "optimizer/query_optimizer.h"

#include "common/timer.h"
#include "optimizer/cardinality.h"
#include "optimizer/plan_annotator.h"

namespace relgo {
namespace optimizer {

using plan::PhysicalOpPtr;
using plan::SpjmQuery;
using storage::Expr;

const char* ModeName(OptimizerMode mode) {
  switch (mode) {
    case OptimizerMode::kDuckDB:
      return "DuckDB";
    case OptimizerMode::kGRainDB:
      return "GRainDB";
    case OptimizerMode::kUmbraLike:
      return "UmbraPlans";
    case OptimizerMode::kRelGo:
      return "RelGo";
    case OptimizerMode::kRelGoHash:
      return "RelGoHash";
    case OptimizerMode::kRelGoNoEI:
      return "RelGoNoEI";
    case OptimizerMode::kRelGoNoRule:
      return "RelGoNoRule";
    case OptimizerMode::kRelGoNoFuse:
      return "RelGoNoFuse";
    case OptimizerMode::kRelGoLowOrder:
      return "RelGoLowOrd";
    case OptimizerMode::kGdbmsSim:
      return "GdbmsSim";
  }
  return "?";
}

bool ModeUsesIndex(OptimizerMode mode) {
  switch (mode) {
    case OptimizerMode::kDuckDB:
    case OptimizerMode::kRelGoHash:
      return false;
    default:
      return true;
  }
}

Result<OptimizeResult> QueryOptimizer::Optimize(const SpjmQuery& query,
                                                OptimizerMode mode) const {
  Timer timer;
  OptimizeResult result;
  switch (mode) {
    case OptimizerMode::kDuckDB: {
      RelOptimizerOptions options;
      options.use_graph_index = false;
      RELGO_ASSIGN_OR_RETURN(result.plan,
                             relational_optimizer_.PlanAgnostic(query,
                                                                options));
      break;
    }
    case OptimizerMode::kGRainDB: {
      RelOptimizerOptions options;
      options.use_graph_index = true;
      RELGO_ASSIGN_OR_RETURN(result.plan,
                             relational_optimizer_.PlanAgnostic(query,
                                                                options));
      break;
    }
    case OptimizerMode::kUmbraLike: {
      RelOptimizerOptions options;
      options.use_graph_index = true;
      options.sampled_selectivity = true;
      RELGO_ASSIGN_OR_RETURN(result.plan,
                             relational_optimizer_.PlanAgnostic(query,
                                                                options));
      break;
    }
    case OptimizerMode::kRelGo:
    case OptimizerMode::kRelGoHash:
    case OptimizerMode::kRelGoNoEI:
    case OptimizerMode::kRelGoNoRule:
    case OptimizerMode::kRelGoNoFuse:
    case OptimizerMode::kRelGoLowOrder: {
      RELGO_ASSIGN_OR_RETURN(result.plan, OptimizeConverged(query, mode));
      break;
    }
    case OptimizerMode::kGdbmsSim: {
      RELGO_ASSIGN_OR_RETURN(result.plan, OptimizeGdbmsSim(query));
      break;
    }
  }
  result.optimization_ms = timer.ElapsedMillis();
  // EXPLAIN/Q-error bookkeeping, deliberately outside the timed window:
  // it is not planning work (GdbmsSim in particular plans nothing, so its
  // reported optimization time must not include estimator sampling).
  if (mode == OptimizerMode::kGdbmsSim) {
    AnnotateNaiveMatch(query, result.plan.get());
  }
  // Every emission path leaves some nodes (output-clause post-ops, fixed
  // join chains) without estimates; fill them so EXPLAIN/EXPLAIN ANALYZE
  // never render the -1 sentinel and Q-error is defined plan-wide.
  AnnotatePlanEstimates(result.plan.get(), catalog_, tstats_);
  return result;
}

void QueryOptimizer::AnnotateNaiveMatch(const SpjmQuery& query,
                                        plan::PhysicalOp* op) const {
  if (op->kind == plan::OpKind::kNaiveMatch) {
    CardinalityEstimator estimator(&query.pattern, glogue_, gstats_,
                                   mapping_, catalog_, tstats_);
    op->estimated_cardinality =
        estimator.Estimate(query.pattern.AllVertices());
    return;
  }
  for (auto& child : op->children) AnnotateNaiveMatch(query, child.get());
}

Result<PhysicalOpPtr> QueryOptimizer::OptimizeConverged(
    SpjmQuery query, OptimizerMode mode) const {
  bool rules = mode != OptimizerMode::kRelGoNoRule;
  bool fuse = rules && mode != OptimizerMode::kRelGoNoFuse;

  // Heuristic rules run before graph optimization so pushed constraints
  // participate in cost recalculation (Sec 4.2.3).
  if (rules) {
    ApplyFilterIntoMatchRule(&query);
    if (fuse) ApplyTrimRule(&query);
  }
  std::set<int> needed_edges = NeededEdgeBindings(query);

  GraphOptimizerOptions gopts;
  gopts.use_index = mode != OptimizerMode::kRelGoHash;
  gopts.use_expand_intersect = mode != OptimizerMode::kRelGoNoEI &&
                               mode != OptimizerMode::kRelGoHash;
  gopts.fuse_expand = fuse;
  gopts.use_high_order = mode != OptimizerMode::kRelGoLowOrder;
  RELGO_ASSIGN_OR_RETURN(
      auto graph_plan,
      graph_optimizer_.Optimize(query.pattern, needed_edges, gopts));

  RelOptimizerOptions ropts;
  ropts.use_graph_index = mode != OptimizerMode::kRelGoHash;
  return relational_optimizer_.PlanWithGraphLeaf(query, std::move(graph_plan),
                                                 ropts);
}

Result<PhysicalOpPtr> QueryOptimizer::OptimizeGdbmsSim(
    SpjmQuery query) const {
  // A prototype GDBMS pushes filters into matching but explores no join
  // orders: the pattern runs through the backtracking matcher as-is.
  ApplyFilterIntoMatchRule(&query);
  ApplyTrimRule(&query);

  auto match = std::make_unique<plan::PhysNaiveMatch>();
  match->pattern = query.pattern;

  auto sgt = std::make_unique<plan::PhysScanGraphTable>();
  sgt->projections = query.graph_projections;
  for (int v = 0; v < query.pattern.num_vertices(); ++v) {
    sgt->vertex_var_labels.emplace_back(query.pattern.VertexVarName(v),
                                        query.pattern.vertex(v).label);
  }
  for (int e = 0; e < query.pattern.num_edges(); ++e) {
    sgt->edge_var_labels.emplace_back(query.pattern.EdgeVarName(e),
                                      query.pattern.edge(e).label);
  }
  sgt->children.push_back(std::move(match));
  PhysicalOpPtr root = std::move(sgt);

  // Relational joins in declaration order, left-deep, hash only.
  for (const auto& j : query.joins) {
    auto scan = std::make_unique<plan::PhysScanTable>();
    scan->table = j.table;
    scan->alias = j.alias;
    scan->filter = j.scan_filter;
    auto join = std::make_unique<plan::PhysHashJoin>();
    join->left_keys = {j.left_column};
    join->right_keys = {j.alias + "." + j.right_column};
    join->children.push_back(std::move(root));
    join->children.push_back(std::move(scan));
    root = std::move(join);
  }
  if (query.where) {
    auto filter = std::make_unique<plan::PhysFilter>();
    filter->predicate = query.where;
    filter->children.push_back(std::move(root));
    root = std::move(filter);
  }
  if (!query.aggregates.empty()) {
    auto agg = std::make_unique<plan::PhysHashAggregate>();
    agg->group_by = query.group_by;
    agg->aggregates = query.aggregates;
    agg->children.push_back(std::move(root));
    root = std::move(agg);
  }
  if (!query.select.empty()) {
    auto proj = std::make_unique<plan::PhysProject>();
    proj->columns = query.select;
    proj->children.push_back(std::move(root));
    root = std::move(proj);
  }
  if (!query.order_by.empty()) {
    auto order = std::make_unique<plan::PhysOrderBy>();
    order->keys = query.order_by;
    order->children.push_back(std::move(root));
    root = std::move(order);
  }
  if (query.limit >= 0) {
    auto limit = std::make_unique<plan::PhysLimit>();
    limit->limit = query.limit;
    limit->children.push_back(std::move(root));
    root = std::move(limit);
  }
  return root;
}

}  // namespace optimizer
}  // namespace relgo
