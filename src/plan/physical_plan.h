#ifndef RELGO_PLAN_PHYSICAL_PLAN_H_
#define RELGO_PLAN_PHYSICAL_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "graph/rg_mapping.h"
#include "plan/spjm_query.h"
#include "storage/expression.h"

namespace relgo {
namespace plan {

/// Physical operator kinds. The first group operates on relational tables;
/// the second group on *binding tables* (intermediate graph relations whose
/// columns are vertex/edge row ids keyed by pattern variable name,
/// Sec 3.2.2); SCAN_GRAPH_TABLE bridges the two worlds.
enum class OpKind {
  // Relational operators.
  kScanTable,
  kFilter,
  kProject,
  kHashJoin,
  kRidLookupJoin,   ///< GRainDB predefined join: edge rowid -> endpoint tuple
  kRidExpandJoin,   ///< GRainDB predefined join: vertex rowid -> edge tuples
  kHashAggregate,
  kOrderBy,
  kLimit,
  // Graph (binding table) operators.
  kScanVertex,
  kExpandEdge,
  kGetVertex,
  kExpand,           ///< fused EXPAND_EDGE + GET_VERTEX (TrimAndFuseRule)
  kExpandIntersect,  ///< wco star join
  kEdgeVerify,       ///< closes one edge between two bound vertices
  kPatternJoin,      ///< hash join of two binding tables on shared vars
  kVertexFilter,     ///< predicate on a bound vertex's attributes
  kNotEqual,         ///< all-distinct constraint between two bound vars
  kNaiveMatch,       ///< backtracking matcher (GdbmsSim baseline)
  // Bridge.
  kScanGraphTable,   ///< encapsulated graph sub-plan + pi-hat projection
};

const char* OpKindName(OpKind kind);

/// Base class of the physical plan tree. Plans are pure data; execution
/// lives in exec/executor.*, which keeps the optimizer and the plan
/// printer free of engine dependencies.
///
/// Plans are read-only once optimized: the plan cache shares one plan
/// across concurrent executions of every binding of its template, so
/// nothing in exec may write to a plan node or its expressions. The
/// engines bind clones of plan expressions carrying the call's parameter
/// values (Expr::CloneWithParams), and per-execution state (the top-k
/// fence, late materialization) lives on operator instances.
struct PhysicalOp {
  explicit PhysicalOp(OpKind k) : kind(k) {}
  virtual ~PhysicalOp() = default;

  OpKind kind;
  std::vector<std::unique_ptr<PhysicalOp>> children;
  double estimated_cardinality = -1.0;  ///< optimizer estimate, for EXPLAIN
  /// Cumulative optimizer cost of the subtree rooted here (C_out-style:
  /// the sum of intermediate cardinalities the optimizer expects this
  /// subtree to materialize). -1 when the emitting path has no cost model;
  /// optimizer::AnnotatePlanEstimates fills such gaps before plans leave
  /// the optimizer.
  double estimated_cost = -1.0;

  /// One-line operator label for plan rendering, e.g.
  /// "HASH_JOIN(g.p1_place_id = place.id)".
  virtual std::string Describe() const { return OpKindName(kind); }
};

using PhysicalOpPtr = std::unique_ptr<PhysicalOp>;

/// Renders the plan tree with indentation (Fig 6 / Fig 12 style output).
std::string PrintPlan(const PhysicalOp& op, int indent = 0);

// ---------------------------------------------------------------------------
// Relational operators
// ---------------------------------------------------------------------------

/// Scans a base table under an alias. Output columns are named
/// "alias.column". With `emit_rowid`, prepends the implicit row id column
/// "alias.$rid" used by the predefined-join operators.
struct PhysScanTable : PhysicalOp {
  PhysScanTable() : PhysicalOp(OpKind::kScanTable) {}
  std::string table;
  std::string alias;
  storage::ExprPtr filter;  ///< over the raw table schema; may be null
  std::vector<std::string> projected_columns;  ///< raw names; empty == all
  bool emit_rowid = false;
  std::string Describe() const override;
};

struct PhysFilter : PhysicalOp {
  PhysFilter() : PhysicalOp(OpKind::kFilter) {}
  storage::ExprPtr predicate;  ///< over the child's output schema
  std::string Describe() const override;
};

struct PhysProject : PhysicalOp {
  PhysProject() : PhysicalOp(OpKind::kProject) {}
  /// (source column, output name) pairs.
  std::vector<std::pair<std::string, std::string>> columns;
  std::string Describe() const override;
};

struct PhysHashJoin : PhysicalOp {
  PhysHashJoin() : PhysicalOp(OpKind::kHashJoin) {}
  /// Equi-join keys; children[0] (probe) columns vs children[1] (build).
  std::vector<std::string> left_keys;
  std::vector<std::string> right_keys;
  std::string Describe() const override;
};

/// GRainDB-style predefined join, edge side driving: for each input row
/// carrying the edge row id column `edge_rowid_column`, fetches the
/// source/target (per `dir`) vertex tuple via the EV-index — no hash table.
struct PhysRidLookupJoin : PhysicalOp {
  PhysRidLookupJoin() : PhysicalOp(OpKind::kRidLookupJoin) {}
  int edge_label = -1;
  graph::Direction dir = graph::Direction::kOut;  ///< kOut fetches source
  std::string edge_rowid_column;
  std::string vertex_alias;
  std::vector<std::string> vertex_columns;  ///< raw names; empty == all
  storage::ExprPtr vertex_filter;           ///< residual filter on the vertex
  bool emit_vertex_rowid = false;
  std::string Describe() const override;
};

/// GRainDB-style predefined join, vertex side driving: for each input row
/// carrying the vertex row id column, emits one output row per incident
/// edge via the VE-index (CSR).
struct PhysRidExpandJoin : PhysicalOp {
  PhysRidExpandJoin() : PhysicalOp(OpKind::kRidExpandJoin) {}
  int edge_label = -1;
  graph::Direction dir = graph::Direction::kOut;  ///< kOut: vertex is source
  std::string vertex_rowid_column;
  std::string edge_alias;
  std::vector<std::string> edge_columns;
  storage::ExprPtr edge_filter;
  bool emit_edge_rowid = false;
  std::string Describe() const override;
};

struct PhysHashAggregate : PhysicalOp {
  PhysHashAggregate() : PhysicalOp(OpKind::kHashAggregate) {}
  std::vector<std::string> group_by;
  std::vector<AggregateSpec> aggregates;
  std::string Describe() const override;
};

struct PhysOrderBy : PhysicalOp {
  PhysOrderBy() : PhysicalOp(OpKind::kOrderBy) {}
  std::vector<SortKey> keys;
  std::string Describe() const override;
};

struct PhysLimit : PhysicalOp {
  PhysLimit() : PhysicalOp(OpKind::kLimit) {}
  int64_t limit = -1;
  std::string Describe() const override;
};

// ---------------------------------------------------------------------------
// Graph operators (binding tables: one int64 row-id column per bound var)
// ---------------------------------------------------------------------------

/// Entry point of every graph plan: scans the vertex relation of
/// `vertex_label`, emitting the row id of each tuple (optionally filtered)
/// as binding column `var`.
struct PhysScanVertex : PhysicalOp {
  PhysScanVertex() : PhysicalOp(OpKind::kScanVertex) {}
  int vertex_label = -1;
  std::string var;
  storage::ExprPtr filter;  ///< pushed-down constraint (FilterIntoMatchRule)
  std::string Describe() const override;
};

/// EXPAND_EDGE: for each row, looks up the VE-index of the vertex bound to
/// `from_var` and emits one row per adjacent edge, binding `edge_var`.
struct PhysExpandEdge : PhysicalOp {
  PhysExpandEdge() : PhysicalOp(OpKind::kExpandEdge) {}
  int edge_label = -1;
  graph::Direction dir = graph::Direction::kOut;
  std::string from_var;
  std::string edge_var;
  storage::ExprPtr edge_filter;
  std::string Describe() const override;
};

/// GET_VERTEX: binds `to_var` to the other endpoint of the edge bound to
/// `edge_var`, via the EV-index.
struct PhysGetVertex : PhysicalOp {
  PhysGetVertex() : PhysicalOp(OpKind::kGetVertex) {}
  int edge_label = -1;
  graph::Direction dir = graph::Direction::kOut;  ///< side being fetched
  std::string edge_var;
  std::string to_var;
  storage::ExprPtr vertex_filter;
  std::string Describe() const override;
};

/// Fused EXPAND (TrimAndFuseRule): neighbors directly, edge ids dropped.
/// When no graph index is available (RelGoHash), executes as a hash join
/// between the binding table and the edge relation (Case II reduction).
struct PhysExpand : PhysicalOp {
  PhysExpand() : PhysicalOp(OpKind::kExpand) {}
  int edge_label = -1;
  graph::Direction dir = graph::Direction::kOut;
  std::string from_var;
  std::string to_var;
  std::string edge_var;  ///< empty when the edge binding was trimmed
  storage::ExprPtr vertex_filter;
  bool use_index = true;
  std::string Describe() const override;
};

/// EXPAND_INTERSECT (Case III): binds `to_var` to the common neighbors of
/// all `from_vars`, intersecting sorted adjacency lists in one pipelined
/// pass (the wco star join). Leaf i connects via edge_labels[i]/dirs[i]
/// (kOut means from_vars[i] -> to_var).
struct PhysExpandIntersect : PhysicalOp {
  PhysExpandIntersect() : PhysicalOp(OpKind::kExpandIntersect) {}
  std::vector<int> edge_labels;
  std::vector<graph::Direction> dirs;
  std::vector<std::string> from_vars;
  std::vector<std::string> edge_vars;  ///< empty strings when trimmed
  std::string to_var;
  storage::ExprPtr vertex_filter;
  std::string Describe() const override;
};

/// Closes one pattern edge between two already-bound vertices (used by the
/// RelGoNoEI variant, which replaces EXPAND_INTERSECT with a chain of
/// expand + verify joins).
struct PhysEdgeVerify : PhysicalOp {
  PhysEdgeVerify() : PhysicalOp(OpKind::kEdgeVerify) {}
  int edge_label = -1;
  graph::Direction dir = graph::Direction::kOut;  ///< kOut: src_var -> dst_var
  std::string src_var;
  std::string dst_var;
  std::string edge_var;  ///< empty == edge binding not needed
  bool use_index = true;
  std::string Describe() const override;
};

/// Natural join of two binding tables on their shared variables (Case I).
struct PhysPatternJoin : PhysicalOp {
  PhysPatternJoin() : PhysicalOp(OpKind::kPatternJoin) {}
  std::vector<std::string> common_vars;
  std::string Describe() const override;
};

/// Applies a predicate over the attributes of the vertex/edge tuple bound
/// to `var` (the element lives in table `table_label` space).
struct PhysVertexFilter : PhysicalOp {
  PhysVertexFilter() : PhysicalOp(OpKind::kVertexFilter) {}
  std::string var;
  bool is_edge = false;
  int label = -1;
  storage::ExprPtr predicate;
  std::string Describe() const override;
};

/// Enforces var_a != var_b (row ids), implementing the all-distinct
/// operator for isomorphism-style semantics (Sec 3.1).
struct PhysNotEqual : PhysicalOp {
  PhysNotEqual() : PhysicalOp(OpKind::kNotEqual) {}
  std::string var_a;
  std::string var_b;
  std::string Describe() const override;
};

/// Leaf operator running the reference backtracking matcher over the whole
/// pattern (fixed traversal order, no cost-based planning). This is the
/// execution model of the GdbmsSim baseline standing in for a prototype
/// native graph DBMS.
struct PhysNaiveMatch : PhysicalOp {
  PhysNaiveMatch() : PhysicalOp(OpKind::kNaiveMatch) {}
  pattern::PatternGraph pattern;
  std::string Describe() const override;
};

// ---------------------------------------------------------------------------
// Bridge
// ---------------------------------------------------------------------------

/// SCAN_GRAPH_TABLE (Sec 4.2.2): wraps the optimized graph sub-plan
/// (children[0], producing a binding table) and applies the pi-hat
/// projection to flatten graph elements into relational columns. To the
/// relational optimizer this is an ordinary scan.
struct PhysScanGraphTable : PhysicalOp {
  PhysScanGraphTable() : PhysicalOp(OpKind::kScanGraphTable) {}
  std::vector<GraphProjection> projections;
  /// Vars whose raw row id should be kept as column "var.$rid" (used when
  /// outer predefined joins consume them).
  std::vector<std::string> rowid_passthrough;
  /// var -> is_edge/label resolution for the projections.
  std::vector<std::pair<std::string, int>> vertex_var_labels;
  std::vector<std::pair<std::string, int>> edge_var_labels;
  std::string Describe() const override;
};

}  // namespace plan
}  // namespace relgo

#endif  // RELGO_PLAN_PHYSICAL_PLAN_H_
