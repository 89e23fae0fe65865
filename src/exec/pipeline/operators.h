#ifndef RELGO_EXEC_PIPELINE_OPERATORS_H_
#define RELGO_EXEC_PIPELINE_OPERATORS_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "exec/context.h"
#include "exec/exec_common.h"
#include "exec/join_hash_table.h"
#include "exec/pipeline/batch.h"
#include "exec/vector/compiled_expr.h"
#include "exec/vector/typed_keys.h"
#include "plan/physical_plan.h"

namespace relgo {
namespace exec {
namespace pipeline {

class TaskScheduler;

/// A per-base-row validity bitmap with shared storage: either empty (no
/// filter — every row passes) or one byte per base-table row (1 == pass).
/// The payload is shared so a ScanCache hit replays an earlier query's
/// bitmap without copying it. The scan sources and every expansion-style
/// operator read their pushed filters through one of these.
class SharedBitmap {
 public:
  using Ptr = std::shared_ptr<const std::vector<uint8_t>>;

  SharedBitmap() = default;
  explicit SharedBitmap(Ptr data) : data_(std::move(data)) {}

  /// The pass bytes, or null when there is no filter. Row loops read it
  /// once per call; through the shared pointer it would be reloaded for
  /// every adjacency entry.
  const uint8_t* bits() const {
    return data_ == nullptr || data_->empty() ? nullptr : data_->data();
  }

 private:
  Ptr data_;
};

/// Evaluates `filter` once per row of `table` into a validity bitmap
/// (empty when there is no filter), during single-threaded Prepare, so
/// workers only do bitmap loads.
///
/// Two acceleration layers, both semantics-preserving: the predicate is
/// lowered to vectorized kernels when the tree is lowerable (row-at-a-time
/// fallback otherwise), and with the context's scan cache attached a hit
/// replays an earlier query's bitmap for the same (table, predicate) and
/// table version, while a miss queues its bitmap for publication on query
/// success.
Result<SharedBitmap> FilterBitmap(const storage::TablePtr& table,
                                  const storage::ExprPtr& filter,
                                  ExecutionContext* ctx);

/// The running k-th first sort key of a TOP_K sink, pushed down to the
/// stage that binds the key's variable: the ScanVertex source or a
/// BinderOp drops the rows it binds whose key is strictly worse, before
/// anything downstream reads them.
///
/// The bound is a row id of the key's base column: the worst first key of
/// some full heap. Rows compare against it in the sink's own ordering
/// (Value::Compare's: NULLs first, numbers promoted through double,
/// strings by sorted-dictionary code or by bytes), signed by the key's
/// direction. A row is dropped only when its key is strictly worse; ties
/// (and NaN, which compares equal to every double) are kept, so the sink's
/// (morsel, offset + row) tie-break still decides the cut.
///
/// The bound starts empty and only tightens, through a CAS, to a strictly
/// better key; any worker's bound is valid for every row, since a row
/// worse than one worker's k-th key cannot be among the global top k.
class TopKFence {
 public:
  /// Binds the fence to the base column the first key reads at its row
  /// ids, or turns it off when `base` is null. Single-threaded, before
  /// any Process.
  void Arm(const storage::Column* base, bool ascending);
  bool armed() const { return base_ != nullptr; }
  /// True once some full heap published a bound: before that, every row
  /// is admitted.
  bool engaged() const { return base_ != nullptr && bound_.load() != kNone; }

  /// Moves the bound to base row `rid` unless the bound's key is already
  /// at least as good.
  void Tighten(uint64_t rid);

  /// Narrows freshly bound rows in place: keeps the entries of the
  /// parallel vectors cols[0..num_cols) (at most kBatchRows long) and of
  /// `rows`, when not null, whose row id in *cols[key] keys no worse than
  /// the bound. Does nothing until the fence engages.
  void Narrow(size_t key, std::vector<uint64_t>* rows,
              std::vector<int64_t>* const* cols, size_t num_cols) const;

 private:
  static constexpr uint64_t kNone = ~uint64_t{0};

  /// Writes to keep[0..) the positions i of rids[0..n) whose base row keys
  /// no worse than the bound, ascending, and returns their count. One type
  /// dispatch and one bound read per call.
  uint64_t Keep(const int64_t* rids, uint64_t n, uint32_t* keep) const;

  /// Sign of base[a] against base[b] in the key's order (< 0: a is better).
  int Compare(uint64_t a, uint64_t b) const {
    int c = vector::TypedColumnCompare(*base_, a, *base_, b);
    return ascending_ ? c : -c;
  }

  const storage::Column* base_ = nullptr;
  bool ascending_ = true;
  std::atomic<uint64_t> bound_{kNone};
};

// ---------------------------------------------------------------------------
// Streaming operators
// ---------------------------------------------------------------------------

/// Where a streaming operator resumes over its current input batch.
/// `row` is the next logical input row; `inner` the position inside that
/// row's output run (adjacency entry; a filtered ExpandOp: entry of the
/// source's filtered run; hash-match index, edge-run offset;
/// ExpandIntersectOp: the start of the current candidate's run in its
/// first list), and `product` ExpandIntersectOp's index into that
/// candidate's cross product of parallel edges. A fresh cursor starts at
/// the first row; the input is exhausted once row == num_rows().
struct Cursor {
  uint64_t row = 0;
  uint64_t inner = 0;
  uint64_t product = 0;
};

/// State that one worker keeps for one operator across its calls in one
/// pipeline run (see StreamingOp::MakeScratch). It is never shared between
/// workers, operators or executions, so it needs no lock.
struct OpScratch {
  virtual ~OpScratch() = default;
};

/// A non-blocking operator of a pipeline: consumes one batch, produces
/// bounded output batches (larger per input row — expansions — or smaller
/// — filters).
///
/// Cursor contract: Process() emits output for `in` from `*cursor` on and
/// returns once the output holds kBatchRows rows or the input runs out,
/// leaving `*cursor` at the first output row it did not emit. Operators
/// whose output can outgrow their input (expansions, EDGE_VERIFY, the
/// hash-join probe) stop mid-adjacency or mid-match-list, so the bound is
/// exact even for a hub vertex; a call that returns early always has
/// output pending, so only an exhausted input yields an empty batch.
/// Operators emitting at most one row per input row finish in one call.
/// `*out` arrives empty. Inputs hold at most kBatchRows rows and may carry
/// a selection vector (see Batch).
///
/// Lifecycle: Prepare() runs once, single-threaded, before the pipeline is
/// scheduled; it resolves column indexes against the input schema, binds
/// expressions, and precomputes shared read-only state (base-table filter
/// bitmaps, index-free fallback hash tables). Process() is const and must
/// be thread-safe: the scheduler calls it concurrently on distinct batches
/// (each with its own cursor).
class StreamingOp {
 public:
  virtual ~StreamingOp() = default;

  virtual Status Prepare(const storage::Schema& input,
                         ExecutionContext* ctx) = 0;
  const storage::Schema& output_schema() const { return output_schema_; }

  /// A fresh per-worker scratch for this operator, or null when it keeps
  /// none (the default). After Prepare, each worker makes one on its first
  /// morsel of the pipeline run, keeps it on its level stack across its
  /// morsels, and hands it to every Process call it makes on this operator.
  virtual std::unique_ptr<OpScratch> MakeScratch() const { return nullptr; }

  /// Process() with the calling worker's scratch from MakeScratch(). The
  /// default ignores it.
  virtual Status Process(const Batch& in, Cursor* cursor, OpScratch* scratch,
                         Batch* out, ExecutionContext* ctx) const {
    (void)scratch;
    return Process(in, cursor, out, ctx);
  }
  virtual Status Process(const Batch& in, Cursor* cursor, Batch* out,
                         ExecutionContext* ctx) const = 0;

 protected:
  storage::Schema output_schema_;
};

using StreamingOpPtr = std::unique_ptr<StreamingOp>;

/// sigma over the streamed schema (PhysFilter). Flattens a selected input,
/// then narrows: the output shares the input's columns under a selection
/// of the passing rows.
class FilterOp : public StreamingOp {
 public:
  explicit FilterOp(const plan::PhysFilter& op) : op_(op) {}
  Status Prepare(const storage::Schema& input, ExecutionContext* ctx) override;
  Status Process(const Batch& in, Cursor* cursor, Batch* out,
                 ExecutionContext* ctx) const override;

 private:
  const plan::PhysFilter& op_;
  /// Bound per-execution clone of op_.predicate (plans can share
  /// expression trees with their query; Bind mutates, so concurrent
  /// executions each bind their own copy).
  storage::ExprPtr predicate_;
  /// Vectorized lowering of predicate_ (null when the tree is outside
  /// the lowerable subset); Process falls back to row-at-a-time
  /// EvaluateBool.
  std::unique_ptr<vector::CompiledPredicate> compiled_;
};

/// pi with renaming (PhysProject); pure column sharing, zero-copy, the
/// input's selection included.
class ProjectOp : public StreamingOp {
 public:
  explicit ProjectOp(const plan::PhysProject& op) : op_(op) {}
  Status Prepare(const storage::Schema& input, ExecutionContext* ctx) override;
  Status Process(const Batch& in, Cursor* cursor, Batch* out,
                 ExecutionContext* ctx) const override;

 private:
  const plan::PhysProject& op_;
  std::vector<size_t> src_cols_;
};

/// Probe side of a hash join whose build side was materialized AND hashed
/// by an upstream pipeline ending in a HashBuildSink (PhysHashJoin and
/// PhysPatternJoin both lower to this; the pattern join passes its shared
/// variables as drop_right). The JoinHashTable arrives fully constructed —
/// partition-parallel, see HashBuildSink — so Prepare only resolves the
/// probe-side columns and the output schema. When every probe row of a
/// call matched at most once, the probe columns pass through under a
/// selection and only the build columns are gathered.
class HashJoinProbeOp : public StreamingOp {
 public:
  HashJoinProbeOp(std::vector<std::string> left_keys,
                  std::vector<std::string> drop_right,
                  storage::TablePtr build,
                  std::shared_ptr<const JoinHashTable> ht)
      : left_keys_(std::move(left_keys)),
        drop_right_(std::move(drop_right)),
        build_(std::move(build)),
        ht_(std::move(ht)) {}
  Status Prepare(const storage::Schema& input, ExecutionContext* ctx) override;
  Status Process(const Batch& in, Cursor* cursor, Batch* out,
                 ExecutionContext* ctx) const override;

 private:
  std::vector<std::string> left_keys_, drop_right_;
  storage::TablePtr build_;
  std::shared_ptr<const JoinHashTable> ht_;
  std::vector<size_t> probe_cols_;
  std::vector<size_t> build_out_cols_;  // build columns kept in the output
};

/// GRainDB predefined join, edge side driving (PhysRidLookupJoin).
class RidLookupJoinOp : public StreamingOp {
 public:
  explicit RidLookupJoinOp(const plan::PhysRidLookupJoin& op) : op_(op) {}
  Status Prepare(const storage::Schema& input, ExecutionContext* ctx) override;
  Status Process(const Batch& in, Cursor* cursor, Batch* out,
                 ExecutionContext* ctx) const override;

 private:
  const plan::PhysRidLookupJoin& op_;
  size_t rid_col_ = 0;
  storage::TablePtr vtable_;
  SharedBitmap bitmap_;
  std::vector<int> raw_indexes_;
};

/// GRainDB predefined join, vertex side driving (PhysRidExpandJoin).
class RidExpandJoinOp : public StreamingOp {
 public:
  explicit RidExpandJoinOp(const plan::PhysRidExpandJoin& op) : op_(op) {}
  Status Prepare(const storage::Schema& input, ExecutionContext* ctx) override;
  Status Process(const Batch& in, Cursor* cursor, Batch* out,
                 ExecutionContext* ctx) const override;

 private:
  const plan::PhysRidExpandJoin& op_;
  size_t rid_col_ = 0;
  storage::TablePtr etable_;
  SharedBitmap bitmap_;
  std::vector<int> raw_indexes_;
};

/// A streaming operator that binds new variables from the graph index or
/// its hash fallback: EXPAND, GET_VERTEX, EXPAND_EDGE, EXPAND_INTERSECT and
/// EDGE_VERIFY. Each collects, per call, the physical input row behind
/// every output row and one int64 column per variable it binds, charges
/// those rows, and hands them to Emit.
///
/// A top-k fence set on the operator (SetFence) prunes the new rows right
/// there, keyed on the row ids bound to one of its variables: rows whose
/// key is strictly worse than the fence's bound are dropped after they are
/// charged (so the row-budget charge is the unfenced one) and before any
/// input column is gathered for them.
class BinderOp : public StreamingOp {
 public:
  /// Prunes this operator's output with `fence`, keyed on the row ids it
  /// binds to `var` (its target or edge variable). Call before Prepare.
  void SetFence(const TopKFence* fence, std::string var) {
    fence_ = fence;
    fence_var_ = std::move(var);
  }

 protected:
  /// Resolves the fenced variable among the columns that Prepare appended
  /// to `input`; the last step of every binder's Prepare.
  Status ResolveFence(const storage::Schema& input);

  /// Emits one call's output: `rows` holds the input's physical row behind
  /// every output row and `cols` the `num_cols` new binding columns (in
  /// output-schema order), after the caller charged the rows. Prunes them
  /// with the fence, then shares or gathers the input columns (see
  /// EmitExpanded in operators.cc).
  void Emit(const Batch& in, std::vector<uint64_t> rows,
            std::vector<int64_t>* const* cols, size_t num_cols,
            Batch* out) const;

 private:
  const TopKFence* fence_ = nullptr;
  std::string fence_var_;
  size_t fence_col_ = 0;  ///< index of fence_var_ among the new columns
};

/// EXPAND_EDGE (PhysExpandEdge): one output row per incident edge.
class ExpandEdgeOp : public BinderOp {
 public:
  explicit ExpandEdgeOp(const plan::PhysExpandEdge& op) : op_(op) {}
  Status Prepare(const storage::Schema& input, ExecutionContext* ctx) override;
  Status Process(const Batch& in, Cursor* cursor, Batch* out,
                 ExecutionContext* ctx) const override;

 private:
  const plan::PhysExpandEdge& op_;
  size_t from_col_ = 0;
  SharedBitmap bitmap_;
};

/// GET_VERTEX (PhysGetVertex): edge binding -> endpoint binding.
class GetVertexOp : public BinderOp {
 public:
  explicit GetVertexOp(const plan::PhysGetVertex& op) : op_(op) {}
  Status Prepare(const storage::Schema& input, ExecutionContext* ctx) override;
  Status Process(const Batch& in, Cursor* cursor, Batch* out,
                 ExecutionContext* ctx) const override;

 private:
  const plan::PhysGetVertex& op_;
  size_t edge_col_ = 0;
  SharedBitmap bitmap_;
};

/// Fused EXPAND (PhysExpand). With the graph index, streams the VE-index
/// adjacency: without a vertex filter it sizes each call's output from the
/// degrees and copies whole adjacency runs. With one, each worker filters
/// a source vertex's adjacency once into its memo (MakeScratch) and copies
/// the filtered run in bulk for every row with that source; a functional
/// hop (index max degree <= 1) tests its one neighbor per row instead.
/// Without the index (RelGoHash), probes an FK hash table over the edge
/// relation built once during Prepare (Case II reduction).
class ExpandOp : public BinderOp {
 public:
  explicit ExpandOp(const plan::PhysExpand& op) : op_(op) {}
  Status Prepare(const storage::Schema& input, ExecutionContext* ctx) override;
  /// The filtered-adjacency memo when this EXPAND filters over a
  /// non-functional index hop; null otherwise.
  std::unique_ptr<OpScratch> MakeScratch() const override;
  Status Process(const Batch& in, Cursor* cursor, OpScratch* scratch,
                 Batch* out, ExecutionContext* ctx) const override;
  /// Runs with a scratch of its own (one call's memo).
  Status Process(const Batch& in, Cursor* cursor, Batch* out,
                 ExecutionContext* ctx) const override;

 private:
  const plan::PhysExpand& op_;
  size_t from_col_ = 0;
  bool use_index_ = false;
  bool functional_ = false;  ///< index max degree <= 1 along the hop
  const graph::GraphIndex* index_ = nullptr;  ///< set when use_index_
  SharedBitmap bitmap_;
  // Index-free fallback state (all read-only after Prepare). The TablePtrs
  // keep the borrowed column/index pointers alive.
  storage::TablePtr etable_, from_table_, to_table_;
  const storage::Column* from_key_col_ = nullptr;
  const storage::Column* to_fk_col_ = nullptr;
  const std::unordered_map<int64_t, uint64_t>* to_key_index_ = nullptr;
  JoinHashTable fk_edges_;  ///< edge rows by from-FK
};

/// EXPAND_INTERSECT (PhysExpandIntersect): k-way sorted adjacency
/// intersection, the wco star join.
class ExpandIntersectOp : public BinderOp {
 public:
  explicit ExpandIntersectOp(const plan::PhysExpandIntersect& op) : op_(op) {}
  Status Prepare(const storage::Schema& input, ExecutionContext* ctx) override;
  Status Process(const Batch& in, Cursor* cursor, Batch* out,
                 ExecutionContext* ctx) const override;

 private:
  const plan::PhysExpandIntersect& op_;
  std::vector<size_t> from_cols_;
  SharedBitmap bitmap_;
  bool want_edges_ = false;
};

/// EDGE_VERIFY (PhysEdgeVerify): closes one edge between two bound
/// vertices; binary search of the sorted adjacency run, or a
/// (src_key, dst_key) hash probe when the index is bypassed.
class EdgeVerifyOp : public BinderOp {
 public:
  explicit EdgeVerifyOp(const plan::PhysEdgeVerify& op) : op_(op) {}
  Status Prepare(const storage::Schema& input, ExecutionContext* ctx) override;
  Status Process(const Batch& in, Cursor* cursor, Batch* out,
                 ExecutionContext* ctx) const override;

 private:
  const plan::PhysEdgeVerify& op_;
  size_t src_col_ = 0, dst_col_ = 0;
  bool use_index_ = false;
  storage::TablePtr etable_, stable_, dtable_;
  const storage::Column* skey_ = nullptr;
  const storage::Column* dkey_ = nullptr;
  JoinHashTable key_edges_;  ///< edge rows by (src FK, dst FK)
};

/// VERTEX_FILTER (PhysVertexFilter): bitmap membership of the bound row id;
/// narrows the selection.
class VertexFilterOp : public StreamingOp {
 public:
  explicit VertexFilterOp(const plan::PhysVertexFilter& op) : op_(op) {}
  Status Prepare(const storage::Schema& input, ExecutionContext* ctx) override;
  Status Process(const Batch& in, Cursor* cursor, Batch* out,
                 ExecutionContext* ctx) const override;

 private:
  const plan::PhysVertexFilter& op_;
  size_t var_col_ = 0;
  SharedBitmap bitmap_;
};

/// NOT_EQUAL (PhysNotEqual): all-distinct constraint between two vars;
/// narrows the selection.
class NotEqualOp : public StreamingOp {
 public:
  explicit NotEqualOp(const plan::PhysNotEqual& op) : op_(op) {}
  Status Prepare(const storage::Schema& input, ExecutionContext* ctx) override;
  Status Process(const Batch& in, Cursor* cursor, Batch* out,
                 ExecutionContext* ctx) const override;

 private:
  const plan::PhysNotEqual& op_;
  size_t a_col_ = 0, b_col_ = 0;
};

/// SCAN_GRAPH_TABLE's pi-hat projection (PhysScanGraphTable): flattens the
/// streamed binding table into relational columns. The graph sub-plan below
/// it is part of the same pipeline — binding tuples flow through the bridge
/// without materializing.
///
/// Late materialization: a projection named in Defer() streams its binding
/// row-id column (int64, zero-copy) under its output name instead of the
/// property; whoever deferred it gathers the property afterwards, for the
/// rows that survive, through DeferredColumn(). The deferral belongs to
/// this operator instance — one execution — never to the plan.
///
/// A selected input keeps its selection when every output column is a
/// row id (all columns shared zero-copy); otherwise the selection folds
/// into the property gathers and the output is flat.
class ScanGraphTableOp : public StreamingOp {
 public:
  explicit ScanGraphTableOp(const plan::PhysScanGraphTable& op) : op_(op) {}
  /// Output names of the projections to defer; call before Prepare.
  void Defer(std::set<std::string> outputs) {
    deferred_ = std::move(outputs);
  }
  Status Prepare(const storage::Schema& input, ExecutionContext* ctx) override;
  Status Process(const Batch& in, Cursor* cursor, Batch* out,
                 ExecutionContext* ctx) const override;

  /// True when `output` streams as a row id (named in Defer()).
  bool Defers(const std::string& output) const {
    return deferred_.count(output) > 0;
  }

  /// The base-table column a deferred output reads, or null when `output`
  /// is not deferred. Valid after Prepare, for this operator's lifetime.
  const storage::Column* DeferredColumn(const std::string& output) const;

 private:
  struct Source {
    storage::TablePtr base;
    int raw_col = -1;  // -1 == the row id itself
    size_t binding_col = 0;
    bool deferred = false;  // streams the row id; property gathered later
  };
  const plan::PhysScanGraphTable& op_;
  std::set<std::string> deferred_;
  std::vector<Source> sources_;
  bool gathers_ = false;  // some source reads a property eagerly
};

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

/// Per-worker sink partial state; merged once the pipeline drains.
struct SinkState {
  virtual ~SinkState() = default;
};

/// Where a batch sits in its pipeline's sequential output: `morsel` is the
/// source morsel it came from, `offset` the number of rows that morsel
/// handed the sink before it. Row r of the batch is global row
/// (morsel, offset + r); that order is the sequential (num_threads = 1)
/// order, which equals the reference interpreter's.
struct BatchPosition {
  uint64_t morsel = 0;
  uint64_t offset = 0;

  bool operator<(const BatchPosition& other) const {
    return morsel != other.morsel ? morsel < other.morsel
                                  : offset < other.offset;
  }
};

/// Terminal consumer of a pipeline. Consume() runs concurrently, but each
/// worker owns a private SinkState, so no synchronization is needed until
/// Finish() merges the partials on the owning thread — with the query's
/// TaskScheduler in hand, so breaker work that parallelizes (hash-table
/// finalize, sort-run sorting) can fan back out.
///
/// Consume() receives flat batches of at most kBatchRows rows with their
/// BatchPosition; a morsel may arrive as several batches. Sinks merge in
/// (morsel, offset + row) order, which makes the pipeline result *order*
/// deterministic and equal to the sequential (and reference-interpreter)
/// order regardless of thread count — required so ORDER BY + LIMIT breaks
/// ties identically across engines.
class Sink {
 public:
  virtual ~Sink() = default;
  virtual Status Prepare(const storage::Schema& input,
                         ExecutionContext* ctx) = 0;
  virtual std::unique_ptr<SinkState> MakeState() const = 0;
  virtual Status Consume(SinkState* state, const Batch& in,
                         BatchPosition pos, ExecutionContext* ctx) const = 0;
  virtual Result<storage::TablePtr> Finish(
      std::vector<std::unique_ptr<SinkState>> states, TaskScheduler* scheduler,
      ExecutionContext* ctx) = 0;

  /// The breaker plan node this sink implements (profiling attribution);
  /// null for plain materialization, whose rows belong to the last
  /// streaming operator.
  virtual const plan::PhysicalOp* plan_node() const { return nullptr; }
  /// A second breaker plan node fused below plan_node() into the same sink
  /// (the ORDER BY a TOP_K sink absorbs under its LIMIT); null otherwise.
  /// Its profile entry is recorded by the sink itself during Finish.
  virtual const plan::PhysicalOp* fused_node() const { return nullptr; }
  /// Short label for pipeline-shaped EXPLAIN ANALYZE rendering.
  virtual const char* label() const { return "MATERIALIZE"; }
  /// True once consuming further morsels cannot change the result (LIMIT
  /// early-exit). The scheduler still claims the remaining morsels but
  /// skips their source emit and operator work. Must only depend on
  /// *contiguous-prefix* completion (see MorselFinished): a morsel being
  /// checked may have been claimed before later morsels completed.
  virtual bool Saturated() const { return false; }
  /// Called once per morsel after it fully finished — every batch
  /// consumed, emitted zero rows, or was skipped because Saturated() —
  /// with the total row count it contributed. Thread-safe like Consume.
  /// Default no-op; TopKSink uses it to advance its completed-morsel
  /// frontier.
  virtual void MorselFinished(uint64_t morsel, uint64_t rows) const {
    (void)morsel;
    (void)rows;
  }
};

/// Collects (position, batch) pairs per worker and concatenates them in
/// position order into one Table (pipeline feeding a breaker, or the query
/// result).
class MaterializeSink : public Sink {
 public:
  explicit MaterializeSink(std::string name) : name_(std::move(name)) {}
  Status Prepare(const storage::Schema& input, ExecutionContext* ctx) override;
  std::unique_ptr<SinkState> MakeState() const override;
  Status Consume(SinkState* state, const Batch& in, BatchPosition pos,
                 ExecutionContext* ctx) const override;
  Result<storage::TablePtr> Finish(
      std::vector<std::unique_ptr<SinkState>> states, TaskScheduler* scheduler,
      ExecutionContext* ctx) override;

 private:
  std::string name_;
  storage::Schema schema_;
};

/// Materializes a join build side AND constructs the shared JoinHashTable,
/// partition-parallel (PhysHashJoin / PhysPatternJoin build sides):
/// Consume collects per-worker (position, batch) lists like
/// MaterializeSink; Finish concatenates them in position order, then
/// builds the hash table in two parallel phases on the query's scheduler —
/// morsel-parallel hashing into per-morsel partition slices, then
/// partition-parallel linking of the bucket chains (JoinHashTable's
/// two-phase API). The
/// build wall time is recorded as breaker build time on the owning join
/// node, and the finished table plus hash table are handed to
/// HashJoinProbeOp, whose probe path is unchanged.
class HashBuildSink : public Sink {
 public:
  HashBuildSink(std::vector<std::string> keys,
                const plan::PhysicalOp* join_node)
      : keys_(std::move(keys)), join_node_(join_node) {}
  Status Prepare(const storage::Schema& input, ExecutionContext* ctx) override;
  std::unique_ptr<SinkState> MakeState() const override;
  Status Consume(SinkState* state, const Batch& in, BatchPosition pos,
                 ExecutionContext* ctx) const override;
  Result<storage::TablePtr> Finish(
      std::vector<std::unique_ptr<SinkState>> states, TaskScheduler* scheduler,
      ExecutionContext* ctx) override;
  const char* label() const override { return "HASH_BUILD"; }

  /// The constructed hash table; valid after a successful Finish. Shared
  /// with the probe operator (which holds the build table alive).
  std::shared_ptr<const JoinHashTable> hash_table() const { return ht_; }

 private:
  std::vector<std::string> keys_;
  const plan::PhysicalOp* join_node_;
  storage::Schema schema_;
  std::shared_ptr<JoinHashTable> ht_;
};

/// In-pipeline ORDER BY / LIMIT sink replacing the old materializing
/// post-op path: the three output-clause shapes run as one sink at the end
/// of the probe pipeline instead of materializing between pipelines.
///
///  * ORDER BY + LIMIT k (top-k): each worker keeps a bounded max-heap of
///    its k best rows; Finish merges the <= workers*k candidates and sorts
///    them once. Rows past a full heap's fence are discarded O(1).
///  * ORDER BY without LIMIT: workers collect their batches; Finish sorts
///    per-chunk runs in parallel on the scheduler and k-way merges them —
///    a parallel merge sort over the position-ordered row space.
///  * LIMIT without ORDER BY: workers collect batches until the rows of
///    the *contiguous completed-morsel prefix* reach k (Saturated() — an
///    exact early-exit: once morsels [0, f) are all finished and hold
///    >= k rows, no morsel >= f can contribute to the first k; a morsel
///    being skipped is never inside the prefix, because prefix morsels
///    have finished and it has not). The frontier advances in
///    MorselFinished, which also counts empty and skipped morsels.
///    Finish truncates the position-ordered concatenation. Early-exit is
///    disabled while profiling so per-node actual row counts stay
///    engine-invariant.
///
/// Every comparison tie-breaks on the global (morsel, offset + row)
/// sequence (see BatchPosition), which equals the sequential scan order —
/// so the selected rows and their order match the reference interpreter's
/// stable sort exactly, independent of thread count.
///
/// Sort keys read through row ids (TOP_K mode only): a key that a
/// deferred pi-hat streams as a row id (see RankKeysThrough) compares the
/// base column at that row id — a sorted-dictionary string as its int32
/// code, a number or date by its payload — in the heap fence, the heap
/// order and the Finish sort alike. Unprofiled, a deferred first key also
/// arms fence(): each worker whose heap is full publishes its worst first
/// key there after every batch.
class TopKSink : public Sink {
 public:
  /// `order` may be null (plain LIMIT); `limit_node` may be null (plain
  /// ORDER BY, pass limit = -1). At least one must be set.
  TopKSink(const plan::PhysOrderBy* order, const plan::PhysLimit* limit_node,
           int64_t limit)
      : order_(order), limit_node_(limit_node), limit_(limit) {}

  /// Sort key i streams from `pi_hat` as the row id of its output
  /// `pi_hat_names[i]` when pi-hat defers that output; Prepare resolves
  /// the base columns. Call before Prepare.
  void RankKeysThrough(const ScanGraphTableOp* pi_hat,
                       std::vector<std::string> pi_hat_names) {
    pi_hat_ = pi_hat;
    pi_hat_names_ = std::move(pi_hat_names);
  }
  /// True when this sink keeps bounded per-worker heaps (ORDER BY + a
  /// LIMIT of at most kMaxHeapLimit rows), the mode that can fence.
  bool HeapMode() const {
    return order_ != nullptr && limit_ >= 0 && limit_ <= kMaxHeapLimit;
  }
  /// The running k-th first key; armed by Prepare (see class comment).
  const TopKFence* fence() const { return &fence_; }

  Status Prepare(const storage::Schema& input, ExecutionContext* ctx) override;
  std::unique_ptr<SinkState> MakeState() const override;
  Status Consume(SinkState* state, const Batch& in, BatchPosition pos,
                 ExecutionContext* ctx) const override;
  Result<storage::TablePtr> Finish(
      std::vector<std::unique_ptr<SinkState>> states, TaskScheduler* scheduler,
      ExecutionContext* ctx) override;
  const plan::PhysicalOp* plan_node() const override {
    return limit_node_ != nullptr
               ? static_cast<const plan::PhysicalOp*>(limit_node_)
               : static_cast<const plan::PhysicalOp*>(order_);
  }
  const plan::PhysicalOp* fused_node() const override {
    return limit_node_ != nullptr && order_ != nullptr
               ? static_cast<const plan::PhysicalOp*>(order_)
               : nullptr;
  }
  const char* label() const override {
    if (order_ == nullptr) return "LIMIT";
    return limit_node_ != nullptr ? "TOP_K" : "ORDER_BY";
  }
  bool Saturated() const override {
    return early_exit_ &&
           prefix_rows_.load(std::memory_order_relaxed) >=
               static_cast<uint64_t>(limit_);
  }
  void MorselFinished(uint64_t morsel, uint64_t rows) const override;

 private:
  /// Above this k, bounded per-worker heaps of Value rows cost more memory
  /// than collecting batches; fall back to sort-then-truncate.
  static constexpr int64_t kMaxHeapLimit = 1 << 14;

  const plan::PhysOrderBy* order_;
  const plan::PhysLimit* limit_node_;
  int64_t limit_;
  storage::Schema schema_;
  std::vector<size_t> key_cols_;
  /// Per key, the base column its row ids index; null for an eager key.
  std::vector<const storage::Column*> key_bases_;
  const ScanGraphTableOp* pi_hat_ = nullptr;
  std::vector<std::string> pi_hat_names_;
  mutable TopKFence fence_;  // workers tighten it from Consume
  bool early_exit_ = false;  // plain LIMIT, profiling off

  // Completed-morsel frontier (early-exit mode only): morsels [0,
  // frontier_next_) have all finished and contributed frontier-counted
  // rows; finished morsels beyond the frontier wait in pending_.
  // prefix_rows_ mirrors the frontier row count for lock-free Saturated().
  mutable std::mutex exit_mu_;
  mutable uint64_t frontier_next_ = 0;
  mutable std::map<uint64_t, uint64_t> pending_;  // finished morsel -> rows
  mutable std::atomic<uint64_t> prefix_rows_{0};
};

/// Parallel hash aggregation (PhysHashAggregate): each worker accumulates a
/// thread-local partial group table; Finish() merges the partials
/// (count/sum add, min/max combine) in first-seen (morsel, offset + row)
/// order and
/// emits seed-identical output, including the SQL one-row global aggregate
/// over empty input.
class AggregateSink : public Sink {
 public:
  explicit AggregateSink(const plan::PhysHashAggregate& op) : op_(op) {}
  Status Prepare(const storage::Schema& input, ExecutionContext* ctx) override;
  std::unique_ptr<SinkState> MakeState() const override;
  Status Consume(SinkState* state, const Batch& in, BatchPosition pos,
                 ExecutionContext* ctx) const override;
  Result<storage::TablePtr> Finish(
      std::vector<std::unique_ptr<SinkState>> states, TaskScheduler* scheduler,
      ExecutionContext* ctx) override;
  const plan::PhysicalOp* plan_node() const override { return &op_; }
  const char* label() const override { return "HASH_AGGREGATE"; }

 private:
  const plan::PhysHashAggregate& op_;
  storage::Schema input_schema_;
  std::vector<size_t> group_cols_;
  std::vector<int> agg_cols_;
  /// Typed group-key codec (null on fallback): workers key their partial
  /// maps on byte-encoded keys read from payload spans instead of boxed
  /// Value vectors. Const + stateless, so shared across workers.
  std::unique_ptr<vector::KeyEncoder> encoder_;
};

}  // namespace pipeline
}  // namespace exec
}  // namespace relgo

#endif  // RELGO_EXEC_PIPELINE_OPERATORS_H_
