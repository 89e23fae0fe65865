// google-benchmark micro-benchmarks for the physical building blocks:
// graph index construction, EXPAND (index vs hash), EXPAND_INTERSECT,
// pattern hash join (each run as a single-threaded pipeline-engine plan),
// and the naive matcher, on a fixed LDBC-like dataset —
// plus kernel-vs-row microbenches of the vectorized expression layer
// (filter selectivity sweep, join-key hashing, group-key build) and the
// two-phase join hash-table build, whose results are also appended to
// BENCH_pipeline.json so they are recorded in the perf trajectory.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <random>

#include "bench_util.h"
#include "common/hash.h"
#include "exec/join_hash_table.h"
#include "exec/naive_matcher.h"
#include "exec/pipeline/engine.h"
#include "exec/pipeline/scheduler.h"
#include "exec/vector/compiled_expr.h"
#include "exec/vector/typed_keys.h"
#include "storage/expression.h"
#include "workload/ldbc.h"

namespace {

using namespace relgo;

Database* SharedDb() {
  static Database* db = [] {
    auto* d = new Database();
    workload::LdbcOptions options;
    options.scale_factor = 0.3;
    Status st = workload::GenerateLdbc(d, options);
    if (!st.ok()) std::abort();
    return d;
  }();
  return db;
}

exec::ExecutionContext MakeContext(Database* db) {
  exec::ExecutionOptions options;
  options.num_threads = 1;
  options.max_total_rows = 500'000'000;
  return exec::ExecutionContext(&db->catalog(), &db->mapping(), &db->index(),
                                options);
}

void BM_GraphIndexBuild(benchmark::State& state) {
  Database* db = SharedDb();
  for (auto _ : state) {
    graph::GraphIndex index;
    Status st = index.Build(db->catalog(), db->mapping());
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
    benchmark::DoNotOptimize(index.MemoryBytes());
  }
}
BENCHMARK(BM_GraphIndexBuild)->Unit(benchmark::kMillisecond);

/// SCAN_VERTEX a, then EXPAND a -> b over knows; `vertex_filter` restricts
/// b and `edge_var` binds the edge when non-empty.
std::unique_ptr<plan::PhysicalOp> KnowsExpandPlan(
    Database* db, bool use_index, storage::ExprPtr vertex_filter = nullptr,
    std::string edge_var = "") {
  int person = db->mapping().FindVertexLabel("Person");
  int knows = db->mapping().FindEdgeLabel("knows");
  auto scan = std::make_unique<plan::PhysScanVertex>();
  scan->vertex_label = person;
  scan->var = "a";
  auto expand = std::make_unique<plan::PhysExpand>();
  expand->edge_label = knows;
  expand->dir = graph::Direction::kOut;
  expand->from_var = "a";
  expand->to_var = "b";
  expand->edge_var = std::move(edge_var);
  expand->vertex_filter = std::move(vertex_filter);
  expand->use_index = use_index;
  expand->children.push_back(std::move(scan));
  return expand;
}

/// `birthday < d`, with d the tenth percentile of Person.birthday: passes
/// about 10% of the persons, independently of their row ids.
storage::ExprPtr TenthPercentileBirthday(Database* db) {
  auto person = db->catalog().GetTable("Person");
  if (!person.ok()) std::abort();
  const storage::Column* birthday = (*person)->FindColumn("birthday");
  std::vector<int64_t> days(birthday->data_int64(),
                            birthday->data_int64() + birthday->size());
  auto tenth = days.begin() + static_cast<std::ptrdiff_t>(days.size() / 10);
  std::nth_element(days.begin(), tenth, days.end());
  return storage::Expr::Compare(
      storage::CompareOp::kLt, storage::Expr::Column("birthday"),
      storage::Expr::Constant(Value::Date(static_cast<int32_t>(*tenth))));
}

void BM_ExpandIndexed(benchmark::State& state) {
  Database* db = SharedDb();
  auto plan = KnowsExpandPlan(db, true);
  for (auto _ : state) {
    auto ctx = MakeContext(db);
    auto result = exec::pipeline::Run(*plan, &ctx);
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    benchmark::DoNotOptimize((*result)->num_rows());
  }
}
BENCHMARK(BM_ExpandIndexed)->Unit(benchmark::kMillisecond);

void BM_ExpandIndexedEdge(benchmark::State& state) {
  Database* db = SharedDb();
  auto plan = KnowsExpandPlan(db, true, nullptr, "k");
  for (auto _ : state) {
    auto ctx = MakeContext(db);
    auto result = exec::pipeline::Run(*plan, &ctx);
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    benchmark::DoNotOptimize((*result)->num_rows());
  }
}
BENCHMARK(BM_ExpandIndexedEdge)->Unit(benchmark::kMillisecond);

/// The filtered expansion path over distinct sources (each filtered once),
/// with the edge binding (arg 1) or without (arg 0).
void BM_ExpandIndexedFiltered(benchmark::State& state) {
  Database* db = SharedDb();
  auto plan = KnowsExpandPlan(db, true, TenthPercentileBirthday(db),
                              state.range(0) != 0 ? "k" : "");
  for (auto _ : state) {
    auto ctx = MakeContext(db);
    auto result = exec::pipeline::Run(*plan, &ctx);
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    benchmark::DoNotOptimize((*result)->num_rows());
  }
}
BENCHMARK(BM_ExpandIndexedFiltered)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

/// SCAN_VERTEX a, EXPAND a -> b unfiltered, then b -> c with the birthday
/// filter: every person is a source of the filtered hop once per knows
/// edge into it, so its filtered run is memoized and copied on repeats.
void BM_ExpandIndexedFilteredTwoHop(benchmark::State& state) {
  Database* db = SharedDb();
  auto hop = std::make_unique<plan::PhysExpand>();
  hop->edge_label = db->mapping().FindEdgeLabel("knows");
  hop->dir = graph::Direction::kOut;
  hop->from_var = "b";
  hop->to_var = "c";
  hop->vertex_filter = TenthPercentileBirthday(db);
  hop->children.push_back(KnowsExpandPlan(db, true));
  for (auto _ : state) {
    auto ctx = MakeContext(db);
    auto result = exec::pipeline::Run(*hop, &ctx);
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    benchmark::DoNotOptimize((*result)->num_rows());
  }
}
BENCHMARK(BM_ExpandIndexedFilteredTwoHop)->Unit(benchmark::kMillisecond);

void BM_ExpandHash(benchmark::State& state) {
  Database* db = SharedDb();
  auto plan = KnowsExpandPlan(db, false);
  for (auto _ : state) {
    auto ctx = MakeContext(db);
    auto result = exec::pipeline::Run(*plan, &ctx);
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    benchmark::DoNotOptimize((*result)->num_rows());
  }
}
BENCHMARK(BM_ExpandHash)->Unit(benchmark::kMillisecond);

void BM_ExpandIntersectTriangle(benchmark::State& state) {
  Database* db = SharedDb();
  int knows = db->mapping().FindEdgeLabel("knows");
  auto base = KnowsExpandPlan(db, true);
  auto ei = std::make_unique<plan::PhysExpandIntersect>();
  ei->edge_labels = {knows, knows};
  ei->dirs = {graph::Direction::kOut, graph::Direction::kOut};
  ei->from_vars = {"a", "b"};
  ei->edge_vars = {"", ""};
  ei->to_var = "c";
  ei->children.push_back(std::move(base));
  for (auto _ : state) {
    auto ctx = MakeContext(db);
    auto result = exec::pipeline::Run(*ei, &ctx);
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    benchmark::DoNotOptimize((*result)->num_rows());
  }
}
BENCHMARK(BM_ExpandIntersectTriangle)->Unit(benchmark::kMillisecond);

void BM_TriangleViaExpandVerify(benchmark::State& state) {
  Database* db = SharedDb();
  int knows = db->mapping().FindEdgeLabel("knows");
  auto base = KnowsExpandPlan(db, true);
  auto expand = std::make_unique<plan::PhysExpand>();
  expand->edge_label = knows;
  expand->dir = graph::Direction::kOut;
  expand->from_var = "b";
  expand->to_var = "c";
  expand->children.push_back(std::move(base));
  auto verify = std::make_unique<plan::PhysEdgeVerify>();
  verify->edge_label = knows;
  verify->dir = graph::Direction::kOut;
  verify->src_var = "a";
  verify->dst_var = "c";
  verify->children.push_back(std::move(expand));
  for (auto _ : state) {
    auto ctx = MakeContext(db);
    auto result = exec::pipeline::Run(*verify, &ctx);
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    benchmark::DoNotOptimize((*result)->num_rows());
  }
}
BENCHMARK(BM_TriangleViaExpandVerify)->Unit(benchmark::kMillisecond);

void BM_PatternHashJoin(benchmark::State& state) {
  Database* db = SharedDb();
  for (auto _ : state) {
    auto left = KnowsExpandPlan(db, true);
    auto right = KnowsExpandPlan(db, true);
    // Rename right side vars to join on the shared "a".
    auto* right_expand = static_cast<plan::PhysExpand*>(right.get());
    right_expand->to_var = "c";
    auto join = std::make_unique<plan::PhysPatternJoin>();
    join->common_vars = {"a"};
    join->children.push_back(std::move(left));
    join->children.push_back(std::move(right));
    auto ctx = MakeContext(db);
    auto result = exec::pipeline::Run(*join, &ctx);
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    benchmark::DoNotOptimize((*result)->num_rows());
  }
}
BENCHMARK(BM_PatternHashJoin)->Unit(benchmark::kMillisecond);

void BM_NaiveMatchTriangle(benchmark::State& state) {
  Database* db = SharedDb();
  auto pattern = db->ParsePattern(
      "(a:Person)-[:knows]->(b:Person)-[:knows]->(c:Person), "
      "(a)-[:knows]->(c)");
  if (!pattern.ok()) {
    state.SkipWithError("pattern parse failed");
    return;
  }
  for (auto _ : state) {
    auto ctx = MakeContext(db);
    auto result = exec::NaiveMatch(*pattern, &ctx);
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    benchmark::DoNotOptimize((*result)->num_rows());
  }
}
BENCHMARK(BM_NaiveMatchTriangle)->Unit(benchmark::kMillisecond);

void BM_GloguBuild(benchmark::State& state) {
  Database* db = SharedDb();
  graph::GraphStats stats;
  (void)stats.Build(db->catalog(), db->mapping(), db->index());
  for (auto _ : state) {
    optimizer::Glogue glogue;
    Status st = glogue.Build(db->catalog(), db->mapping(), db->index(), stats,
                             {});
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
    benchmark::DoNotOptimize(glogue.size());
  }
}
BENCHMARK(BM_GloguBuild)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Kernel vs row-at-a-time microbenches (vectorized expression layer)
// ---------------------------------------------------------------------------

constexpr uint64_t kMicroRows = 1 << 20;

/// Fixed 1M-row table: two uniform int64 columns in [0, 100) (so an
/// `v < T` predicate has selectivity T%) and a small-domain string column.
const storage::Table& MicroTable() {
  static storage::TablePtr table = [] {
    std::mt19937 rng(7);
    std::uniform_int_distribution<int> pct(0, 99);
    const char* pool[] = {"alpha", "beta", "gamma", "delta", "omega"};
    auto t = std::make_shared<storage::Table>(
        "micro", storage::Schema({{"v", LogicalType::kInt64},
                                  {"w", LogicalType::kInt64},
                                  {"s", LogicalType::kString}}));
    for (size_t c = 0; c < 3; ++c) t->column(c).Reserve(kMicroRows);
    for (uint64_t r = 0; r < kMicroRows; ++r) {
      t->column(0).AppendInt(pct(rng));
      t->column(1).AppendInt(pct(rng));
      t->column(2).AppendString(pool[rng() % 5]);
    }
    t->FinishBulkAppend();
    return t;
  }();
  return *table;
}

storage::ExprPtr BoundMicroPredicate(storage::ExprPtr expr) {
  Status st = expr->Bind(MicroTable().schema());
  if (!st.ok()) std::abort();
  return expr;
}

std::vector<const storage::Column*> MicroColumns() {
  std::vector<const storage::Column*> cols;
  for (size_t c = 0; c < MicroTable().num_columns(); ++c) {
    cols.push_back(&MicroTable().column(c));
  }
  return cols;
}

/// `v < T` at T% selectivity, row-at-a-time oracle (the pre-kernel path).
void BM_FilterInt64RowLoop(benchmark::State& state) {
  auto expr = BoundMicroPredicate(storage::Expr::Compare(
      storage::CompareOp::kLt, storage::Expr::Column("v"),
      storage::Expr::Constant(Value::Int(state.range(0)))));
  auto cols = MicroColumns();
  std::vector<uint64_t> sel;
  sel.reserve(kMicroRows);
  for (auto _ : state) {
    sel.clear();
    for (uint64_t r = 0; r < kMicroRows; ++r) {
      if (expr->EvaluateBool(cols.data(), r)) sel.push_back(r);
    }
    benchmark::DoNotOptimize(sel.size());
  }
  state.counters["rows"] = static_cast<double>(sel.size());
}
BENCHMARK(BM_FilterInt64RowLoop)
    ->Arg(1)
    ->Arg(10)
    ->Arg(50)
    ->Arg(90)
    ->Unit(benchmark::kMillisecond);

/// Same predicate lowered to a typed kernel program.
void BM_FilterInt64Kernel(benchmark::State& state) {
  auto expr = BoundMicroPredicate(storage::Expr::Compare(
      storage::CompareOp::kLt, storage::Expr::Column("v"),
      storage::Expr::Constant(Value::Int(state.range(0)))));
  auto compiled =
      exec::vector::CompiledPredicate::Compile(*expr, MicroTable().schema());
  if (compiled == nullptr) {
    state.SkipWithError("predicate did not lower");
    return;
  }
  auto cols = MicroColumns();
  std::vector<uint64_t> sel;
  sel.reserve(kMicroRows);
  for (auto _ : state) {
    sel.clear();
    compiled->FilterRange(cols.data(), 0, kMicroRows, &sel);
    benchmark::DoNotOptimize(sel.size());
  }
  state.counters["rows"] = static_cast<double>(sel.size());
}
BENCHMARK(BM_FilterInt64Kernel)
    ->Arg(1)
    ->Arg(10)
    ->Arg(50)
    ->Arg(90)
    ->Unit(benchmark::kMillisecond);

/// String CONTAINS filter, row loop vs kernel (memmem-style inner loop).
void BM_FilterStringRowLoop(benchmark::State& state) {
  auto expr = BoundMicroPredicate(
      storage::Expr::Contains(storage::Expr::Column("s"), "amm"));
  auto cols = MicroColumns();
  std::vector<uint64_t> sel;
  sel.reserve(kMicroRows);
  for (auto _ : state) {
    sel.clear();
    for (uint64_t r = 0; r < kMicroRows; ++r) {
      if (expr->EvaluateBool(cols.data(), r)) sel.push_back(r);
    }
    benchmark::DoNotOptimize(sel.size());
  }
  state.counters["rows"] = static_cast<double>(sel.size());
}
BENCHMARK(BM_FilterStringRowLoop)->Unit(benchmark::kMillisecond);

void BM_FilterStringKernel(benchmark::State& state) {
  auto expr = BoundMicroPredicate(
      storage::Expr::Contains(storage::Expr::Column("s"), "amm"));
  auto compiled =
      exec::vector::CompiledPredicate::Compile(*expr, MicroTable().schema());
  if (compiled == nullptr) {
    state.SkipWithError("predicate did not lower");
    return;
  }
  auto cols = MicroColumns();
  std::vector<uint64_t> sel;
  sel.reserve(kMicroRows);
  for (auto _ : state) {
    sel.clear();
    compiled->FilterRange(cols.data(), 0, kMicroRows, &sel);
    benchmark::DoNotOptimize(sel.size());
  }
  state.counters["rows"] = static_cast<double>(sel.size());
}
BENCHMARK(BM_FilterStringKernel)->Unit(benchmark::kMillisecond);

/// Two-column join-key hashing: boxed Value::Hash per row (the pre-kernel
/// JoinHashTable path) vs the typed payload-span chain it uses now.
void BM_JoinKeyHashBoxed(benchmark::State& state) {
  const storage::Table& t = MicroTable();
  for (auto _ : state) {
    size_t acc = 0;
    for (uint64_t r = 0; r < kMicroRows; ++r) {
      size_t h = kHashSeed;
      h = HashCombine(h, t.GetValue(r, 0).Hash());
      h = HashCombine(h, t.GetValue(r, 1).Hash());
      acc ^= h;
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_JoinKeyHashBoxed)->Unit(benchmark::kMillisecond);

void BM_JoinKeyHashTyped(benchmark::State& state) {
  const storage::Table& t = MicroTable();
  const int64_t* keys[2] = {t.column(0).data_int64(),
                            t.column(1).data_int64()};
  for (auto _ : state) {
    size_t acc = 0;
    for (uint64_t r = 0; r < kMicroRows; ++r) {
      size_t h = kHashSeed;
      h = HashCombine(h, static_cast<size_t>(keys[0][r]));
      h = HashCombine(h, static_cast<size_t>(keys[1][r]));
      acc ^= h;
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_JoinKeyHashTyped)->Unit(benchmark::kMillisecond);

/// GROUP BY key build over (int64, string): boxed Value-vector key + hash
/// chain vs KeyEncoder's byte-encoded key (same hash, no boxing).
void BM_GroupKeyBuildBoxed(benchmark::State& state) {
  const storage::Table& t = MicroTable();
  for (auto _ : state) {
    size_t acc = 0;
    for (uint64_t r = 0; r < kMicroRows; ++r) {
      std::vector<Value> key;
      key.reserve(2);
      key.push_back(t.GetValue(r, 0));
      key.push_back(t.GetValue(r, 2));
      size_t h = kHashSeed;
      for (const Value& v : key) h = HashCombine(h, v.Hash());
      acc ^= h;
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_GroupKeyBuildBoxed)->Unit(benchmark::kMillisecond);

void BM_GroupKeyBuildEncoded(benchmark::State& state) {
  const storage::Table& t = MicroTable();
  auto encoder = exec::vector::KeyEncoder::Make(
      {LogicalType::kInt64, LogicalType::kString});
  if (encoder == nullptr) {
    state.SkipWithError("encoder unavailable");
    return;
  }
  const storage::Column* cols[2] = {&t.column(0), &t.column(2)};
  exec::vector::EncodedGroupKey key;
  for (auto _ : state) {
    size_t acc = 0;
    for (uint64_t r = 0; r < kMicroRows; ++r) {
      encoder->Encode(cols, r, &key);
      acc ^= key.hash;
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_GroupKeyBuildEncoded)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Dictionary-encoding microbenches (bench "operators_dict"): the same
// operation on the same data, payload bytes (a copy of the table with no
// dictionary) vs int32 dictionary codes.
// ---------------------------------------------------------------------------

/// 1M-row table whose string column draws from 64 same-length values
/// sharing a long common prefix (the worst case for byte-wise equality,
/// the shape LDBC attribute columns actually have); dictionary built.
const storage::Table& DictMicroTable() {
  static storage::TablePtr table = [] {
    std::mt19937 rng(23);
    std::vector<std::string> pool;
    for (int i = 0; i < 64; ++i) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "category_value_%03d", i);
      pool.push_back(buf);
    }
    auto t = std::make_shared<storage::Table>(
        "dict_micro", storage::Schema({{"s", LogicalType::kString}}));
    t->column(0).Reserve(kMicroRows);
    for (uint64_t r = 0; r < kMicroRows; ++r) {
      t->column(0).AppendString(pool[rng() % pool.size()]);
    }
    t->FinishBulkAppend();
    t->column(0).BuildDictionary();
    return t;
  }();
  return *table;
}

/// A copy of `table` whose columns carry no dictionary: the payload leg of
/// each dictionary microbench runs over it.
storage::TablePtr WithoutDictionaries(const storage::Table& table) {
  auto copy = std::make_shared<storage::Table>(table.name(), table.schema());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    copy->column(c).AppendRange(table.column(c), 0, table.num_rows());
    copy->column(c).DropDictionary();
  }
  copy->FinishBulkAppend();
  return copy;
}

/// DictMicroTable() with (`dict`) or without its dictionary.
const storage::Table& DictMicroTable(bool dict) {
  static storage::TablePtr plain = WithoutDictionaries(DictMicroTable());
  return dict ? DictMicroTable() : *plain;
}

/// String-equality filter: payload byte-compare kernel vs the int32
/// code-compare kernel (constant translated to a code at compile time).
void DictFilterStringEq(benchmark::State& state, bool dict) {
  const storage::Table& t = DictMicroTable(dict);
  auto expr = storage::Expr::Compare(
      storage::CompareOp::kEq, storage::Expr::Column("s"),
      storage::Expr::Constant(Value::String("category_value_031")));
  if (!expr->Bind(t.schema()).ok()) {
    state.SkipWithError("bind failed");
    return;
  }
  auto compiled =
      exec::vector::CompiledPredicate::Compile(*expr, t.schema(), &t);
  if (compiled == nullptr) {
    state.SkipWithError("predicate did not lower");
    return;
  }
  const storage::Column* cols[1] = {&t.column(0)};
  std::vector<uint64_t> sel;
  sel.reserve(kMicroRows);
  for (auto _ : state) {
    sel.clear();
    compiled->FilterRange(cols, 0, kMicroRows, &sel);
    benchmark::DoNotOptimize(sel.size());
  }
  state.counters["rows"] = static_cast<double>(sel.size());
}
void BM_DictFilterStringEqPayload(benchmark::State& state) {
  DictFilterStringEq(state, false);
}
void BM_DictFilterStringEqDict(benchmark::State& state) {
  DictFilterStringEq(state, true);
}
BENCHMARK(BM_DictFilterStringEqPayload)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DictFilterStringEqDict)->Unit(benchmark::kMillisecond);

/// Build side (100K unique string keys, dictionary built) and a 1M-row
/// probe side derived from it, so the probe column shares the build
/// dictionary — the planner-join shape after a base-table scan.
struct DictJoinData {
  storage::TablePtr build;
  storage::TablePtr probe;
  storage::TablePtr plain_build;  ///< `build` without its dictionary
};

const DictJoinData& DictJoinTables() {
  static DictJoinData data = [] {
    constexpr uint64_t kBuildRows = 100'000;
    DictJoinData d;
    d.build = std::make_shared<storage::Table>(
        "dict_build", storage::Schema({{"k", LogicalType::kString}}));
    d.build->column(0).Reserve(kBuildRows);
    for (uint64_t r = 0; r < kBuildRows; ++r) {
      // Email-shaped keys (shared prefix AND suffix): string join keys
      // in the wild are long, and byte-wise hash + compare pays for
      // every byte — exactly what code-valued keys sidestep.
      char buf[48];
      std::snprintf(buf, sizeof(buf), "person_email_%06llu@example.org",
                    static_cast<unsigned long long>(r));
      d.build->column(0).AppendString(buf);
    }
    d.build->FinishBulkAppend();
    d.build->column(0).BuildDictionary();
    d.probe = std::make_shared<storage::Table>(
        "dict_probe", storage::Schema({{"k", LogicalType::kString}}));
    std::mt19937 rng(29);
    d.probe->column(0).Reserve(kMicroRows);
    for (uint64_t r = 0; r < kMicroRows; ++r) {
      d.probe->column(0).AppendFrom(d.build->column(0), rng() % kBuildRows);
    }
    d.probe->FinishBulkAppend();
    d.plain_build = WithoutDictionaries(*d.build);
    return d;
  }();
  return data;
}

/// String join-key hash probe: byte hashing + memcmp on the payload path
/// vs int64 code hashing + int32 compare on the dictionary path.
void DictJoinProbeString(benchmark::State& state, bool dict) {
  const DictJoinData& d = DictJoinTables();
  exec::JoinHashTable ht;
  Status st = ht.Build(dict ? *d.build : *d.plain_build, {"k"});
  if (!st.ok()) {
    state.SkipWithError(st.ToString().c_str());
    return;
  }
  exec::JoinHashTable::ProbeView view;
  st = ht.BindProbe(*d.probe, {0}, &view);
  if (!st.ok()) {
    state.SkipWithError(st.ToString().c_str());
    return;
  }
  std::vector<uint64_t> matches;
  for (auto _ : state) {
    uint64_t hits = 0;
    for (uint64_t r = 0; r < kMicroRows; ++r) {
      matches.clear();
      ht.Probe(view, r, &matches);
      hits += matches.size();
    }
    benchmark::DoNotOptimize(hits);
  }
}
void BM_DictJoinProbeStringPayload(benchmark::State& state) {
  DictJoinProbeString(state, false);
}
void BM_DictJoinProbeStringDict(benchmark::State& state) {
  DictJoinProbeString(state, true);
}
BENCHMARK(BM_DictJoinProbeStringPayload)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DictJoinProbeStringDict)->Unit(benchmark::kMillisecond);

/// GROUP BY key build over a dictionary string column: length-prefixed
/// byte append + byte hash vs fixed32 code append + int64 hash.
void DictGroupKeyString(benchmark::State& state, bool dict) {
  const storage::Table& t = DictMicroTable(dict);
  auto encoder = exec::vector::KeyEncoder::Make({LogicalType::kString});
  if (encoder == nullptr) {
    state.SkipWithError("encoder unavailable");
    return;
  }
  const storage::Column* cols[1] = {&t.column(0)};
  exec::vector::EncodedGroupKey key;
  for (auto _ : state) {
    size_t acc = 0;
    for (uint64_t r = 0; r < kMicroRows; ++r) {
      encoder->Encode(cols, r, &key);
      acc ^= key.hash;
    }
    benchmark::DoNotOptimize(acc);
  }
}
void BM_DictGroupKeyStringPayload(benchmark::State& state) {
  DictGroupKeyString(state, false);
}
void BM_DictGroupKeyStringDict(benchmark::State& state) {
  DictGroupKeyString(state, true);
}
BENCHMARK(BM_DictGroupKeyStringPayload)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DictGroupKeyStringDict)->Unit(benchmark::kMillisecond);

/// Join hash-table build over an int64 FK-like key (uniform in
/// [0, rows / 4), so keys repeat), through the two phases HashBuildSink
/// runs: morsel-parallel PartitionRows, then partition-parallel
/// FinalizePartition on a shared pool. Args: build rows, workers. The 4k
/// build matches the join tables the end-to-end benchmark rebuilds per
/// query (it stays on the scheduler's inline path even at 4 workers); the
/// 1M build is a large parallel build that benchmark never runs.
void BM_HashBuild(benchmark::State& state) {
  const auto rows = static_cast<uint64_t>(state.range(0));
  const int workers = static_cast<int>(state.range(1));
  static std::map<uint64_t, storage::TablePtr> tables;
  storage::TablePtr& table = tables[rows];
  if (table == nullptr) {
    std::mt19937 rng(11);
    table = std::make_shared<storage::Table>(
        "build", storage::Schema({{"k", LogicalType::kInt64}}));
    table->column(0).Reserve(rows);
    for (uint64_t r = 0; r < rows; ++r) {
      table->column(0).AppendInt(static_cast<int64_t>(rng() % (rows / 4)));
    }
    table->FinishBulkAppend();
  }
  static exec::pipeline::TaskScheduler scheduler;
  const std::vector<std::string> keys = {"k"};
  for (auto _ : state) {
    exec::JoinHashTable ht;
    Status st = ht.BeginBuild(*table, keys);
    if (st.ok()) {
      st = scheduler.Run(ht.num_morsels(), workers, [&](int, uint64_t m) {
        ht.PartitionRows(m);
        return Status::OK();
      });
    }
    if (st.ok()) {
      st = scheduler.Run(exec::JoinHashTable::kNumPartitions, workers,
                         [&](int, uint64_t p) {
                           ht.FinalizePartition(static_cast<size_t>(p));
                           return Status::OK();
                         });
    }
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(&ht);
    benchmark::ClobberMemory();
  }
  state.counters["rows"] = static_cast<double>(rows);
  state.counters["workers"] = workers;
}
BENCHMARK(BM_HashBuild)
    ->Args({4096, 1})
    ->Args({4096, 4})
    ->Args({1 << 20, 1})
    ->Args({1 << 20, 4})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// Forwards finished kernel-vs-row runs into BENCH_pipeline.json (bench
/// "operators_kernel") and remembers per-benchmark timings so main() can
/// print the row/kernel speedup table the acceptance bar reads.
class KernelJsonReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      std::string name = run.benchmark_name();
      const bool dict_bench = name.rfind("BM_Dict", 0) == 0;
      const bool build_bench = name.rfind("BM_HashBuild", 0) == 0;
      if (!dict_bench && !build_bench && name.rfind("BM_Filter", 0) != 0 &&
          name.rfind("BM_JoinKey", 0) != 0 &&
          name.rfind("BM_GroupKey", 0) != 0) {
        continue;
      }
      double ms =
          run.real_accumulated_time / std::max<int64_t>(run.iterations, 1) *
          1e3;
      ms_by_name_[name] = ms;
      bench::BenchRecord rec;
      rec.bench = dict_bench    ? "operators_dict"
                  : build_bench ? "operators_hash_build"
                                : "operators_kernel";
      rec.workload = "micro";
      rec.scale = 0.0;
      rec.query = name;
      auto workers = run.counters.find("workers");
      rec.threads = workers == run.counters.end()
                        ? 1
                        : static_cast<int>(workers->second.value);
      if (build_bench) {
        rec.mode = "flat";
      } else if (dict_bench) {
        rec.mode = name.find("Payload") != std::string::npos ? "payload"
                                                             : "dict";
      } else {
        rec.mode = (name.find("RowLoop") != std::string::npos ||
                    name.find("Boxed") != std::string::npos)
                       ? "row"
                       : "kernel";
      }
      rec.engine = "pipeline";
      rec.execution_ms = ms;
      auto rows = run.counters.find("rows");
      rec.rows = rows == run.counters.end()
                     ? kMicroRows
                     : static_cast<uint64_t>(rows->second.value);
      rec.status = "ok";
      bench::BenchJson::Global().Add(std::move(rec));
    }
  }

  /// Prints kernel-vs-row speedups for every (row, kernel) name pair.
  void PrintSpeedups() const {
    const char* pairs[][2] = {
        {"BM_FilterInt64RowLoop", "BM_FilterInt64Kernel"},
        {"BM_FilterStringRowLoop", "BM_FilterStringKernel"},
        {"BM_JoinKeyHashBoxed", "BM_JoinKeyHashTyped"},
        {"BM_GroupKeyBuildBoxed", "BM_GroupKeyBuildEncoded"},
        {"BM_DictFilterStringEqPayload", "BM_DictFilterStringEqDict"},
        {"BM_DictJoinProbeStringPayload", "BM_DictJoinProbeStringDict"},
        {"BM_DictGroupKeyStringPayload", "BM_DictGroupKeyStringDict"},
    };
    std::printf("\nkernel-vs-row speedups (1M rows)\n");
    for (const auto& pair : pairs) {
      for (const auto& [name, row_ms] : ms_by_name_) {
        if (name.rfind(pair[0], 0) != 0) continue;
        std::string kernel_name = pair[1] + name.substr(strlen(pair[0]));
        auto it = ms_by_name_.find(kernel_name);
        if (it == ms_by_name_.end() || it->second <= 0.0) continue;
        std::printf("  %-28s %8.3f ms -> %8.3f ms  (%.2fx)\n",
                    kernel_name.c_str(), row_ms, it->second,
                    row_ms / it->second);
      }
    }
  }

 private:
  std::map<std::string, double> ms_by_name_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  KernelJsonReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  reporter.PrintSpeedups();
  relgo::bench::BenchJson::Global().Write();
  return 0;
}
