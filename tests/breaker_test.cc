// Tests of the parallel breakers: the in-pipeline TopKSink (ORDER BY /
// LIMIT / top-k replacing the materializing post-op path) and the
// partition-parallel JoinHashTable build. The materializing executor is
// the oracle throughout; parity is asserted on EXACT row order (not just
// bags), across 1/2/4 threads, because the morsel-ordered tie-break is
// part of the engine contract.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.h"
#include "exec/executor.h"
#include "exec/join_hash_table.h"
#include "exec/pipeline/engine.h"
#include "fixtures.h"

namespace relgo {
namespace {

using exec::ExecutionContext;
using exec::ExecutionOptions;
using exec::Executor;
using exec::JoinHashTable;
using storage::ColumnDef;
using storage::Expr;
using storage::Schema;

/// Rows of `t` rendered in table order (order-sensitive, unlike
/// testing::SortedRows).
std::vector<std::string> RowsInOrder(const storage::Table& t) {
  std::vector<std::string> rows;
  for (uint64_t r = 0; r < t.num_rows(); ++r) {
    std::string row;
    for (size_t c = 0; c < t.num_columns(); ++c) {
      if (c) row += "|";
      row += t.GetValue(r, c).ToString();
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

/// Builds `ht` over `table` the way HashBuildSink does, with `workers`
/// threads per phase: worker w hashes morsels w, w + workers, ... (highest
/// first, so claim order differs from row order), then links partitions
/// w, w + workers, ...
Status BuildOnWorkers(const storage::Table& table,
                      const std::vector<std::string>& keys, int workers,
                      JoinHashTable* ht) {
  RELGO_RETURN_NOT_OK(ht->BeginBuild(table, keys));
  auto run = [workers](uint64_t tasks, const auto& fn) {
    std::vector<std::thread> threads;
    for (int w = 0; w < workers; ++w) {
      threads.emplace_back([=, &fn] {
        for (uint64_t t = tasks; t-- > 0;) {
          if (t % workers == static_cast<uint64_t>(w)) fn(t);
        }
      });
    }
    for (auto& t : threads) t.join();
  };
  run(ht->num_morsels(), [ht](uint64_t m) { ht->PartitionRows(m); });
  run(JoinHashTable::kNumPartitions,
      [ht](uint64_t p) { ht->FinalizePartition(p); });
  return Status::OK();
}

/// A database whose "Item" table spans several morsels (kBatchRows = 2048)
/// with heavily duplicated sort keys, so the parallel breakers actually
/// fan out and tie-breaking is exercised at every chunk boundary.
class BreakerTest : public ::testing::Test {
 protected:
  static constexpr int64_t kItems = 6000;

  void SetUp() override {
    auto item = db_.CreateTable(
        "Item", Schema({ColumnDef{"id", LogicalType::kInt64},
                        ColumnDef{"grp", LogicalType::kInt64},
                        ColumnDef{"val", LogicalType::kInt64}}));
    ASSERT_TRUE(item.ok());
    auto grp_info = db_.CreateTable(
        "GrpInfo", Schema({ColumnDef{"gid", LogicalType::kInt64},
                           ColumnDef{"weight", LogicalType::kInt64}}));
    ASSERT_TRUE(grp_info.ok());
    for (int64_t i = 0; i < kItems; ++i) {
      // grp has only 7 distinct values (massive duplication); val has 97.
      ASSERT_TRUE((*item)
                      ->AppendRow({Value::Int(i), Value::Int(i % 7),
                                   Value::Int((i * 131) % 97)})
                      .ok());
    }
    // GrpInfo holds duplicate join keys too: three rows per gid.
    for (int64_t g = 0; g < 7; ++g) {
      for (int64_t dup = 0; dup < 3; ++dup) {
        ASSERT_TRUE(
            (*grp_info)
                ->AppendRow({Value::Int(g), Value::Int(g * 10 + dup)})
                .ok());
      }
    }
  }

  /// Oracle run + pipeline runs at 1/2/4 threads, asserting exact row
  /// order equality (and optionally row-budget charge parity).
  void ExpectExactParity(const plan::PhysicalOp& op,
                         bool check_charges = true) {
    ExecutionContext oracle_ctx(&db_.catalog(), &db_.mapping(), &db_.index());
    auto oracle = Executor::Run(op, &oracle_ctx);
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
    for (int threads : {1, 2, 4}) {
      ExecutionOptions options;
      options.engine = exec::EngineKind::kPipeline;
      options.num_threads = threads;
      ExecutionContext ctx(&db_.catalog(), &db_.mapping(), &db_.index(),
                           options);
      auto piped = exec::pipeline::Run(op, &ctx);
      ASSERT_TRUE(piped.ok())
          << "threads=" << threads << ": " << piped.status().ToString();
      EXPECT_EQ(RowsInOrder(**piped), RowsInOrder(**oracle))
          << "threads=" << threads;
      if (check_charges) {
        EXPECT_EQ(ctx.rows_produced(), oracle_ctx.rows_produced())
            << "row-budget charging diverged at threads=" << threads;
      }
    }
  }

  static std::unique_ptr<plan::PhysScanTable> ScanItems() {
    auto scan = std::make_unique<plan::PhysScanTable>();
    scan->table = "Item";
    scan->alias = "i";
    return scan;
  }

  static std::unique_ptr<plan::PhysOrderBy> OrderBy(
      plan::PhysicalOpPtr child, std::vector<plan::SortKey> keys) {
    auto order = std::make_unique<plan::PhysOrderBy>();
    order->keys = std::move(keys);
    order->children.push_back(std::move(child));
    return order;
  }

  static std::unique_ptr<plan::PhysLimit> Limit(plan::PhysicalOpPtr child,
                                                int64_t k) {
    auto limit = std::make_unique<plan::PhysLimit>();
    limit->limit = k;
    limit->children.push_back(std::move(child));
    return limit;
  }

  Database db_;
};

// ---------------------------------------------------------------------------
// TopKSink
// ---------------------------------------------------------------------------

TEST_F(BreakerTest, OrderByWithoutLimitIsStableAcrossThreads) {
  // 6000 rows, 7 distinct keys: the parallel-merge sort must reproduce the
  // oracle's stable sort (ties resolved by original scan order) exactly.
  auto plan = OrderBy(ScanItems(), {{"i.grp", true}});
  ExpectExactParity(*plan);
}

TEST_F(BreakerTest, OrderByDescendingMultiKey) {
  auto plan = OrderBy(ScanItems(), {{"i.grp", false}, {"i.val", true}});
  ExpectExactParity(*plan);
}

TEST_F(BreakerTest, TopKWithDuplicateKeysMatchesStableSort) {
  // The cut at k = 100 lands inside a run of duplicate grp values; the
  // bounded per-worker heaps must keep exactly the rows the oracle's
  // stable sort keeps.
  auto plan = Limit(OrderBy(ScanItems(), {{"i.grp", true}}), 100);
  ExpectExactParity(*plan);
}

TEST_F(BreakerTest, TopKDescendingWithValTies) {
  auto plan =
      Limit(OrderBy(ScanItems(), {{"i.val", false}, {"i.grp", true}}), 37);
  ExpectExactParity(*plan);
}

TEST_F(BreakerTest, LimitLargerThanResultPassesEverythingThrough) {
  auto filtered = ScanItems();
  filtered->filter = Expr::Eq("id", Value::Int(17));
  auto plan = Limit(OrderBy(std::move(filtered), {{"i.val", true}}),
                    /*k=*/1000);
  ExpectExactParity(*plan);
}

TEST_F(BreakerTest, PlainLimitLargerThanResult) {
  auto plan = Limit(ScanItems(), kItems * 2);
  ExpectExactParity(*plan);
}

TEST_F(BreakerTest, LimitZeroYieldsEmptyResult) {
  // Plain LIMIT 0 early-exits before emitting a single morsel, so its
  // row-budget charges are legitimately lower than the oracle's full scan.
  ExpectExactParity(*Limit(ScanItems(), 0), /*check_charges=*/false);
  ExpectExactParity(*Limit(OrderBy(ScanItems(), {{"i.grp", true}}), 0));
}

TEST_F(BreakerTest, PlainLimitTakesFirstKInScanOrder) {
  // The early-exit path (profiling off) must still return exactly the
  // first k rows of the sequential scan order; row-budget charges may
  // legitimately differ (skipped morsels), so they are not compared.
  auto plan = Limit(ScanItems(), 100);
  ExpectExactParity(*plan, /*check_charges=*/false);
}

TEST_F(BreakerTest, TopKOverEmptyInput) {
  auto filtered = ScanItems();
  filtered->filter = Expr::Eq("id", Value::Int(-1));
  auto plan = Limit(OrderBy(std::move(filtered), {{"i.grp", true}}), 5);
  ExpectExactParity(*plan);
}

// ---------------------------------------------------------------------------
// Partition-parallel hash-join build
// ---------------------------------------------------------------------------

TEST_F(BreakerTest, TwoPhaseBuildMatchesSerialBuild) {
  auto table = *db_.catalog().GetTable("Item");
  std::vector<std::string> keys = {"grp"};

  JoinHashTable serial;
  ASSERT_TRUE(serial.Build(*table, keys).ok());

  // Every key must probe to the identical match vector — same rows, same
  // order (chain order is part of the engine-parity contract) — however
  // the phases were spread across workers.
  auto probe_keys = *db_.catalog().GetTable("GrpInfo");
  std::vector<size_t> probe_cols = {0};  // gid
  for (int workers : {2, 4}) {
    JoinHashTable parallel;
    ASSERT_TRUE(BuildOnWorkers(*table, keys, workers, &parallel).ok());
    for (uint64_t r = 0; r < probe_keys->num_rows(); ++r) {
      std::vector<uint64_t> expect, actual;
      serial.Probe(*probe_keys, probe_cols, r, &expect);
      parallel.Probe(*probe_keys, probe_cols, r, &actual);
      EXPECT_EQ(actual, expect) << "probe row " << r << " workers=" << workers;
      EXPECT_FALSE(expect.empty());  // every gid exists in Item.grp
    }
  }
}

TEST_F(BreakerTest, ParallelBuildJoinExactParity) {
  // Multi-morsel probe side (6000 rows) against a duplicated-key build
  // side: output must match the oracle row-for-row, including the order of
  // duplicate build matches per probe row.
  auto make_plan = [this]() {
    auto build = std::make_unique<plan::PhysScanTable>();
    build->table = "GrpInfo";
    build->alias = "g";
    auto join = std::make_unique<plan::PhysHashJoin>();
    join->left_keys = {"i.grp"};
    join->right_keys = {"g.gid"};
    join->children.push_back(ScanItems());
    join->children.push_back(std::move(build));
    return join;
  };
  ExpectExactParity(*make_plan());
}

TEST_F(BreakerTest, EmptyBuildSideYieldsEmptyJoin) {
  auto build = std::make_unique<plan::PhysScanTable>();
  build->table = "GrpInfo";
  build->alias = "g";
  build->filter = Expr::Eq("gid", Value::Int(-42));  // matches nothing
  auto join = std::make_unique<plan::PhysHashJoin>();
  join->left_keys = {"i.grp"};
  join->right_keys = {"g.gid"};
  join->children.push_back(ScanItems());
  join->children.push_back(std::move(build));
  ExpectExactParity(*join);
}

TEST_F(BreakerTest, TopKAboveParallelBuildJoin) {
  // The full tentpole in one plan: parallel build below, top-k sink above.
  auto build = std::make_unique<plan::PhysScanTable>();
  build->table = "GrpInfo";
  build->alias = "g";
  auto join = std::make_unique<plan::PhysHashJoin>();
  join->left_keys = {"i.grp"};
  join->right_keys = {"g.gid"};
  join->children.push_back(ScanItems());
  join->children.push_back(std::move(build));
  auto plan = Limit(
      OrderBy(std::move(join), {{"g.weight", false}, {"i.id", true}}), 25);
  ExpectExactParity(*plan);
}

TEST_F(BreakerTest, ProfiledTopKRecordsSortAndBuildTimes) {
  // The breaker satellites: QueryProfile must carry sort/build wall time
  // and both fused nodes' actual row counts.
  auto build = std::make_unique<plan::PhysScanTable>();
  build->table = "GrpInfo";
  build->alias = "g";
  auto join = std::make_unique<plan::PhysHashJoin>();
  join->left_keys = {"i.grp"};
  join->right_keys = {"g.gid"};
  join->children.push_back(ScanItems());
  join->children.push_back(std::move(build));
  const plan::PhysicalOp* join_node = join.get();
  auto order = OrderBy(std::move(join), {{"i.id", false}});
  const plan::PhysicalOp* order_node = order.get();
  auto plan = Limit(std::move(order), 10);

  ExecutionOptions options;
  options.engine = exec::EngineKind::kPipeline;
  options.num_threads = 4;
  ExecutionContext ctx(&db_.catalog(), &db_.mapping(), &db_.index(), options);
  exec::QueryProfile profile;
  ctx.EnableProfiling(&profile);
  auto result = exec::pipeline::Run(*plan, &ctx);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ((*result)->num_rows(), 10u);

  EXPECT_GT(profile.build_ms(), 0.0);
  EXPECT_GT(profile.sort_ms(), 0.0);
  const exec::OperatorProfile* order_prof = profile.Find(order_node);
  ASSERT_NE(order_prof, nullptr);
  EXPECT_EQ(order_prof->rows_out, kItems * 3u);  // 3 GrpInfo rows per item
  const exec::OperatorProfile* limit_prof = profile.Find(plan.get());
  ASSERT_NE(limit_prof, nullptr);
  EXPECT_EQ(limit_prof->rows_out, 10u);
  const exec::OperatorProfile* join_prof = profile.Find(join_node);
  ASSERT_NE(join_prof, nullptr);
  EXPECT_EQ(join_prof->rows_out, kItems * 3u);
}

// ---------------------------------------------------------------------------
// JoinHashTable against a std::multimap oracle
// ---------------------------------------------------------------------------

/// The oracle's key of row `r`: one tagged string per key column, or
/// nothing when a key is NULL (SQL equality: NULL matches no row).
std::optional<std::vector<std::string>> OracleKey(
    const storage::Table& t, const std::vector<size_t>& cols, uint64_t r) {
  std::vector<std::string> key;
  for (size_t c : cols) {
    const storage::Column& col = t.column(c);
    if (!col.is_valid(r)) return std::nullopt;
    key.push_back(col.type() == LogicalType::kInt64
                      ? "i" + std::to_string(col.int_at(r))
                      : "s" + col.string_at(r));
  }
  return key;
}

/// Builds the hash table over `build` at 1, 2 and 4 workers and checks
/// every row of `probe` against a multimap built here. A multimap keeps
/// equal keys in insertion order, so its matches are in ascending build
/// row order — the order the chains must reproduce. All-int64 key sets
/// also go through the Table and typed-span Probe overloads.
void ExpectProbesMatchOracle(const storage::Table& build,
                             const std::vector<std::string>& build_keys,
                             const storage::Table& probe,
                             const std::vector<size_t>& probe_cols) {
  std::vector<size_t> build_cols;
  bool all_int64 = true;
  for (const auto& k : build_keys) {
    build_cols.push_back(*build.schema().GetColumnIndex(k));
    all_int64 &= build.column(build_cols.back()).type() == LogicalType::kInt64;
  }
  std::multimap<std::vector<std::string>, uint64_t> oracle;
  for (uint64_t r = 0; r < build.num_rows(); ++r) {
    if (auto key = OracleKey(build, build_cols, r)) oracle.emplace(*key, r);
  }
  for (int workers : {1, 2, 4}) {
    JoinHashTable ht;
    ASSERT_TRUE(BuildOnWorkers(build, build_keys, workers, &ht).ok());
    JoinHashTable::ProbeView view;
    ASSERT_TRUE(ht.BindProbe(probe, probe_cols, &view).ok());
    std::vector<const int64_t*> spans;
    if (all_int64) {
      for (size_t c : probe_cols) spans.push_back(probe.column(c).data_int64());
    }
    uint64_t hits = 0;
    for (uint64_t r = 0; r < probe.num_rows(); ++r) {
      std::vector<uint64_t> expect;
      auto key = OracleKey(probe, probe_cols, r);
      if (key) {
        auto range = oracle.equal_range(*key);
        for (auto it = range.first; it != range.second; ++it) {
          expect.push_back(it->second);
        }
      }
      hits += expect.size();
      std::vector<uint64_t> got;
      ht.Probe(view, r, &got);
      EXPECT_EQ(got, expect) << "view probe row " << r
                             << " workers=" << workers;
      if (!all_int64) continue;
      got.clear();
      ht.Probe(probe, probe_cols, r, &got);
      EXPECT_EQ(got, expect) << "table probe row " << r;
      if (!key) continue;  // the span overload leaves NULLs to the caller
      got.clear();
      ht.Probe(spans.data(), r, &got);
      EXPECT_EQ(got, expect) << "span probe row " << r;
    }
    if (build.num_rows() > 0) {
      EXPECT_GT(hits, 0u);
    }
  }
}

/// A table of the given key columns, filled row by row from `row(r)`.
storage::TablePtr KeyTable(const std::vector<ColumnDef>& defs, uint64_t n,
                           const std::function<std::vector<Value>(uint64_t)>&
                               row) {
  auto t = std::make_shared<storage::Table>("keys", Schema(defs));
  for (uint64_t r = 0; r < n; ++r) EXPECT_TRUE(t->AppendRow(row(r)).ok());
  return t;
}

// 5000 build rows: two full morsels plus a partial one (kBatchRows = 2048).
constexpr uint64_t kOracleRows = 5000;

TEST(JoinHashTableTest, DuplicateKeyChainsAreAscendingAcrossMorsels) {
  // Key 1 holds 4000 rows spread over all three morsels; keys 2..4 share
  // the rest; every 97th row is NULL.
  auto build = KeyTable({{"k", LogicalType::kInt64}}, kOracleRows,
                        [](uint64_t r) -> std::vector<Value> {
                          if (r % 97 == 5) return {Value::Null()};
                          return {Value::Int(r % 5 == 0 ? 2 + r % 3 : 1)};
                        });
  auto probe = KeyTable({{"k", LogicalType::kInt64}}, 8,
                        [](uint64_t r) -> std::vector<Value> {
                          if (r == 7) return {Value::Null()};
                          return {Value::Int(static_cast<int64_t>(r))};
                        });
  ExpectProbesMatchOracle(*build, {"k"}, *probe, {0});

  JoinHashTable ht;
  ASSERT_TRUE(BuildOnWorkers(*build, {"k"}, 4, &ht).ok());
  std::vector<uint64_t> rows;
  ht.Probe(*probe, {0}, 1, &rows);
  EXPECT_GT(rows.size(), 3900u);
  EXPECT_TRUE(std::is_sorted(rows.begin(), rows.end()));
  EXPECT_GE(rows.back(), 2 * exec::pipeline::kBatchRows);
}

TEST(JoinHashTableTest, DistinctKeysSharingBucketsAndMissesOnOccupiedBuckets) {
  // Pairs of keys whose hashes agree on the low 20 bits share a bucket in
  // any table of at most 2^20 buckets (this one has far fewer). The build
  // side holds both keys of even pairs and only the first key of odd
  // pairs, so probing an odd pair's second key misses an occupied bucket.
  constexpr size_t kLowBits = (size_t{1} << 20) - 1;
  std::map<size_t, int64_t> first_by_bits;
  std::vector<std::pair<int64_t, int64_t>> pairs;
  for (int64_t k = 0; pairs.size() < 200; ++k) {
    size_t bits = HashCombine(kHashSeed, static_cast<size_t>(k)) & kLowBits;
    auto [it, fresh] = first_by_bits.emplace(bits, k);
    if (!fresh) {
      pairs.emplace_back(it->second, k);
      first_by_bits.erase(it);
    }
  }
  std::vector<int64_t> build_keys, probe_keys;
  for (size_t i = 0; i < pairs.size(); ++i) {
    build_keys.push_back(pairs[i].first);
    if (i % 2 == 0) build_keys.push_back(pairs[i].second);
    probe_keys.push_back(pairs[i].first);
    probe_keys.push_back(pairs[i].second);
  }
  // Repeat the key list past several morsels so chains interleave keys.
  auto build = KeyTable({{"k", LogicalType::kInt64}}, kOracleRows,
                        [&](uint64_t r) -> std::vector<Value> {
                          int64_t k = build_keys[r % build_keys.size()];
                          return {Value::Int(k)};
                        });
  auto probe = KeyTable({{"k", LogicalType::kInt64}}, probe_keys.size(),
                        [&](uint64_t r) -> std::vector<Value> {
                          return {Value::Int(probe_keys[r])};
                        });
  ExpectProbesMatchOracle(*build, {"k"}, *probe, {0});
}

TEST(JoinHashTableTest, TwoColumnKeys) {
  auto row = [](uint64_t r) -> std::vector<Value> {
    Value a = Value::Int(static_cast<int64_t>(r % 7));
    Value b = r % 89 == 3 ? Value::Null()
                          : Value::Int(static_cast<int64_t>(r % 11));
    return {a, b};
  };
  std::vector<ColumnDef> defs = {{"a", LogicalType::kInt64},
                                 {"b", LogicalType::kInt64}};
  auto build = KeyTable(defs, kOracleRows, row);
  // Probe (a, b) pairs in [0, 9) x [0, 13): hits, misses and NULLs.
  auto probe =
      KeyTable(defs, 9 * 13 + 1, [](uint64_t r) -> std::vector<Value> {
        if (r == 9 * 13) return {Value::Int(0), Value::Null()};
        return {Value::Int(static_cast<int64_t>(r / 13)),
                Value::Int(static_cast<int64_t>(r % 13))};
      });
  ExpectProbesMatchOracle(*build, {"a", "b"}, *probe, {0, 1});
  // The key order may differ between the two sides' schemas.
  ExpectProbesMatchOracle(*build, {"b", "a"}, *probe, {1, 0});
}

TEST(JoinHashTableTest, StringKeysWithAndWithoutDictionary) {
  const std::vector<std::string> words = {"", "ada", "bob", "cid", "dee"};
  auto row = [&](uint64_t r) -> std::vector<Value> {
    if (r % 13 == 6) return {Value::Null(), Value::Int(0)};
    return {Value::String(words[r % words.size()]),
            Value::Int(static_cast<int64_t>(r % 3))};
  };
  std::vector<ColumnDef> defs = {{"s", LogicalType::kString},
                                 {"i", LogicalType::kInt64}};
  auto plain = KeyTable(defs, kOracleRows, row);
  auto dict = KeyTable(defs, kOracleRows, row);
  dict->column(0).BuildDictionary();
  ASSERT_NE(dict->column(0).dictionary(), nullptr);
  // Probe sides: rows sharing the build dictionary (a copy of its first
  // rows adopts it) and plain strings including ones absent from the build.
  auto shared = std::make_shared<storage::Table>("shared", Schema(defs));
  for (size_t c = 0; c < defs.size(); ++c) {
    shared->column(c).AppendRange(dict->column(c), 0, 20);
  }
  shared->FinishBulkAppend();
  ASSERT_EQ(shared->column(0).dictionary(), dict->column(0).dictionary());
  auto probe = KeyTable(defs, 16, [&](uint64_t r) -> std::vector<Value> {
    if (r == 15) return {Value::Null(), Value::Int(0)};
    std::string s =
        r < 10 ? words[r % words.size()] : "zed" + std::to_string(r);
    return {Value::String(s), Value::Int(static_cast<int64_t>(r % 3))};
  });
  for (const auto& build : {plain, dict}) {
    ExpectProbesMatchOracle(*build, {"s"}, *probe, {0});
    ExpectProbesMatchOracle(*build, {"s", "i"}, *probe, {0, 1});
    ExpectProbesMatchOracle(*build, {"s"}, *shared, {0});
    ExpectProbesMatchOracle(*build, {"s", "i"}, *shared, {0, 1});
  }
}

TEST(JoinHashTableTest, EmptyBuildSide) {
  auto build = KeyTable({{"k", LogicalType::kInt64}}, 0,
                        [](uint64_t) { return std::vector<Value>{}; });
  auto probe = KeyTable({{"k", LogicalType::kInt64}}, 3,
                        [](uint64_t r) -> std::vector<Value> {
                          return {Value::Int(static_cast<int64_t>(r))};
                        });
  ExpectProbesMatchOracle(*build, {"k"}, *probe, {0});
  JoinHashTable ht;
  ASSERT_TRUE(ht.Build(*build, {"k"}).ok());
  EXPECT_EQ(ht.num_morsels(), 0u);
}

// Global allocation counter for the allocation test below.
std::atomic<size_t> g_allocations{0};

TEST(JoinHashTableTest, BuildAllocationsDoNotDependOnRowsOrKeys) {
  auto count_build = [](uint64_t n, uint64_t distinct) {
    auto t = KeyTable({{"k", LogicalType::kInt64}}, n,
                      [&](uint64_t r) -> std::vector<Value> {
                        return {Value::Int(static_cast<int64_t>(r % distinct))};
                      });
    JoinHashTable ht;
    std::vector<std::string> keys = {"k"};
    size_t before = g_allocations.load();
    Status st = ht.Build(*t, keys);
    size_t after = g_allocations.load();
    EXPECT_TRUE(st.ok());
    return after - before;
  };
  size_t small = count_build(100, 100);
  EXPECT_EQ(count_build(100'000, 100'000), small);
  EXPECT_EQ(count_build(100'000, 3), small);
}

// ---------------------------------------------------------------------------
// NULL join keys, end to end
// ---------------------------------------------------------------------------

TEST(NullJoinKeyTest, NullKeysMatchNothingInBothEngines) {
  // L(k, s) = {(0, ""), (NULL, NULL)} and R the same: SQL equality joins
  // only 0 = 0 (and "" = ""). NULL = NULL, NULL = 0 and NULL = "" (the
  // payloads null rows carry) must not match.
  for (bool dictionary : {false, true}) {
    Database db;
    for (const char* name : {"L", "R"}) {
      auto t = db.CreateTable(
          name, Schema({ColumnDef{"k", LogicalType::kInt64},
                        ColumnDef{"s", LogicalType::kString}}));
      ASSERT_TRUE(t.ok());
      ASSERT_TRUE((*t)->AppendRow({Value::Int(0), Value::String("")}).ok());
      ASSERT_TRUE((*t)->AppendRow({Value::Null(), Value::Null()}).ok());
      if (dictionary) (*t)->column(1).BuildDictionary();
    }
    for (const char* key : {"k", "s"}) {
      auto scan = [](const char* table, const char* alias) {
        auto s = std::make_unique<plan::PhysScanTable>();
        s->table = table;
        s->alias = alias;
        return s;
      };
      auto join = std::make_unique<plan::PhysHashJoin>();
      join->left_keys = {std::string("l.") + key};
      join->right_keys = {std::string("r.") + key};
      join->children.push_back(scan("L", "l"));
      join->children.push_back(scan("R", "r"));
      const std::vector<std::string> expect = {"0||0|"};

      ExecutionContext oracle_ctx(&db.catalog(), &db.mapping(), &db.index());
      auto oracle = Executor::Run(*join, &oracle_ctx);
      ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
      EXPECT_EQ(RowsInOrder(**oracle), expect)
          << "reference, key " << key << " dictionary=" << dictionary;
      for (int threads : {1, 2, 4}) {
        ExecutionOptions options;
        options.num_threads = threads;
        ExecutionContext ctx(&db.catalog(), &db.mapping(), &db.index(),
                             options);
        auto piped = exec::pipeline::Run(*join, &ctx);
        ASSERT_TRUE(piped.ok()) << piped.status().ToString();
        EXPECT_EQ(RowsInOrder(**piped), expect)
            << "pipeline, key " << key << " dictionary=" << dictionary
            << " threads=" << threads;
      }
    }
  }
}

}  // namespace
}  // namespace relgo

// Counts every scalar allocation of the test binary (see g_allocations).
// Both scalar forms of new are replaced, so everything the replaced
// deletes release came from malloc (a sanitizer runtime's own nothrow new
// would not). GCC flags free() on memory from operator new even inside
// the replacement pair itself, which is exactly where the pairing holds.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  relgo::g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new(std::size_t n) {
  if (void* p = operator new(n, std::nothrow)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
#pragma GCC diagnostic pop
