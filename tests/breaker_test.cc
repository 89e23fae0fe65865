// Tests of the parallel breakers: the in-pipeline TopKSink (ORDER BY /
// LIMIT / top-k replacing the materializing post-op path) and the
// partition-parallel JoinHashTable build. The materializing executor is
// the oracle throughout; parity is asserted on EXACT row order (not just
// bags), across 1/2/4 threads, because the morsel-ordered tie-break is
// part of the engine contract.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <limits>
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
#include "exec/pipeline/operators.h"
#include "exec/pipeline/scheduler.h"
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

  /// "Wide": kWideRows rows (20 morsels) in ascending `id`, with `grp`
  /// (13 values, ~3.2k rows each), `step` = id / 3 and a string `tag`
  /// (50 values).
  static constexpr int64_t kWideRows = 20 * exec::pipeline::kBatchRows;

  std::unique_ptr<plan::PhysScanTable> ScanWide() {
    if (!db_.catalog().GetTable("Wide").ok()) {
      auto wide = db_.CreateTable(
          "Wide", Schema({ColumnDef{"id", LogicalType::kInt64},
                          ColumnDef{"grp", LogicalType::kInt64},
                          ColumnDef{"step", LogicalType::kInt64},
                          ColumnDef{"tag", LogicalType::kString}}));
      EXPECT_TRUE(wide.ok());
      for (int64_t i = 0; i < kWideRows; ++i) {
        EXPECT_TRUE((*wide)
                        ->AppendRow({Value::Int(i), Value::Int(i % 13),
                                     Value::Int(i / 3),
                                     Value::String(
                                         "t" + std::to_string(i * 7 % 50))})
                        .ok());
      }
    }
    auto scan = std::make_unique<plan::PhysScanTable>();
    scan->table = "Wide";
    scan->alias = "w";
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

TEST_F(BreakerTest, TopKWithALimitOfTwentyThousand) {
  // k = 20000 over 40960 rows: the cut falls inside grp 6 (~3.2k tied
  // rows) and, on two keys, inside a run of ~63 rows tied on both.
  ExpectExactParity(*Limit(OrderBy(ScanWide(), {{"w.grp", true}}), 20000));
  ExpectExactParity(*Limit(
      OrderBy(ScanWide(), {{"w.grp", false}, {"w.tag", true}}), 20000));
}

TEST_F(BreakerTest, TopKStoreCompactsUnderAnAscendingInput) {
  // id ascends with the scan, so under id DESC every row enters its
  // worker's heap and pops the worst one: dead rows reach k after every k
  // entrants and each worker's store compacts many times, for k below,
  // and above, one batch. step DESC ties three rows at a time.
  for (int64_t k : {int64_t{1}, int64_t{7}, int64_t{100},
                    static_cast<int64_t>(exec::pipeline::kBatchRows) + 500}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    ExpectExactParity(*Limit(OrderBy(ScanWide(), {{"w.id", false}}), k));
    ExpectExactParity(*Limit(
        OrderBy(ScanWide(), {{"w.step", false}, {"w.tag", false}}), k));
  }
}

// ---------------------------------------------------------------------------
// AggregateSink
// ---------------------------------------------------------------------------

TEST_F(BreakerTest, GroupByADoubleKeyGroupsSignedZerosTogether) {
  // A double key over three morsels holding -0.0 (seen first), 0.0, NULL
  // and repeated values. Value::Hash and Value::Compare put ±0 in one
  // group; the reference emits its first-seen -0.0 and the pipeline +0.0,
  // so keys are compared with Value::Compare.
  auto dbl = db_.CreateTable(
      "Dbl", Schema({ColumnDef{"x", LogicalType::kDouble},
                     ColumnDef{"v", LogicalType::kInt64}}));
  ASSERT_TRUE(dbl.ok());
  const std::vector<Value> xs = {Value::Double(-0.0), Value::Double(1.5),
                                 Value::Null(),       Value::Double(0.0),
                                 Value::Double(-2.5), Value::Double(1.5),
                                 Value::Double(7.25)};
  for (int64_t i = 0; i < 5000; ++i) {
    ASSERT_TRUE((*dbl)->AppendRow({xs[i % xs.size()], Value::Int(i)}).ok());
  }
  auto scan = std::make_unique<plan::PhysScanTable>();
  scan->table = "Dbl";
  scan->alias = "d";
  plan::PhysHashAggregate agg;
  agg.group_by = {"d.x"};
  agg.aggregates = {{plan::AggFunc::kCount, "", "cnt"},
                    {plan::AggFunc::kSum, "d.v", "total"}};
  agg.children.push_back(std::move(scan));

  ExecutionContext oracle_ctx(&db_.catalog(), &db_.mapping(), &db_.index());
  auto oracle = Executor::Run(agg, &oracle_ctx);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  ASSERT_EQ((*oracle)->num_rows(), 5u);  // ±0, 1.5, NULL, -2.5, 7.25
  for (int threads : {1, 4}) {
    ExecutionOptions options;
    options.num_threads = threads;
    ExecutionContext ctx(&db_.catalog(), &db_.mapping(), &db_.index(),
                         options);
    auto piped = exec::pipeline::Run(agg, &ctx);
    ASSERT_TRUE(piped.ok()) << piped.status().ToString();
    ASSERT_EQ((*piped)->num_rows(), (*oracle)->num_rows())
        << "threads=" << threads;
    for (uint64_t r = 0; r < (*oracle)->num_rows(); ++r) {
      Value key = (*piped)->GetValue(r, 0);
      EXPECT_EQ(key.Compare((*oracle)->GetValue(r, 0)), 0)
          << "row " << r << " threads=" << threads;
      EXPECT_EQ((*piped)->GetValue(r, 1), (*oracle)->GetValue(r, 1))
          << "row " << r << " threads=" << threads;
      EXPECT_EQ((*piped)->GetValue(r, 2), (*oracle)->GetValue(r, 2))
          << "row " << r << " threads=" << threads;
    }
    Value zero = (*piped)->GetValue(0, 0);
    EXPECT_EQ(zero, Value::Double(0.0));
    EXPECT_FALSE(std::signbit(zero.double_value())) << "threads=" << threads;
  }
}

/// COUNT(*), MIN(k.v), SUM(k.v) over table "Keys" (alias k) grouped by
/// `group_by`.
std::unique_ptr<plan::PhysHashAggregate> AggregateKeys(
    std::vector<std::string> group_by) {
  auto scan = std::make_unique<plan::PhysScanTable>();
  scan->table = "Keys";
  scan->alias = "k";
  auto agg = std::make_unique<plan::PhysHashAggregate>();
  agg->group_by = std::move(group_by);
  agg->aggregates = {{plan::AggFunc::kCount, "", "cnt"},
                     {plan::AggFunc::kMin, "k.v", "lo"},
                     {plan::AggFunc::kSum, "k.v", "total"}};
  agg->children.push_back(std::move(scan));
  return agg;
}

TEST_F(BreakerTest, GroupTableGrowsInsideABatchAndAcrossMorsels) {
  // 3 morsels. `wide` has 1500 values, all in the first batch, so the
  // table grows many times inside one batch; `fresh` = i / 4 brings 512
  // new groups with every batch, so it grows again in every morsel (and
  // every worker's partial holds groups the others also hold at the
  // morsel borders).
  auto keys = db_.CreateTable(
      "Keys", Schema({ColumnDef{"wide", LogicalType::kInt64},
                      ColumnDef{"fresh", LogicalType::kInt64},
                      ColumnDef{"name", LogicalType::kString},
                      ColumnDef{"v", LogicalType::kInt64}}));
  ASSERT_TRUE(keys.ok());
  const int64_t rows = 3 * exec::pipeline::kBatchRows;
  for (int64_t i = 0; i < rows; ++i) {
    int64_t wide = (i * 7919) % 1500;
    ASSERT_TRUE((*keys)
                    ->AppendRow({Value::Int(wide), Value::Int(i / 4),
                                 Value::String("n" + std::to_string(wide)),
                                 Value::Int(i % 101)})
                    .ok());
  }
  ExpectExactParity(*AggregateKeys({"k.wide"}));
  ExpectExactParity(*AggregateKeys({"k.fresh"}));
  ExpectExactParity(*AggregateKeys({"k.name", "k.fresh"}));
  ExpectExactParity(*AggregateKeys({"k.wide", "k.name"}));
}

TEST_F(BreakerTest, GroupKeysWithANullInEachKeyColumn) {
  // Every key column has NULLs, at rates that put a NULL in each column
  // with and without NULLs in the others; a NULL key never equals the
  // 0 / "" payload a NULL slot carries.
  auto keys = db_.CreateTable(
      "Keys", Schema({ColumnDef{"i", LogicalType::kInt64},
                      ColumnDef{"s", LogicalType::kString},
                      ColumnDef{"d", LogicalType::kDate},
                      ColumnDef{"b", LogicalType::kBool},
                      ColumnDef{"x", LogicalType::kDouble},
                      ColumnDef{"v", LogicalType::kInt64}}));
  ASSERT_TRUE(keys.ok());
  const auto num_rows =
      static_cast<int64_t>(2 * exec::pipeline::kBatchRows + 300);
  for (int64_t r = 0; r < num_rows; ++r) {
    auto or_null = [r](int64_t every, Value v) {
      return r % every == 0 ? Value::Null() : std::move(v);
    };
    ASSERT_TRUE(
        (*keys)
            ->AppendRow({or_null(3, Value::Int(r % 2)),
                         or_null(5, Value::String(r % 3 == 0 ? "" : "s")),
                         or_null(7, Value::Date(static_cast<int32_t>(r % 2))),
                         or_null(4, Value::Bool(r % 2 == 0)),
                         or_null(6, Value::Double(r % 2 == 0 ? 0.0 : 1.0)),
                         Value::Int(r)})
            .ok());
  }
  for (const char* key : {"k.i", "k.s", "k.d", "k.b", "k.x"}) {
    SCOPED_TRACE(key);
    ExpectExactParity(*AggregateKeys({key}));
  }
  ExpectExactParity(*AggregateKeys({"k.i", "k.s", "k.d", "k.b", "k.x"}));
}

TEST_F(BreakerTest, Int64KeysBeyondTwoToTheFiftyThreeStayExact) {
  // Keys that need all 64 bits; each is a distinct double too, so the
  // reference groups them exactly and the output shows every digit.
  const int64_t big = int64_t{1} << 53;
  const std::vector<int64_t> values = {
      big,       big + 2,   -big - 2, big * 2 + 4, int64_t{1} << 62,
      (int64_t{1} << 62) + 1024,     std::numeric_limits<int64_t>::max(),
      std::numeric_limits<int64_t>::min(), 7};
  auto keys = db_.CreateTable(
      "Keys", Schema({ColumnDef{"big", LogicalType::kInt64},
                      ColumnDef{"v", LogicalType::kInt64}}));
  ASSERT_TRUE(keys.ok());
  const auto num_rows =
      static_cast<int64_t>(2 * exec::pipeline::kBatchRows + 11);
  for (int64_t r = 0; r < num_rows; ++r) {
    ASSERT_TRUE((*keys)
                    ->AppendRow({Value::Int(values[(r * 5) % values.size()]),
                                 Value::Int(r)})
                    .ok());
  }
  ExpectExactParity(*AggregateKeys({"k.big"}));
  ExecutionContext ctx(&db_.catalog(), &db_.mapping(), &db_.index());
  auto piped = exec::pipeline::Run(*AggregateKeys({"k.big"}), &ctx);
  ASSERT_TRUE(piped.ok()) << piped.status().ToString();
  ASSERT_EQ((*piped)->num_rows(), values.size());
  for (uint64_t r = 0; r < values.size(); ++r) {
    EXPECT_EQ((*piped)->column(0).int_at(r), values[(r * 5) % values.size()]);
  }
}

TEST_F(BreakerTest, StringKeysFromPinnedForeignAndNoDictionaryBatches) {
  // One string key fed to the real sink in three kinds of batches: sharing
  // the base column's dictionary (the pin, when consumed first), with a
  // foreign dictionary, and with none (DropDictionary). Strings outside
  // the base dictionary are interned per worker and merged by text. Every
  // string must land in exactly one group, in first-seen order, whichever
  // batch pins and however the batches spread over the workers.
  const std::vector<std::string> pool = {"ant", "bee", "cat", "dog", "eel",
                                         "fox", "gnu", "hen"};
  storage::Column base(LogicalType::kString);
  for (size_t i = 0; i < 4; ++i) base.AppendString(pool[i]);  // ant..dog
  base.BuildDictionary();
  auto batch_of = [&](int kind, uint64_t seed) {
    if (kind == 0) {
      // Rows of the base column: shares its dictionary.
      std::vector<uint64_t> rows;
      for (uint64_t r = 0; r < 300; ++r) rows.push_back((r * 3 + seed) % 4);
      return base.Gather(rows);
    }
    storage::Column col(LogicalType::kString);
    for (uint64_t r = 0; r < 300; ++r) {
      col.AppendString(pool[(r * 3 + seed) % pool.size()]);
    }
    col.BuildDictionary();                 // a foreign dictionary,
    if (kind == 2) col.DropDictionary();   // or none
    return col;
  };
  const Schema input({ColumnDef{"m.s", LogicalType::kString},
                      ColumnDef{"m.v", LogicalType::kInt64}});
  exec::pipeline::TaskScheduler scheduler;
  // Morsel m has kind (m + first) % 3, so each kind appears at several
  // positions and `first` picks the kind of morsel 0.
  for (int first : {0, 1, 2}) {
    std::vector<storage::Column> strings;
    for (uint64_t m = 0; m < 9; ++m) {
      strings.push_back(batch_of((static_cast<int>(m) + first) % 3, m));
    }
    // The oracle table holds the same rows in (morsel, row) order.
    const std::string table = "Mixed" + std::to_string(first);
    auto mixed = db_.CreateTable(
        table, Schema({ColumnDef{"s", LogicalType::kString},
                       ColumnDef{"v", LogicalType::kInt64}}));
    ASSERT_TRUE(mixed.ok());
    std::vector<exec::pipeline::Batch> batches;
    for (uint64_t m = 0; m < strings.size(); ++m) {
      storage::Column v(LogicalType::kInt64);
      for (uint64_t r = 0; r < strings[m].size(); ++r) {
        int64_t value = static_cast<int64_t>(m * 1000 + r);
        v.AppendInt(value);
        ASSERT_TRUE(
            (*mixed)->AppendRow({strings[m].GetValue(r), Value::Int(value)})
                .ok());
      }
      exec::pipeline::Batch b;
      b.AddOwned(strings[m]);
      b.AddOwned(std::move(v));
      b.SetNumRows(strings[m].size());
      batches.push_back(std::move(b));
    }
    const storage::StringDictionary* dicts[] = {
        base.dictionary(), strings[(4 - first) % 3].dictionary(), nullptr};
    ASSERT_NE(dicts[1], nullptr);
    ASSERT_NE(dicts[1], dicts[0]);
    for (uint64_t m = 0; m < strings.size(); ++m) {
      ASSERT_EQ(strings[m].dictionary() == dicts[0],
                (m + first) % 3 == 0);
      ASSERT_EQ(strings[m].dictionary() == nullptr, (m + first) % 3 == 2);
    }

    auto scan = std::make_unique<plan::PhysScanTable>();
    scan->table = table;
    scan->alias = "m";
    plan::PhysHashAggregate agg;
    agg.group_by = {"m.s"};
    agg.aggregates = {{plan::AggFunc::kCount, "", "cnt"},
                      {plan::AggFunc::kMin, "m.v", "lo"},
                      {plan::AggFunc::kMax, "m.v", "hi"}};
    agg.children.push_back(std::move(scan));
    ExecutionContext oracle_ctx(&db_.catalog(), &db_.mapping(),
                                &db_.index());
    auto oracle = Executor::Run(agg, &oracle_ctx);
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
    ASSERT_EQ((*oracle)->num_rows(), pool.size());

    for (int workers : {1, 4}) {
      SCOPED_TRACE("first kind " + std::to_string(first) +
                   ", workers=" + std::to_string(workers));
      // Worker w takes morsels w, w + workers, ... in ascending order, as
      // the scheduler hands them out; the last worker consumes first, so
      // with 4 workers morsel 3 pins the dictionary.
      ExecutionContext ctx(&db_.catalog(), &db_.mapping(), &db_.index());
      exec::pipeline::AggregateSink sink(agg);
      ASSERT_TRUE(sink.Prepare(input, &ctx).ok());
      std::vector<std::unique_ptr<exec::pipeline::SinkState>> partials;
      for (int w = 0; w < workers; ++w) partials.push_back(sink.MakeState());
      for (uint64_t round = 0; round * workers < batches.size(); ++round) {
        for (int w = workers - 1; w >= 0; --w) {
          uint64_t m = round * workers + static_cast<uint64_t>(w);
          if (m >= batches.size()) continue;
          ASSERT_TRUE(
              sink.Consume(partials[w].get(), batches[m], {m, 0}, &ctx).ok());
        }
      }
      auto piped = sink.Finish(std::move(partials), &scheduler, &ctx);
      ASSERT_TRUE(piped.ok()) << piped.status().ToString();
      EXPECT_EQ(RowsInOrder(**piped), RowsInOrder(**oracle));
    }
  }
}

// ---------------------------------------------------------------------------
// Group keys read through row ids at the graph->relational bridge
// ---------------------------------------------------------------------------

/// Person vertices (dictionary-coded `name` with 40 values, `nick` NULL
/// for every third person, `born` NULL for every seventh) and two Knows
/// edges per person, over several source morsels.
class DeferredGroupKeyTest : public ::testing::Test {
 protected:
  static constexpr int64_t kPeople = 3 * exec::pipeline::kBatchRows + 100;

  void SetUp() override {
    auto person = db_.CreateTable(
        "Person", Schema({ColumnDef{"person_id", LogicalType::kInt64},
                          ColumnDef{"name", LogicalType::kString},
                          ColumnDef{"nick", LogicalType::kString},
                          ColumnDef{"age", LogicalType::kInt64},
                          ColumnDef{"born", LogicalType::kDate}}));
    ASSERT_TRUE(person.ok());
    auto knows = db_.CreateTable(
        "Knows", Schema({ColumnDef{"pid1", LogicalType::kInt64},
                         ColumnDef{"pid2", LogicalType::kInt64}}));
    ASSERT_TRUE(knows.ok());
    for (int64_t i = 0; i < kPeople; ++i) {
      Value nick = i % 3 == 0 ? Value::Null()
                              : Value::String("nick" + std::to_string(i % 9));
      Value born = i % 7 == 0 ? Value::Null()
                              : Value::Date(static_cast<int32_t>(i % 5));
      ASSERT_TRUE((*person)
                      ->AppendRow({Value::Int(i),
                                   Value::String("n" + std::to_string(i % 40)),
                                   nick, Value::Int(i % 97), born})
                      .ok());
      for (int64_t step : {1, 7}) {
        ASSERT_TRUE((*knows)
                        ->AppendRow({Value::Int(i),
                                     Value::Int((i + step) % kPeople)})
                        .ok());
      }
    }
    ASSERT_TRUE(db_.AddVertexTable("Person", "person_id").ok());
    ASSERT_TRUE(
        db_.AddEdgeTable("Knows", "Person", "pid1", "Person", "pid2").ok());
    ASSERT_TRUE(db_.Finalize().ok());
  }

  /// MATCH (p:Person)-[:Knows]->(q:Person), pi-hat COLUMNS(p.name, q.nick,
  /// q.born, q.age, p_rid, q_rid), GROUP BY `group_by` with COUNT(*) and
  /// MIN(q.age). With `eager`, a NOT_EQUAL p_rid <> q_rid (true for every
  /// row) sits between pi-hat and the sink, so nothing is deferred.
  std::unique_ptr<plan::PhysHashAggregate> Plan(
      std::vector<std::string> group_by, bool eager) {
    int person = db_.mapping().FindVertexLabel("Person");
    auto scan = std::make_unique<plan::PhysScanVertex>();
    scan->vertex_label = person;
    scan->var = "p";
    auto expand = std::make_unique<plan::PhysExpand>();
    expand->edge_label = db_.mapping().FindEdgeLabel("Knows");
    expand->dir = graph::Direction::kOut;
    expand->from_var = "p";
    expand->to_var = "q";
    expand->children.push_back(std::move(scan));
    auto sgt = std::make_unique<plan::PhysScanGraphTable>();
    sgt->projections = {{"p", "name", "p.name"},   {"q", "nick", "q.nick"},
                        {"q", "born", "q.born"},   {"q", "age", "q.age"},
                        {"p", "$rid", "p_rid"},    {"q", "$rid", "q_rid"}};
    sgt->vertex_var_labels = {{"p", person}, {"q", person}};
    sgt->children.push_back(std::move(expand));
    plan::PhysicalOpPtr top = std::move(sgt);
    if (eager) {
      auto ne = std::make_unique<plan::PhysNotEqual>();
      ne->var_a = "p_rid";
      ne->var_b = "q_rid";
      ne->children.push_back(std::move(top));
      top = std::move(ne);
    }
    auto agg = std::make_unique<plan::PhysHashAggregate>();
    agg->group_by = std::move(group_by);
    agg->aggregates = {{plan::AggFunc::kCount, "", "cnt"},
                       {plan::AggFunc::kMin, "q.age", "youngest"}};
    agg->children.push_back(std::move(top));
    return agg;
  }

  /// The pipeline engine's rows at `threads` workers, asserting parity with
  /// the reference interpreter (rows, order, schema, row-budget charge).
  std::vector<std::string> ExpectParity(const plan::PhysicalOp& op,
                                        int threads) {
    ExecutionContext oracle_ctx(&db_.catalog(), &db_.mapping(), &db_.index());
    auto oracle = Executor::Run(op, &oracle_ctx);
    EXPECT_TRUE(oracle.ok()) << oracle.status().ToString();
    ExecutionOptions options;
    options.num_threads = threads;
    ExecutionContext ctx(&db_.catalog(), &db_.mapping(), &db_.index(),
                         options);
    auto piped = exec::pipeline::Run(op, &ctx);
    EXPECT_TRUE(piped.ok()) << piped.status().ToString();
    if (!oracle.ok() || !piped.ok()) return {};
    EXPECT_EQ(RowsInOrder(**piped), RowsInOrder(**oracle));
    EXPECT_EQ((*piped)->schema().ToString(), (*oracle)->schema().ToString());
    EXPECT_EQ(ctx.rows_produced(), oracle_ctx.rows_produced());
    return RowsInOrder(**piped);
  }

  Database db_;
};

TEST_F(DeferredGroupKeyTest, DeferredAndEagerKeysGiveIdenticalTables) {
  const std::vector<std::vector<std::string>> key_sets = {
      {"p.name"}, {"q.nick"}, {"q.born", "p.name"}, {"p.name", "q.age"}};
  for (const auto& keys : key_sets) {
    for (int threads : {1, 4}) {
      SCOPED_TRACE(keys[0] + " threads=" + std::to_string(threads));
      std::vector<std::string> deferred =
          ExpectParity(*Plan(keys, /*eager=*/false), threads);
      std::vector<std::string> eager =
          ExpectParity(*Plan(keys, /*eager=*/true), threads);
      EXPECT_FALSE(deferred.empty());
      EXPECT_EQ(deferred, eager);
    }
  }
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
  JoinHashTable::ProbeView serial_view;
  ASSERT_TRUE(serial.BindProbe(*probe_keys, probe_cols, &serial_view).ok());
  for (int workers : {2, 4}) {
    JoinHashTable parallel;
    ASSERT_TRUE(BuildOnWorkers(*table, keys, workers, &parallel).ok());
    JoinHashTable::ProbeView view;
    ASSERT_TRUE(parallel.BindProbe(*probe_keys, probe_cols, &view).ok());
    for (uint64_t r = 0; r < probe_keys->num_rows(); ++r) {
      std::vector<uint64_t> expect = testing::Matches(serial, serial_view, r);
      std::vector<uint64_t> actual = testing::Matches(parallel, view, r);
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
/// also go through the typed-span ForEachMatch overload.
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
      EXPECT_EQ(testing::Matches(ht, view, r), expect)
          << "view probe row " << r << " workers=" << workers;
      // The span overload leaves NULLs to the caller.
      if (!all_int64 || !key) continue;
      EXPECT_EQ(testing::Matches(ht, spans.data(), r), expect)
          << "span probe row " << r;
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
  JoinHashTable::ProbeView view;
  ASSERT_TRUE(ht.BindProbe(*probe, {0}, &view).ok());
  std::vector<uint64_t> rows = testing::Matches(ht, view, 1);
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
