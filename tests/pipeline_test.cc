#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <map>
#include <new>
#include <numeric>
#include <set>
#include <thread>

#include "exec/executor.h"
#include "exec/pipeline/batch.h"
#include "exec/exec_common.h"
#include "exec/pipeline/engine.h"
#include "exec/pipeline/operators.h"
#include "exec/pipeline/scheduler.h"
#include "fixtures.h"

namespace relgo {
namespace {

using exec::ExecutionContext;
using exec::ExecutionOptions;
using exec::Executor;
using exec::pipeline::Batch;
using exec::pipeline::TaskScheduler;
using storage::Column;
using storage::Expr;

// ---------------------------------------------------------------------------
// Column slicing / appending primitives
// ---------------------------------------------------------------------------

TEST(ColumnSliceTest, SliceCopiesRange) {
  Column col(LogicalType::kInt64);
  for (int64_t i = 0; i < 10; ++i) col.AppendInt(i * 7);
  Column slice = col.Slice(3, 4);
  ASSERT_EQ(slice.size(), 4u);
  for (uint64_t i = 0; i < 4; ++i) EXPECT_EQ(slice.int_at(i), (i + 3) * 7);
}

TEST(ColumnSliceTest, AppendRangePreservesNulls) {
  Column col(LogicalType::kString);
  ASSERT_TRUE(col.AppendValue(Value::String("a")).ok());
  ASSERT_TRUE(col.AppendValue(Value::Null()).ok());
  ASSERT_TRUE(col.AppendValue(Value::String("c")).ok());
  Column out(LogicalType::kString);
  ASSERT_TRUE(out.AppendValue(Value::String("x")).ok());
  out.AppendRange(col, 0, 3);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_TRUE(out.is_valid(0));
  EXPECT_TRUE(out.is_valid(1));
  EXPECT_FALSE(out.is_valid(2));
  EXPECT_EQ(out.string_at(3), "c");
}

TEST(ColumnSliceTest, AppendRangeIntoEmptyColumnPreservesNulls) {
  Column col(LogicalType::kInt64);
  col.AppendNull();
  col.AppendInt(5);
  Column out(LogicalType::kInt64);
  out.AppendRange(col, 0, 2);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_FALSE(out.is_valid(0));
  EXPECT_TRUE(out.is_valid(1));
  EXPECT_EQ(out.int_at(1), 5);
}

TEST(BatchTest, SliceTableWholeRangeIsZeroCopy) {
  auto table = std::make_shared<storage::Table>(
      "t", storage::Schema({{"x", LogicalType::kInt64}}));
  for (int64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(table->AppendRow({Value::Int(i)}).ok());
  }
  Batch whole = exec::pipeline::SliceTable(table, 0, 5);
  EXPECT_EQ(&whole.column(0), &table->column(0));  // shared, not copied
  Batch part = exec::pipeline::SliceTable(table, 1, 3);
  EXPECT_NE(&part.column(0), &table->column(0));
  ASSERT_EQ(part.num_rows(), 3u);
  EXPECT_EQ(part.column(0).int_at(0), 1);
}

TEST(BatchTest, SelectSharesColumnsAndFlattenGathers) {
  Batch in;
  in.AddOwned(Column::OfInts({10, 11, 12, 13, 14}));
  in.SetNumRows(5);
  Batch narrowed = in.Select({1, 3, 4});
  ASSERT_TRUE(narrowed.has_selection());
  EXPECT_EQ(narrowed.num_rows(), 3u);
  EXPECT_EQ(&narrowed.column(0), &in.column(0));  // shared, not copied
  Batch flat = narrowed.Flatten();
  EXPECT_FALSE(flat.has_selection());
  ASSERT_EQ(flat.num_rows(), 3u);
  EXPECT_EQ(flat.column(0).int_at(0), 11);
  EXPECT_EQ(flat.column(0).int_at(2), 14);
  Batch same = in.Flatten();
  EXPECT_EQ(&same.column(0), &in.column(0));  // flat input: shared
}

// ---------------------------------------------------------------------------
// TaskScheduler
// ---------------------------------------------------------------------------

TEST(TaskSchedulerTest, RunsEveryMorselExactlyOnce) {
  for (int threads : {1, 4}) {
    TaskScheduler scheduler;
    constexpr uint64_t kMorsels = 1000;
    std::vector<std::atomic<int>> seen(kMorsels);
    int workers_used = 0;
    Status st = scheduler.Run(
        kMorsels, threads,
        [&](int slot, uint64_t m) {
          EXPECT_GE(slot, 0);
          EXPECT_LT(slot, threads);
          seen[m].fetch_add(1);
          return Status::OK();
        },
        &workers_used);
    ASSERT_TRUE(st.ok());
    EXPECT_EQ(workers_used, threads);
    for (uint64_t m = 0; m < kMorsels; ++m) EXPECT_EQ(seen[m].load(), 1);
  }
}

TEST(TaskSchedulerTest, PropagatesFirstErrorAndStops) {
  for (int threads : {1, 4}) {
    TaskScheduler scheduler;
    std::atomic<int> ran{0};
    Status st =
        scheduler.Run(100000, threads, [&](int, uint64_t m) -> Status {
          ran.fetch_add(1);
          if (m == 17) return Status::OutOfMemory("boom");
          return Status::OK();
        });
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kOutOfMemory);
    // Abandoned well before the full morsel count.
    EXPECT_LT(ran.load(), 100000) << "threads=" << threads;
  }
}

TEST(TaskSchedulerTest, ReusableAcrossJobs) {
  TaskScheduler scheduler;
  for (int job = 0; job < 5; ++job) {
    std::atomic<uint64_t> sum{0};
    ASSERT_TRUE(scheduler
                    .Run(50, 3,
                         [&](int, uint64_t m) {
                           sum.fetch_add(m);
                           return Status::OK();
                         })
                    .ok());
    EXPECT_EQ(sum.load(), 49u * 50u / 2);
  }
}

TEST(TaskSchedulerTest, ConcurrentJobsFromManySubmitters) {
  // The shared-pool contract: any number of threads may submit jobs
  // concurrently; each job's morsels all run, errors stay with their job.
  TaskScheduler scheduler;
  constexpr int kSubmitters = 4;
  constexpr int kJobsEach = 8;
  constexpr uint64_t kMorsels = 64;
  std::vector<std::thread> submitters;
  std::atomic<int> ok_jobs{0}, failed_jobs{0};
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      for (int j = 0; j < kJobsEach; ++j) {
        std::atomic<uint64_t> sum{0};
        bool fail = (s + j) % 3 == 0;
        Status st = scheduler.Run(kMorsels, 4, [&](int, uint64_t m) {
          if (fail && m == 9) return Status::Timeout("job-local");
          sum.fetch_add(m);
          return Status::OK();
        });
        if (fail) {
          if (st.code() == StatusCode::kTimeout) failed_jobs.fetch_add(1);
        } else if (st.ok() && sum.load() == kMorsels * (kMorsels - 1) / 2) {
          ok_jobs.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : submitters) t.join();
  int expected_failures = 0;
  for (int s = 0; s < kSubmitters; ++s) {
    for (int j = 0; j < kJobsEach; ++j) {
      if ((s + j) % 3 == 0) ++expected_failures;
    }
  }
  EXPECT_EQ(failed_jobs.load(), expected_failures);
  EXPECT_EQ(ok_jobs.load(), kSubmitters * kJobsEach - expected_failures);
}

// ---------------------------------------------------------------------------
// Engine parity on hand-built plans (Figure 2 database)
// ---------------------------------------------------------------------------

class PipelineEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(testing::BuildFigure2Database(&db_).ok());
  }

  int Label(const char* name, bool edge = false) {
    return edge ? db_.mapping().FindEdgeLabel(name)
                : db_.mapping().FindVertexLabel(name);
  }

  /// Runs `op` through the materializing oracle and the pipeline engine
  /// (1 and 3 threads) and asserts identical sorted rows and schemas.
  void ExpectParity(const plan::PhysicalOp& op) {
    ExecutionContext oracle_ctx(&db_.catalog(), &db_.mapping(), &db_.index());
    auto expected = Executor::Run(op, &oracle_ctx);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    for (int threads : {1, 3}) {
      ExecutionOptions options;
      options.engine = exec::EngineKind::kPipeline;
      options.num_threads = threads;
      ExecutionContext ctx(&db_.catalog(), &db_.mapping(), &db_.index(),
                           options);
      auto actual = exec::pipeline::Run(op, &ctx);
      ASSERT_TRUE(actual.ok())
          << "threads=" << threads << ": " << actual.status().ToString();
      EXPECT_EQ(testing::SortedRows(**actual),
                testing::SortedRows(**expected))
          << "threads=" << threads;
      ASSERT_EQ((*actual)->schema().num_columns(),
                (*expected)->schema().num_columns());
      for (size_t c = 0; c < (*expected)->schema().num_columns(); ++c) {
        EXPECT_EQ((*actual)->schema().column(c).name,
                  (*expected)->schema().column(c).name);
      }
      EXPECT_EQ(ctx.rows_produced(), oracle_ctx.rows_produced())
          << "row-budget charging diverged";
    }
  }

  Database db_;
};

TEST_F(PipelineEngineTest, ScanTableWithFilter) {
  plan::PhysScanTable scan;
  scan.table = "Person";
  scan.alias = "p";
  scan.filter = Expr::Eq("name", Value::String("Bob"));
  scan.emit_rowid = true;
  ExpectParity(scan);
}

TEST_F(PipelineEngineTest, ExpandChain) {
  auto scan = std::make_unique<plan::PhysScanVertex>();
  scan->vertex_label = Label("Person");
  scan->var = "p1";
  auto hop1 = std::make_unique<plan::PhysExpand>();
  hop1->edge_label = Label("Knows", true);
  hop1->dir = graph::Direction::kOut;
  hop1->from_var = "p1";
  hop1->to_var = "p2";
  hop1->children.push_back(std::move(scan));
  plan::PhysNotEqual ne;
  ne.var_a = "p1";
  ne.var_b = "p2";
  ne.children.push_back(std::move(hop1));
  ExpectParity(ne);
}

TEST_F(PipelineEngineTest, ExpandHashFallback) {
  auto scan = std::make_unique<plan::PhysScanVertex>();
  scan->vertex_label = Label("Person");
  scan->var = "p";
  plan::PhysExpand expand;
  expand.edge_label = Label("Knows", true);
  expand.dir = graph::Direction::kIn;
  expand.from_var = "p";
  expand.to_var = "q";
  expand.edge_var = "k";
  expand.use_index = false;
  expand.children.push_back(std::move(scan));
  ExpectParity(expand);
}

TEST_F(PipelineEngineTest, ExpandIntersect) {
  auto scan = std::make_unique<plan::PhysScanVertex>();
  scan->vertex_label = Label("Person");
  scan->var = "p1";
  auto knows = std::make_unique<plan::PhysExpand>();
  knows->edge_label = Label("Knows", true);
  knows->dir = graph::Direction::kOut;
  knows->from_var = "p1";
  knows->to_var = "p2";
  knows->children.push_back(std::move(scan));
  plan::PhysExpandIntersect ei;
  ei.edge_labels = {Label("Likes", true), Label("Likes", true)};
  ei.dirs = {graph::Direction::kOut, graph::Direction::kOut};
  ei.from_vars = {"p1", "p2"};
  ei.edge_vars = {"", ""};
  ei.to_var = "m";
  ei.children.push_back(std::move(knows));
  ExpectParity(ei);
}

TEST_F(PipelineEngineTest, EdgeVerifyBothModes) {
  for (bool use_index : {true, false}) {
    auto scan = std::make_unique<plan::PhysScanVertex>();
    scan->vertex_label = Label("Person");
    scan->var = "p1";
    auto likes = std::make_unique<plan::PhysExpand>();
    likes->edge_label = Label("Likes", true);
    likes->dir = graph::Direction::kOut;
    likes->from_var = "p1";
    likes->to_var = "m";
    likes->children.push_back(std::move(scan));
    auto colikes = std::make_unique<plan::PhysExpand>();
    colikes->edge_label = Label("Likes", true);
    colikes->dir = graph::Direction::kIn;
    colikes->from_var = "m";
    colikes->to_var = "p2";
    colikes->children.push_back(std::move(likes));
    plan::PhysEdgeVerify verify;
    verify.edge_label = Label("Knows", true);
    verify.dir = graph::Direction::kOut;
    verify.src_var = "p1";
    verify.dst_var = "p2";
    verify.use_index = use_index;
    verify.children.push_back(std::move(colikes));
    ExpectParity(verify);
  }
}

TEST_F(PipelineEngineTest, PatternJoinSharedVars) {
  auto left_scan = std::make_unique<plan::PhysScanVertex>();
  left_scan->vertex_label = Label("Person");
  left_scan->var = "p1";
  auto left = std::make_unique<plan::PhysExpand>();
  left->edge_label = Label("Knows", true);
  left->dir = graph::Direction::kOut;
  left->from_var = "p1";
  left->to_var = "p2";
  left->children.push_back(std::move(left_scan));

  auto right_scan = std::make_unique<plan::PhysScanVertex>();
  right_scan->vertex_label = Label("Person");
  right_scan->var = "p2";
  auto right = std::make_unique<plan::PhysExpand>();
  right->edge_label = Label("Likes", true);
  right->dir = graph::Direction::kOut;
  right->from_var = "p2";
  right->to_var = "m";
  right->children.push_back(std::move(right_scan));

  plan::PhysPatternJoin join;
  join.common_vars = {"p2"};
  join.children.push_back(std::move(left));
  join.children.push_back(std::move(right));
  ExpectParity(join);
}

TEST_F(PipelineEngineTest, HashJoinProjectFilter) {
  auto person = std::make_unique<plan::PhysScanTable>();
  person->table = "Person";
  person->alias = "p";
  auto place = std::make_unique<plan::PhysScanTable>();
  place->table = "Place";
  place->alias = "pl";
  auto join = std::make_unique<plan::PhysHashJoin>();
  join->left_keys = {"p.place_id"};
  join->right_keys = {"pl.id"};
  join->children.push_back(std::move(person));
  join->children.push_back(std::move(place));
  auto filter = std::make_unique<plan::PhysFilter>();
  filter->predicate = Expr::StartsWith(Expr::Column("pl.name"), "D");
  filter->children.push_back(std::move(join));
  plan::PhysProject project;
  project.columns = {{"p.name", "person"}, {"pl.name", "country"}};
  project.children.push_back(std::move(filter));
  ExpectParity(project);
}

TEST_F(PipelineEngineTest, AggregateOrderByLimit) {
  auto scan = std::make_unique<plan::PhysScanTable>();
  scan->table = "Likes";
  scan->alias = "l";
  auto agg = std::make_unique<plan::PhysHashAggregate>();
  agg->group_by = {"l.pid"};
  agg->aggregates = {{plan::AggFunc::kCount, "", "cnt"},
                     {plan::AggFunc::kMax, "l.date", "latest"}};
  agg->children.push_back(std::move(scan));
  auto order = std::make_unique<plan::PhysOrderBy>();
  order->keys = {{"cnt", false}, {"l.pid", true}};
  order->children.push_back(std::move(agg));
  plan::PhysLimit limit;
  limit.limit = 2;
  limit.children.push_back(std::move(order));
  ExpectParity(limit);
}

TEST_F(PipelineEngineTest, GlobalAggregateOverEmptyInput) {
  auto scan = std::make_unique<plan::PhysScanTable>();
  scan->table = "Person";
  scan->alias = "p";
  scan->filter = Expr::Eq("name", Value::String("Nobody"));
  plan::PhysHashAggregate agg;
  agg.aggregates = {{plan::AggFunc::kCount, "", "cnt"},
                    {plan::AggFunc::kMin, "p.name", "first_name"}};
  agg.children.push_back(std::move(scan));
  ExpectParity(agg);
}

TEST_F(PipelineEngineTest, OrderByLimitTieBreakingIsDeterministic) {
  // Likes.pid holds duplicates, so ORDER BY pid LIMIT 2 has a tie at the
  // cut: the selected rows must not depend on the worker count (sinks
  // merge in morsel order) and must match the materializing oracle, whose
  // sequential row order the morsel order reproduces.
  auto make_plan = []() {
    auto scan = std::make_unique<plan::PhysScanTable>();
    scan->table = "Likes";
    scan->alias = "l";
    auto order = std::make_unique<plan::PhysOrderBy>();
    order->keys = {{"l.pid", true}};
    order->children.push_back(std::move(scan));
    auto limit = std::make_unique<plan::PhysLimit>();
    limit->limit = 2;
    limit->children.push_back(std::move(order));
    return limit;
  };
  auto plan = make_plan();
  auto rows_in_order = [](const storage::Table& t) {
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
  };
  ExecutionContext oracle_ctx(&db_.catalog(), &db_.mapping(), &db_.index());
  auto oracle = Executor::Run(*plan, &oracle_ctx);
  ASSERT_TRUE(oracle.ok());
  for (int threads : {1, 2, 4}) {
    ExecutionOptions options;
    options.engine = exec::EngineKind::kPipeline;
    options.num_threads = threads;
    ExecutionContext ctx(&db_.catalog(), &db_.mapping(), &db_.index(),
                         options);
    auto result = exec::pipeline::Run(*plan, &ctx);
    ASSERT_TRUE(result.ok()) << "threads=" << threads;
    EXPECT_EQ(rows_in_order(**result), rows_in_order(**oracle))
        << "threads=" << threads;
  }
}

TEST_F(PipelineEngineTest, RowBudgetTriggersOutOfMemory) {
  auto scan = std::make_unique<plan::PhysScanVertex>();
  scan->vertex_label = Label("Person");
  scan->var = "p1";
  plan::PhysExpand expand;
  expand.edge_label = Label("Knows", true);
  expand.dir = graph::Direction::kOut;
  expand.from_var = "p1";
  expand.to_var = "p2";
  expand.children.push_back(std::move(scan));
  for (int threads : {1, 3}) {
    ExecutionOptions options;
    options.engine = exec::EngineKind::kPipeline;
    options.num_threads = threads;
    options.max_total_rows = 3;
    ExecutionContext ctx(&db_.catalog(), &db_.mapping(), &db_.index(),
                         options);
    auto result = exec::pipeline::Run(expand, &ctx);
    ASSERT_FALSE(result.ok()) << "threads=" << threads;
    EXPECT_EQ(result.status().code(), StatusCode::kOutOfMemory);
  }
}

TEST_F(PipelineEngineTest, TimeoutTriggers) {
  plan::PhysScanTable scan;
  scan.table = "Person";
  scan.alias = "p";
  ExecutionOptions options;
  options.engine = exec::EngineKind::kPipeline;
  options.num_threads = 2;
  options.timeout_ms = 0.0;
  ExecutionContext ctx(&db_.catalog(), &db_.mapping(), &db_.index(), options);
  auto result = exec::pipeline::Run(scan, &ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kTimeout);
}

// ---------------------------------------------------------------------------
// Late materialization at the graph->relational bridge
// ---------------------------------------------------------------------------

/// A social graph large enough for several source morsels: Person rows
/// with heavy ties on `age`, a unique `name`, and NULLs in `nick` (every
/// third row) and `score` (every fifth), plus two outgoing Knows edges per
/// person, whose `weight` scatters over 1009 values independently of the
/// edge's and its endpoints' row ids.
class LateMaterializationTest : public ::testing::Test {
 protected:
  static constexpr int64_t kPeople = 3 * exec::pipeline::kBatchRows + 100;

  void SetUp() override {
    using storage::ColumnDef;
    using storage::Schema;
    auto person = db_.CreateTable(
        "Person", Schema({ColumnDef{"person_id", LogicalType::kInt64},
                          ColumnDef{"name", LogicalType::kString},
                          ColumnDef{"nick", LogicalType::kString},
                          ColumnDef{"age", LogicalType::kInt64},
                          ColumnDef{"score", LogicalType::kDouble},
                          ColumnDef{"born", LogicalType::kDate}}));
    ASSERT_TRUE(person.ok());
    auto knows = db_.CreateTable(
        "Knows", Schema({ColumnDef{"knows_id", LogicalType::kInt64},
                         ColumnDef{"pid1", LogicalType::kInt64},
                         ColumnDef{"pid2", LogicalType::kInt64},
                         ColumnDef{"weight", LogicalType::kInt64}}));
    ASSERT_TRUE(knows.ok());
    for (int64_t i = 0; i < kPeople; ++i) {
      Value nick = i % 3 == 0 ? Value::Null()
                              : Value::String("nick" + std::to_string(i % 50));
      Value score = i % 5 == 0 ? Value::Null() : Value::Double(0.5 * i);
      Value born = i % 7 == 0 ? Value::Null()
                              : Value::Date(static_cast<int32_t>(i % 400));
      ASSERT_TRUE((*person)
                      ->AppendRow({Value::Int(i),
                                   Value::String("n" + std::to_string(i)),
                                   nick, Value::Int(i % 10), score, born})
                      .ok());
      for (int64_t step : {1, 7}) {
        int64_t edge = 2 * i + (step == 7);
        ASSERT_TRUE((*knows)
                        ->AppendRow({Value::Int(edge), Value::Int(i),
                                     Value::Int((i + step) % kPeople),
                                     Value::Int(edge * 7919 % 1009)})
                        .ok());
      }
    }
    ASSERT_TRUE(db_.AddVertexTable("Person", "person_id").ok());
    ASSERT_TRUE(
        db_.AddEdgeTable("Knows", "Person", "pid1", "Person", "pid2").ok());
    ASSERT_TRUE(db_.Finalize().ok());
  }

  /// MATCH (p:Person)-[:Knows]->(q:Person) with pi-hat
  /// COLUMNS(p.age, p.name, q.name, q.nick, q.score).
  std::unique_ptr<plan::PhysScanGraphTable> Bridge() {
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
    sgt->projections = {{"p", "age", "p.age"},
                        {"p", "name", "p.name"},
                        {"q", "name", "q.name"},
                        {"q", "nick", "q.nick"},
                        {"q", "score", "q.score"}};
    sgt->vertex_var_labels = {{"p", person}, {"q", person}};
    sgt->children.push_back(std::move(expand));
    return sgt;
  }

  static std::unique_ptr<plan::PhysicalOp> OrderLimit(
      std::unique_ptr<plan::PhysicalOp> child,
      std::vector<plan::SortKey> keys, int64_t limit) {
    if (!keys.empty()) {
      auto order = std::make_unique<plan::PhysOrderBy>();
      order->keys = std::move(keys);
      order->children.push_back(std::move(child));
      child = std::move(order);
    }
    if (limit < 0) return child;
    auto node = std::make_unique<plan::PhysLimit>();
    node->limit = limit;
    node->children.push_back(std::move(child));
    return node;
  }

  /// Runs `op` through the reference interpreter and the pipeline engine
  /// (1 and 4 threads) and asserts identical rows in identical order, with
  /// identical column names and types, and the same row-budget charge
  /// unless the plan `prunes`: a plain LIMIT's early exit or the top-k
  /// fence (ORDER BY + LIMIT with a deferred first key) skips upstream
  /// rows, so the charge may only fall below the oracle's. A profiled run,
  /// where both are off, charges exactly the oracle's. Returns the
  /// oracle's result.
  storage::TablePtr ExpectExactParity(const plan::PhysicalOp& op,
                                      bool prunes = false) {
    ExecutionContext oracle_ctx(&db_.catalog(), &db_.mapping(), &db_.index());
    auto expected = Executor::Run(op, &oracle_ctx);
    EXPECT_TRUE(expected.ok()) << expected.status().ToString();
    if (!expected.ok()) return nullptr;
    for (int threads : {1, 4}) {
      ExecutionOptions options;
      options.num_threads = threads;
      ExecutionContext ctx(&db_.catalog(), &db_.mapping(), &db_.index(),
                           options);
      auto actual = exec::pipeline::Run(op, &ctx);
      EXPECT_TRUE(actual.ok())
          << "threads=" << threads << ": " << actual.status().ToString();
      if (!actual.ok()) continue;
      EXPECT_EQ(testing::ExactRows(**actual), testing::ExactRows(**expected))
          << "threads=" << threads;
      EXPECT_EQ((*actual)->schema().ToString(),
                (*expected)->schema().ToString())
          << "threads=" << threads;
      if (prunes) {
        EXPECT_LE(ctx.rows_produced(), oracle_ctx.rows_produced())
            << "threads=" << threads;
      } else {
        EXPECT_EQ(ctx.rows_produced(), oracle_ctx.rows_produced())
            << "threads=" << threads;
      }
    }
    uint64_t profiled_charge = 0;
    Profile(op, &profiled_charge);
    EXPECT_EQ(profiled_charge, oracle_ctx.rows_produced());
    return *expected;
  }

  /// Row-budget charges of the reference interpreter and of an unprofiled
  /// pipeline run at `threads` workers: the pipeline's falls below the
  /// oracle's exactly when something skipped upstream rows.
  std::pair<uint64_t, uint64_t> Charges(const plan::PhysicalOp& op,
                                        int threads) {
    ExecutionContext oracle_ctx(&db_.catalog(), &db_.mapping(), &db_.index());
    EXPECT_TRUE(Executor::Run(op, &oracle_ctx).ok());
    ExecutionOptions options;
    options.num_threads = threads;
    ExecutionContext ctx(&db_.catalog(), &db_.mapping(), &db_.index(),
                         options);
    EXPECT_TRUE(exec::pipeline::Run(op, &ctx).ok());
    return {oracle_ctx.rows_produced(), ctx.rows_produced()};
  }

  /// Runs `op` on the pipeline engine with profiling on and returns the
  /// profile (late-gather accounting); `charged`, when set, receives the
  /// run's row-budget charge.
  exec::QueryProfile Profile(const plan::PhysicalOp& op,
                             uint64_t* charged = nullptr) {
    exec::QueryProfile profile;
    ExecutionOptions options;
    options.num_threads = 1;
    ExecutionContext ctx(&db_.catalog(), &db_.mapping(), &db_.index(),
                         options);
    ctx.EnableProfiling(&profile);
    EXPECT_TRUE(exec::pipeline::Run(op, &ctx).ok());
    if (charged != nullptr) *charged = ctx.rows_produced();
    return profile;
  }

  Database db_;
};

TEST_F(LateMaterializationTest, TiesAtLimitCutDecidedByDeferredColumns) {
  // Every tenth person has age 0, so ~1.2k binding rows tie on the sort
  // key and the LIMIT cut falls inside the tie: which names, nicks and
  // scores come out depends on gathering the right row ids after the sink.
  auto plan = OrderLimit(Bridge(), {{"p.age", true}}, 25);
  auto expected = ExpectExactParity(*plan, /*prunes=*/true);
  ASSERT_NE(expected, nullptr);
  ASSERT_EQ(expected->num_rows(), 25u);
  std::set<std::string> names;
  for (uint64_t r = 0; r < expected->num_rows(); ++r) {
    EXPECT_EQ(expected->GetValue(r, 0), Value::Int(0));
    names.insert(expected->GetValue(r, 2).ToString());
  }
  EXPECT_GT(names.size(), 1u) << "the tie must be decided by other columns";

  // The deferral actually happens: all five properties, the sort key
  // included, are gathered for the 25 kept rows only.
  exec::QueryProfile profile = Profile(*plan);
  EXPECT_EQ(profile.late_gathers(), 1u);
  EXPECT_EQ(profile.late_gather_cols(), 5u);
  EXPECT_EQ(profile.late_gather_rows(), 25u);
}

TEST_F(LateMaterializationTest, NullsInDeferredProperty) {
  // ORDER BY p.age DESC, p.name keeps rows whose deferred q.nick and
  // q.score include NULLs.
  auto plan = OrderLimit(Bridge(), {{"p.age", false}, {"p.name", true}}, 40);
  auto expected = ExpectExactParity(*plan, /*prunes=*/true);
  ASSERT_NE(expected, nullptr);
  uint64_t null_nicks = 0, null_scores = 0;
  for (uint64_t r = 0; r < expected->num_rows(); ++r) {
    null_nicks += expected->GetValue(r, 3).is_null();
    null_scores += expected->GetValue(r, 4).is_null();
  }
  EXPECT_GT(null_nicks, 0u);
  EXPECT_GT(null_scores, 0u);
  // q.name/nick/score and both sort keys
  EXPECT_EQ(Profile(*plan).late_gather_cols(), 5u);
}

TEST_F(LateMaterializationTest, FilterAboveBridgeKeepsItsInputEager) {
  // The filter reads q.nick, so q.nick must stream as the property, not as
  // a row id; the other unread properties are still deferred.
  auto filter = std::make_unique<plan::PhysFilter>();
  filter->predicate = Expr::StartsWith(Expr::Column("q.nick"), "nick1");
  filter->children.push_back(Bridge());
  auto plan = OrderLimit(std::move(filter), {{"p.age", true}}, 15);
  auto expected = ExpectExactParity(*plan, /*prunes=*/true);
  ASSERT_NE(expected, nullptr);
  EXPECT_EQ(expected->num_rows(), 15u);
  // p.age (the sort key), p.name, q.name, q.score
  EXPECT_EQ(Profile(*plan).late_gather_cols(), 4u);
}

TEST_F(LateMaterializationTest, ProjectRenamesDeferredColumns) {
  // A filter above the projection reads a renamed column (kept eager
  // through the rename); the renamed q.name / q.score and the sort key
  // age are deferred and gathered under their new names; q.nick is
  // projected away.
  auto project = std::make_unique<plan::PhysProject>();
  project->columns = {{"q.name", "friend"},
                      {"p.age", "age"},
                      {"q.score", "friend_score"},
                      {"p.name", "who"}};
  project->children.push_back(Bridge());
  auto filter = std::make_unique<plan::PhysFilter>();
  filter->predicate = Expr::StartsWith(Expr::Column("who"), "n1");
  filter->children.push_back(std::move(project));
  auto plan = OrderLimit(std::move(filter), {{"age", false}}, 30);
  auto expected = ExpectExactParity(*plan, /*prunes=*/true);
  ASSERT_NE(expected, nullptr);
  EXPECT_EQ(expected->schema().column(0).type, LogicalType::kString);
  EXPECT_EQ(expected->schema().column(2).type, LogicalType::kDouble);
  // friend, age (the sort key), friend_score
  EXPECT_EQ(Profile(*plan).late_gather_cols(), 3u);
}

TEST_F(LateMaterializationTest, PlainLimitAndPlainOrderBy) {
  // Plain LIMIT (first k in morsel order, early exit when not profiled)
  // defers every property; plain ORDER BY keeps its sort key eager (its
  // merge would read it through row ids O(log n) times per row) and
  // gathers the rest for all sorted rows.
  auto limited = OrderLimit(Bridge(), {}, 30);
  ExpectExactParity(*limited, /*prunes=*/true);
  EXPECT_EQ(Profile(*limited).late_gather_cols(), 5u);

  auto filter = std::make_unique<plan::PhysFilter>();
  filter->predicate = Expr::Compare(storage::CompareOp::kLt,
                                    Expr::Column("p.age"),
                                    Expr::Constant(Value::Int(2)));
  filter->children.push_back(Bridge());
  auto sorted = OrderLimit(std::move(filter), {{"q.nick", true}}, -1);
  auto expected = ExpectExactParity(*sorted);
  ASSERT_NE(expected, nullptr);
  exec::QueryProfile profile = Profile(*sorted);
  EXPECT_EQ(profile.late_gather_cols(), 3u);  // p.name, q.name, q.score
  EXPECT_EQ(profile.late_gather_rows(), expected->num_rows());
}

TEST_F(LateMaterializationTest, OtherOperatorAboveBridgeDefersNothing) {
  // A NOT_EQUAL between pi-hat and the sink is neither Project nor
  // Filter: nothing is deferred.
  auto sgt = Bridge();
  sgt->projections.push_back({"p", "$rid", "p_rid"});
  sgt->projections.push_back({"q", "$rid", "q_rid"});
  auto ne = std::make_unique<plan::PhysNotEqual>();
  ne->var_a = "p_rid";
  ne->var_b = "q_rid";
  ne->children.push_back(std::move(sgt));
  auto plan = OrderLimit(std::move(ne), {{"p.age", true}}, 10);
  ExpectExactParity(*plan);
  EXPECT_EQ(Profile(*plan).late_gathers(), 0u);
}

// ---------------------------------------------------------------------------
// The top-k fence: the sink's running k-th first key, pushed down to the
// operator that binds the key's variable (the source binds p, the EXPAND
// binds q)
// ---------------------------------------------------------------------------

TEST_F(LateMaterializationTest, FenceKeepsTiesOnTheFirstKeyAtTheCut) {
  // q.age = q mod 10: a tenth of the 12.6k binding rows tie at age 0, far
  // more than k. The fence stops at age 0 and keeps every tied row, so the
  // (morsel, offset + row) tie-break still picks the first 25.
  auto plan = OrderLimit(Bridge(), {{"q.age", true}}, 25);
  auto sgt = static_cast<plan::PhysScanGraphTable*>(
      plan->children[0]->children[0].get());
  sgt->projections.push_back({"q", "age", "q.age"});
  auto expected = ExpectExactParity(*plan, /*prunes=*/true);
  ASSERT_NE(expected, nullptr);
  for (uint64_t r = 0; r < expected->num_rows(); ++r) {
    EXPECT_EQ(expected->GetValue(r, 5), Value::Int(0));
  }
  auto [oracle, fenced] = Charges(*plan, 1);
  EXPECT_LT(fenced, oracle) << "the fence must prune the later batches";
}

TEST_F(LateMaterializationTest, FenceOrdersNullKeysAsValueCompare) {
  // NULLs sort first: ascending, the NULL nicks and scores fill the cut
  // and everything else is fenced off; descending, the NULLs are the
  // worst keys and are fenced off once a heap is full. The second key of
  // the first case, q.score DESC, grows with q, so its winners are NULL
  // nicks of the last morsel, which must pass the fence at its NULL bound.
  const std::vector<std::vector<plan::SortKey>> cases = {
      {{"q.nick", true}, {"q.score", false}},
      {{"q.nick", false}},
      {{"q.score", true}},
      {{"q.score", false}}};
  for (const auto& keys : cases) {
    const plan::SortKey& first = keys[0];
    SCOPED_TRACE(first.column + (first.ascending ? " ASC" : " DESC"));
    auto plan = OrderLimit(Bridge(), keys, 30);
    auto expected = ExpectExactParity(*plan, /*prunes=*/true);
    ASSERT_NE(expected, nullptr);
    int col = expected->schema().FindColumn(first.column);
    for (uint64_t r = 0; r < expected->num_rows(); ++r) {
      EXPECT_EQ(expected->GetValue(r, col).is_null(), first.ascending);
    }
    auto [oracle, fenced] = Charges(*plan, 1);
    EXPECT_LT(fenced, oracle);
  }
}

TEST_F(LateMaterializationTest, FenceOnTwoKeysWhoseFirstKeyTies) {
  // The fence reads only the first key (p.age, 10 values, bound by the
  // source), so it settles at age 0 after the first batch. The second key,
  // q.score DESC, grows with q: the winners are age-0 rows of the last
  // morsel, which only pass because the fence keeps ties on its key.
  auto plan = OrderLimit(Bridge(), {{"p.age", true}, {"q.score", false}}, 40);
  auto expected = ExpectExactParity(*plan, /*prunes=*/true);
  ASSERT_NE(expected, nullptr);
  ASSERT_EQ(expected->num_rows(), 40u);
  for (uint64_t r = 0; r < expected->num_rows(); ++r) {
    EXPECT_EQ(expected->GetValue(r, 0), Value::Int(0));
    if (r > 0) {
      EXPECT_GE(expected->GetValue(r - 1, 4).Compare(expected->GetValue(r, 4)),
                0);
    }
  }
  EXPECT_GT(expected->GetValue(0, 4).double_value(),
            0.5 * 3 * exec::pipeline::kBatchRows);
  auto [oracle, fenced] = Charges(*plan, 1);
  EXPECT_LT(fenced, oracle);
}

TEST_F(LateMaterializationTest, FenceWaitsForAFullHeap) {
  // k exceeds a batch, so after the first batch every heap still has room:
  // its worst key (q.person_id grows with the scan) is no bound yet, and
  // publishing it would drop rows of the second batch that belong to the
  // top k.
  const int64_t k = exec::pipeline::kBatchRows + 500;
  auto plan = OrderLimit(Bridge(), {{"q.person_id", true}}, k);
  auto sgt = static_cast<plan::PhysScanGraphTable*>(
      plan->children[0]->children[0].get());
  sgt->projections.push_back({"q", "person_id", "q.person_id"});
  auto expected = ExpectExactParity(*plan, /*prunes=*/true);
  ASSERT_NE(expected, nullptr);
  ASSERT_EQ(expected->num_rows(), static_cast<uint64_t>(k));
  auto [oracle, fenced] = Charges(*plan, 1);
  EXPECT_LT(fenced, oracle);
}

TEST_F(LateMaterializationTest, FenceOnADateKeyDescending) {
  // q.born: a date with NULLs and ~30 rows per day, read through row ids
  // and fenced as its day number.
  auto plan = OrderLimit(Bridge(), {{"q.born", false}}, 20);
  auto sgt = static_cast<plan::PhysScanGraphTable*>(
      plan->children[0]->children[0].get());
  sgt->projections.push_back({"q", "born", "q.born"});
  auto expected = ExpectExactParity(*plan, /*prunes=*/true);
  ASSERT_NE(expected, nullptr);
  EXPECT_EQ(expected->schema().column(5).type, LogicalType::kDate);
  EXPECT_EQ(expected->GetValue(0, 5), Value::Date(399));
  EXPECT_EQ(Profile(*plan).late_gather_cols(), 6u);
  auto [oracle, fenced] = Charges(*plan, 1);
  EXPECT_LT(fenced, oracle);
}

TEST_F(LateMaterializationTest, UnsortedDictionaryIsFencedByString) {
  // ORDER BY q.name is fenced while Person.name's dictionary is sorted.
  // Appending a novel name below the current maximum clears the sorted
  // flag: the sink and the fence then compare the key's strings instead of
  // its codes, and the fence still prunes.
  auto plan = OrderLimit(Bridge(), {{"q.name", true}}, 20);
  auto [oracle_sorted, fenced] = Charges(*plan, 1);
  EXPECT_LT(fenced, oracle_sorted);

  auto person = db_.catalog().GetTable("Person");
  ASSERT_TRUE(person.ok());
  ASSERT_TRUE((*person)
                  ->AppendRow({Value::Int(kPeople), Value::String("m-late"),
                               Value::Null(), Value::Int(0), Value::Null(),
                               Value::Null()})
                  .ok());
  const Column* name = (*person)->FindColumn("name");
  ASSERT_NE(name->dictionary(), nullptr);
  ASSERT_FALSE(name->dictionary()->sorted);
  ExpectExactParity(*plan, /*prunes=*/true);
  auto [oracle, fenced_by_string] = Charges(*plan, 1);
  EXPECT_LT(fenced_by_string, oracle);
}

TEST_F(LateMaterializationTest, FourWorkersShareTheFenceOverManyMorsels) {
  // p is bound by the ScanVertex source, whose morsels the 4 workers
  // claim concurrently: each fences the others' rows with its own k-th
  // key. The rows must still match the reference one by one.
  for (const plan::SortKey& key :
       {plan::SortKey{"p.name", true}, plan::SortKey{"p.name", false},
        plan::SortKey{"q.score", false}}) {
    SCOPED_TRACE(key.column + (key.ascending ? " ASC" : " DESC"));
    auto plan = OrderLimit(Bridge(), {key}, 50);
    auto expected = ExpectExactParity(*plan, /*prunes=*/true);
    ASSERT_NE(expected, nullptr);
    for (int run = 0; run < 8; ++run) {
      ExecutionOptions options;
      options.num_threads = 4;
      ExecutionContext ctx(&db_.catalog(), &db_.mapping(), &db_.index(),
                           options);
      auto actual = exec::pipeline::Run(*plan, &ctx);
      ASSERT_TRUE(actual.ok()) << actual.status().ToString();
      EXPECT_EQ(testing::ExactRows(**actual), testing::ExactRows(*expected))
          << "run " << run;
    }
  }
}

// ---------------------------------------------------------------------------
// The fence on the other binder kinds: GET_VERTEX, an EXPAND_INTERSECT
// target, and an edge variable bound by EXPAND, EXPAND_INTERSECT or
// EDGE_VERIFY. Each prunes its new rows before gathering its input.
// ---------------------------------------------------------------------------

/// `graph` under a pi-hat of `projections` ({var, column}, output
/// "var.column") with the given vertex and edge variables, then ORDER BY
/// `key` LIMIT `limit`.
std::unique_ptr<plan::PhysicalOp> FencedPlan(
    std::unique_ptr<plan::PhysicalOp> graph,
    const std::vector<std::pair<std::string, std::string>>& projections,
    std::vector<std::pair<std::string, int>> vertex_vars,
    std::vector<std::pair<std::string, int>> edge_vars, plan::SortKey key,
    int64_t limit) {
  auto sgt = std::make_unique<plan::PhysScanGraphTable>();
  for (const auto& [var, column] : projections) {
    sgt->projections.push_back({var, column, var + "." + column});
  }
  sgt->vertex_var_labels = std::move(vertex_vars);
  sgt->edge_var_labels = std::move(edge_vars);
  sgt->children.push_back(std::move(graph));
  auto order = std::make_unique<plan::PhysOrderBy>();
  order->keys = {std::move(key)};
  order->children.push_back(std::move(sgt));
  auto node = std::make_unique<plan::PhysLimit>();
  node->limit = limit;
  node->children.push_back(std::move(order));
  return node;
}

/// SCAN_VERTEX p, then EXPAND `from` -> `to` over Knows (binding `edge`
/// when non-empty).
std::unique_ptr<plan::PhysicalOp> KnowsHop(
    const Database& db, std::unique_ptr<plan::PhysicalOp> child,
    const std::string& from, const std::string& to,
    const std::string& edge = "") {
  if (child == nullptr) {
    auto scan = std::make_unique<plan::PhysScanVertex>();
    scan->vertex_label = db.mapping().FindVertexLabel("Person");
    scan->var = from;
    child = std::move(scan);
  }
  auto expand = std::make_unique<plan::PhysExpand>();
  expand->edge_label = db.mapping().FindEdgeLabel("Knows");
  expand->dir = graph::Direction::kOut;
  expand->from_var = from;
  expand->to_var = to;
  expand->edge_var = edge;
  expand->children.push_back(std::move(child));
  return expand;
}

TEST_F(LateMaterializationTest, FenceOnAGetVertexTarget) {
  // EXPAND_EDGE binds the Knows edge k, GET_VERTEX binds its target q, and
  // the first key reads q: GET_VERTEX prunes its one-row-per-input output,
  // which then passes its input through under a selection.
  const int person = db_.mapping().FindVertexLabel("Person");
  const int knows = db_.mapping().FindEdgeLabel("Knows");
  for (const plan::SortKey& key :
       {plan::SortKey{"q.name", false}, plan::SortKey{"q.score", true}}) {
    SCOPED_TRACE(key.column + (key.ascending ? " ASC" : " DESC"));
    auto graph = [&]() {
      auto scan = std::make_unique<plan::PhysScanVertex>();
      scan->vertex_label = person;
      scan->var = "p";
      auto edge = std::make_unique<plan::PhysExpandEdge>();
      edge->edge_label = knows;
      edge->from_var = "p";
      edge->edge_var = "k";
      edge->children.push_back(std::move(scan));
      auto get = std::make_unique<plan::PhysGetVertex>();
      get->edge_label = knows;
      get->edge_var = "k";
      get->to_var = "q";
      get->children.push_back(std::move(edge));
      return get;
    };
    auto plan =
        FencedPlan(graph(), {{"p", "name"}, {"q", "name"}, {"q", "score"}},
                   {{"p", person}, {"q", person}}, {}, key, 30);
    auto expected = ExpectExactParity(*plan, /*prunes=*/true);
    ASSERT_NE(expected, nullptr);
    ASSERT_EQ(expected->num_rows(), 30u);
    auto [oracle, fenced] = Charges(*plan, 1);
    EXPECT_LT(fenced, oracle);
  }
}

TEST_F(LateMaterializationTest, FenceOnAnExpandIntersectTarget) {
  // p -> q -> r, then EXPAND_INTERSECT binds every c with p -> c -> r: six
  // rows per p, ~37k in all, fenced on c's age (heavy ties at the cut) or
  // name. With the first edge variable bound, the fence reads column 0 of
  // the new columns while column 1 holds edge row ids.
  const int person = db_.mapping().FindVertexLabel("Person");
  const int knows = db_.mapping().FindEdgeLabel("Knows");
  for (const plan::SortKey& key :
       {plan::SortKey{"c.age", true}, plan::SortKey{"c.name", false}}) {
    for (const char* e1 : {"", "e1"}) {
      SCOPED_TRACE(key.column + (key.ascending ? " ASC" : " DESC") +
                   " e1=" + e1);
      auto intersect = std::make_unique<plan::PhysExpandIntersect>();
      intersect->edge_labels = {knows, knows};
      intersect->dirs = {graph::Direction::kOut, graph::Direction::kIn};
      intersect->from_vars = {"p", "r"};
      intersect->edge_vars = {e1, ""};
      intersect->to_var = "c";
      intersect->children.push_back(
          KnowsHop(db_, KnowsHop(db_, nullptr, "p", "q"), "q", "r"));
      auto plan = FencedPlan(std::move(intersect),
                             {{"p", "name"}, {"c", "age"}, {"c", "name"}},
                             {{"p", person}, {"c", person}}, {}, key, 25);
      auto expected = ExpectExactParity(*plan, /*prunes=*/true);
      ASSERT_NE(expected, nullptr);
      ASSERT_EQ(expected->num_rows(), 25u);
      auto [oracle, fenced] = Charges(*plan, 1);
      EXPECT_LT(fenced, oracle);
    }
  }
}

TEST_F(LateMaterializationTest, FenceOnAnEdgeVariable) {
  // The first key is the Knows edge's weight, bound as EXPAND's second new
  // column (after its target), as EXPAND_INTERSECT's edge variable (after
  // its target q), or as EDGE_VERIFY's only one. The weight scatters
  // independently of every row id, so a fence that read the target's row
  // ids instead would drop rows of the top k.
  const int person = db_.mapping().FindVertexLabel("Person");
  const int knows = db_.mapping().FindEdgeLabel("Knows");
  auto expand = [&]() { return KnowsHop(db_, nullptr, "p", "q", "k"); };
  auto intersect = [&]() {  // every q with p -[k]-> q -> r, after p -> x -> r
    auto op = std::make_unique<plan::PhysExpandIntersect>();
    op->edge_labels = {knows, knows};
    op->dirs = {graph::Direction::kOut, graph::Direction::kIn};
    op->from_vars = {"p", "r"};
    op->edge_vars = {"k", ""};
    op->to_var = "q";
    op->children.push_back(
        KnowsHop(db_, KnowsHop(db_, nullptr, "p", "x"), "x", "r"));
    return op;
  };
  auto verify = [&]() {
    auto op = std::make_unique<plan::PhysEdgeVerify>();
    op->edge_label = knows;
    op->src_var = "p";
    op->dst_var = "q";
    op->edge_var = "k";
    op->children.push_back(KnowsHop(db_, nullptr, "p", "q"));
    return op;
  };
  const std::vector<std::pair<
      const char*, std::function<std::unique_ptr<plan::PhysicalOp>()>>>
      binders = {{"EXPAND", expand},
                 {"EXPAND_INTERSECT", intersect},
                 {"EDGE_VERIFY", verify}};
  for (const auto& [name, graph] : binders) {
    for (bool ascending : {true, false}) {
      SCOPED_TRACE(std::string(name) + (ascending ? " ASC" : " DESC"));
      auto plan = FencedPlan(graph(), {{"q", "name"}, {"k", "weight"}},
                             {{"q", person}}, {{"k", knows}},
                             {"k.weight", ascending}, 20);
      auto expected = ExpectExactParity(*plan, /*prunes=*/true);
      ASSERT_NE(expected, nullptr);
      ASSERT_EQ(expected->num_rows(), 20u);
      auto [oracle, fenced] = Charges(*plan, 1);
      EXPECT_LT(fenced, oracle);
    }
  }
}

// ---------------------------------------------------------------------------
// Bounded batches: resumable operators, positions, selection vectors
// ---------------------------------------------------------------------------

using exec::pipeline::kBatchRows;

/// A graph whose hubs overflow a batch from a single input row:
///  * Knows: person 0 -> every other person, plus kParallel extra parallel
///    edges 0 -> 1 (out-degree > 2 * kBatchRows); person 1 -> every person
///    >= 2, three parallel edges each; a chain i -> i + 1 for i >= 2.
///  * Follows: i -> (i + 1) mod N for every i, and i -> 0 for i >= 1.
///  * Likes: persons 0-15 like 128 persons each (2048 = kBatchRows edges
///    in all), persons 16-31 like nobody, person 32 likes the first
///    kLikesHub persons, and persons 33-47 like one person each.
/// Person.age = id mod 7 ties heavily; Person.name is unique.
class BoundedBatchTest : public ::testing::Test {
 protected:
  static constexpr int64_t kPeople = 4500;
  static constexpr int64_t kParallel = kBatchRows + 5;
  static constexpr int64_t kLikesHub = 3000;

  void SetUp() override {
    using storage::ColumnDef;
    using storage::Schema;
    auto person = db_.CreateTable(
        "Person", Schema({ColumnDef{"person_id", LogicalType::kInt64},
                          ColumnDef{"name", LogicalType::kString},
                          ColumnDef{"age", LogicalType::kInt64}}));
    ASSERT_TRUE(person.ok());
    for (const char* name : {"Knows", "Follows", "Likes"}) {
      auto edges = db_.CreateTable(
          name, Schema({ColumnDef{"eid", LogicalType::kInt64},
                        ColumnDef{"pid1", LogicalType::kInt64},
                        ColumnDef{"pid2", LogicalType::kInt64}}));
      ASSERT_TRUE(edges.ok());
    }
    auto knows = *db_.catalog().GetTable("Knows");
    auto follows = *db_.catalog().GetTable("Follows");
    auto likes = *db_.catalog().GetTable("Likes");
    auto add = [](const storage::TablePtr& t, int64_t from, int64_t to) {
      ASSERT_TRUE(t->AppendRow({Value::Int(static_cast<int64_t>(t->num_rows())),
                                Value::Int(from), Value::Int(to)})
                      .ok());
    };
    for (int64_t i = 0; i < kPeople; ++i) {
      ASSERT_TRUE((*person)
                      ->AppendRow({Value::Int(i),
                                   Value::String("n" + std::to_string(i)),
                                   Value::Int(i % 7)})
                      .ok());
      if (i > 0) add(knows, 0, i);
      if (i >= 2) {
        for (int k = 0; k < 3; ++k) add(knows, 1, i);
        if (i + 1 < kPeople) add(knows, i, i + 1);
      }
      add(follows, i, (i + 1) % kPeople);
      if (i >= 1) add(follows, i, 0);
    }
    for (int64_t k = 0; k < kParallel; ++k) add(knows, 0, 1);
    for (int64_t p = 0; p < 16; ++p) {
      for (int64_t j = 0; j < 128; ++j) add(likes, p, p * 128 + j);
    }
    for (int64_t j = 0; j < kLikesHub; ++j) add(likes, 32, j);
    for (int64_t p = 33; p < 48; ++p) add(likes, p, p + 100);
    ASSERT_TRUE(db_.AddVertexTable("Person", "person_id").ok());
    for (const char* name : {"Knows", "Follows", "Likes"}) {
      ASSERT_TRUE(db_.AddEdgeTable(name, "Person", "pid1", "Person", "pid2")
                      .ok());
    }
    ASSERT_TRUE(db_.Finalize().ok());
    person_ = db_.mapping().FindVertexLabel("Person");
    knows_ = db_.mapping().FindEdgeLabel("Knows");
    follows_ = db_.mapping().FindEdgeLabel("Follows");
    likes_ = db_.mapping().FindEdgeLabel("Likes");
  }

  /// SCAN_VERTEX `var` restricted to the person with id `id`.
  std::unique_ptr<plan::PhysicalOp> Person(const std::string& var,
                                           int64_t id) {
    auto scan = std::make_unique<plan::PhysScanVertex>();
    scan->vertex_label = person_;
    scan->var = var;
    scan->filter = Expr::Eq("person_id", Value::Int(id));
    return scan;
  }

  std::unique_ptr<plan::PhysicalOp> Expand(
      std::unique_ptr<plan::PhysicalOp> child, int label, std::string from,
      std::string to, std::string edge = "", bool use_index = true) {
    auto op = std::make_unique<plan::PhysExpand>();
    op->edge_label = label;
    op->from_var = std::move(from);
    op->to_var = std::move(to);
    op->edge_var = std::move(edge);
    op->use_index = use_index;
    op->children.push_back(std::move(child));
    return op;
  }

  /// Expand() with the target filter `filter`: over the graph index and a
  /// hop whose max degree exceeds 1, the memoized filtered path.
  std::unique_ptr<plan::PhysicalOp> FilteredExpand(
      std::unique_ptr<plan::PhysicalOp> child, int label, std::string from,
      std::string to, storage::ExprPtr filter, std::string edge = "") {
    auto op = Expand(std::move(child), label, std::move(from), std::move(to),
                     std::move(edge));
    static_cast<plan::PhysExpand&>(*op).vertex_filter = std::move(filter);
    return op;
  }

  /// SCAN_VERTEX `var` over the persons whose `column` compares `cmp`
  /// against `value`.
  std::unique_ptr<plan::PhysicalOp> Persons(const std::string& var,
                                            const std::string& column,
                                            storage::CompareOp cmp,
                                            int64_t value) {
    auto scan = std::make_unique<plan::PhysScanVertex>();
    scan->vertex_label = person_;
    scan->var = var;
    scan->filter = Where(column, cmp, value);
    return scan;
  }

  /// The Person predicate `column` `cmp` `value`.
  static storage::ExprPtr Where(const std::string& column,
                              storage::CompareOp cmp, int64_t value) {
    return Expr::Compare(cmp, Expr::Column(column),
                         Expr::Constant(Value::Int(value)));
  }

  /// The calls an operator makes when every source morsel reaches it as
  /// one input batch: per morsel, ceil(rows / kBatchRows) of the oracle's
  /// rows whose source row id `var` lies in it, and at least one.
  uint64_t CallsPerMorsel(const plan::PhysicalOp& op, const std::string& var) {
    ExecutionContext ctx(&db_.catalog(), &db_.mapping(), &db_.index());
    auto result = Executor::Run(op, &ctx);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (!result.ok()) return 0;
    const Column* source = (*result)->FindColumn(var);
    EXPECT_NE(source, nullptr);
    if (source == nullptr) return 0;
    std::map<int64_t, uint64_t> rows;  // morsel -> rows
    for (uint64_t r = 0; r < source->size(); ++r) {
      rows[source->int_at(r) / static_cast<int64_t>(kBatchRows)]++;
    }
    uint64_t calls = 0;
    for (int64_t m = 0; m * static_cast<int64_t>(kBatchRows) < kPeople; ++m) {
      calls += std::max<uint64_t>(1, (rows[m] + kBatchRows - 1) / kBatchRows);
    }
    return calls;
  }

  /// pi-hat COLUMNS(var.column AS var.column, ...) over Person vars.
  std::unique_ptr<plan::PhysicalOp> Bridge(
      std::unique_ptr<plan::PhysicalOp> child,
      const std::vector<std::pair<std::string, std::string>>& columns) {
    auto sgt = std::make_unique<plan::PhysScanGraphTable>();
    std::set<std::string> vars;
    for (const auto& [var, column] : columns) {
      sgt->projections.push_back({var, column, var + "." + column});
      vars.insert(var);
    }
    for (const auto& var : vars) {
      sgt->vertex_var_labels.push_back({var, person_});
    }
    sgt->children.push_back(std::move(child));
    return sgt;
  }

  /// ORDER BY `keys` (when non-empty) under LIMIT `limit` (when >= 0).
  static std::unique_ptr<plan::PhysicalOp> OrderLimit(
      std::unique_ptr<plan::PhysicalOp> child,
      std::vector<plan::SortKey> keys, int64_t limit) {
    if (!keys.empty()) {
      auto order = std::make_unique<plan::PhysOrderBy>();
      order->keys = std::move(keys);
      order->children.push_back(std::move(child));
      child = std::move(order);
    }
    if (limit < 0) return child;
    auto node = std::make_unique<plan::PhysLimit>();
    node->limit = limit;
    node->children.push_back(std::move(child));
    return node;
  }

  /// Row-for-row parity with the reference interpreter at 1 and 4 threads
  /// (rows, order, schema, and the row-budget charge: the oracle's, or at
  /// most the oracle's when the plan `prunes` through a plain LIMIT's early
  /// exit or the top-k fence), then a profiled run, where both are off,
  /// asserting the oracle's exact charge and that no source, operator or
  /// sink call handled more than kBatchRows rows. Returns the oracle rows.
  std::vector<std::string> ExpectBoundedParity(const plan::PhysicalOp& op,
                                               bool prunes = false) {
    ExecutionContext oracle_ctx(&db_.catalog(), &db_.mapping(), &db_.index());
    auto expected = Executor::Run(op, &oracle_ctx);
    EXPECT_TRUE(expected.ok()) << expected.status().ToString();
    if (!expected.ok()) return {};
    for (int threads : {1, 4}) {
      ExecutionOptions options;
      options.num_threads = threads;
      ExecutionContext ctx(&db_.catalog(), &db_.mapping(), &db_.index(),
                           options);
      auto actual = exec::pipeline::Run(op, &ctx);
      EXPECT_TRUE(actual.ok())
          << "threads=" << threads << ": " << actual.status().ToString();
      if (!actual.ok()) continue;
      EXPECT_EQ(testing::ExactRows(**actual), testing::ExactRows(**expected))
          << "threads=" << threads;
      EXPECT_EQ((*actual)->schema().ToString(),
                (*expected)->schema().ToString())
          << "threads=" << threads;
      if (prunes) {
        EXPECT_LE(ctx.rows_produced(), oracle_ctx.rows_produced())
            << "threads=" << threads;
      } else {
        EXPECT_EQ(ctx.rows_produced(), oracle_ctx.rows_produced())
            << "threads=" << threads;
      }
    }

    exec::QueryProfile profile;
    ExecutionOptions options;
    options.num_threads = 1;
    ExecutionContext ctx(&db_.catalog(), &db_.mapping(), &db_.index(),
                         options);
    ctx.EnableProfiling(&profile);
    EXPECT_TRUE(exec::pipeline::Run(op, &ctx).ok());
    EXPECT_EQ(ctx.rows_produced(), oracle_ctx.rows_produced());
    std::vector<const plan::PhysicalOp*> stack = {&op};
    while (!stack.empty()) {
      const plan::PhysicalOp* node = stack.back();
      stack.pop_back();
      if (const exec::OperatorProfile* prof = profile.Find(node)) {
        EXPECT_LE(prof->max_batch_rows, kBatchRows) << node->Describe();
      }
      for (const auto& child : node->children) stack.push_back(child.get());
    }
    return testing::ExactRows(**expected);
  }

  /// The profiled call count of `node` in a 1-thread run of `root`.
  uint64_t Calls(const plan::PhysicalOp& root, const plan::PhysicalOp& node) {
    exec::QueryProfile profile;
    ExecutionOptions options;
    options.num_threads = 1;
    ExecutionContext ctx(&db_.catalog(), &db_.mapping(), &db_.index(),
                         options);
    ctx.EnableProfiling(&profile);
    EXPECT_TRUE(exec::pipeline::Run(root, &ctx).ok());
    const exec::OperatorProfile* prof = profile.Find(&node);
    return prof == nullptr ? 0 : prof->invocations;
  }

  Database db_;
  int person_ = -1, knows_ = -1, follows_ = -1, likes_ = -1;
};

TEST_F(BoundedBatchTest, HubExpansionResumesInsideTheAdjacency) {
  // One input row, 2 * kBatchRows + 2.4k output rows: index and hash
  // paths, with and without the edge binding.
  for (bool use_index : {true, false}) {
    for (const char* edge : {"", "k"}) {
      SCOPED_TRACE(std::string("use_index=") + (use_index ? "1" : "0") +
                   " edge=" + edge);
      auto plan = Expand(Person("p", 0), knows_, "p", "q", edge, use_index);
      auto rows = ExpectBoundedParity(*plan);
      EXPECT_EQ(rows.size(), static_cast<size_t>(kPeople - 1 + kParallel));
      // Exact bound: ceil(rows / kBatchRows) output batches, no more.
      EXPECT_EQ(Calls(*plan, *plan),
                (rows.size() + kBatchRows - 1) / kBatchRows);
    }
  }
}

TEST_F(BoundedBatchTest, ExpansionFillsABatchAtTheEndOfARun) {
  // Persons 0-31 are one source batch. The Likes runs of persons 0-15
  // fill exactly kBatchRows rows at the end of person 15's run, and
  // persons 16-31 have none: one call takes the whole input, with no
  // empty trailing call. Up to person 47, the hub's 3000 rows follow:
  // the first call stops before the hub, the second stops inside its run
  // and the third resumes there, edge binding included.
  auto scan = [&](int64_t below) {
    auto op = std::make_unique<plan::PhysScanVertex>();
    op->vertex_label = person_;
    op->var = "p";
    op->filter = Expr::Compare(storage::CompareOp::kLt,
                               Expr::Column("person_id"),
                               Expr::Constant(Value::Int(below)));
    return op;
  };
  for (bool use_index : {true, false}) {
    for (const char* edge : {"", "l"}) {
      SCOPED_TRACE(std::string("use_index=") + (use_index ? "1" : "0") +
                   " edge=" + edge);
      auto exact = Expand(scan(32), likes_, "p", "q", edge, use_index);
      EXPECT_EQ(ExpectBoundedParity(*exact).size(), kBatchRows);
      EXPECT_EQ(Calls(*exact, *exact), 1u);

      auto hub = Expand(scan(48), likes_, "p", "q", edge, use_index);
      EXPECT_EQ(ExpectBoundedParity(*hub).size(),
                static_cast<size_t>(kBatchRows + kLikesHub + 15));
      EXPECT_EQ(Calls(*hub, *hub), 3u);
    }
  }
  // The filtered path grows its outputs from one row per input row and
  // resumes inside the hub's run too: the exact bound, ceil(rows /
  // kBatchRows) calls.
  for (const char* edge : {"", "l"}) {
    SCOPED_TRACE(std::string("filtered edge=") + edge);
    auto filtered = Expand(scan(48), likes_, "p", "q", edge);
    static_cast<plan::PhysExpand&>(*filtered).vertex_filter =
        Expr::Compare(storage::CompareOp::kNe, Expr::Column("age"),
                      Expr::Constant(Value::Int(3)));
    auto rows = ExpectBoundedParity(*filtered);
    EXPECT_GT(rows.size(), 2 * kBatchRows);
    EXPECT_EQ(Calls(*filtered, *filtered),
              (rows.size() + kBatchRows - 1) / kBatchRows);
  }
}

TEST_F(BoundedBatchTest, MemoizedExpansionOfAHubAcrossRowsCallsAndMorsels) {
  // The age-0 persons (every 7th, over three source morsels) all follow
  // person 0, so 0 is the source of the filtered Likes hop in 642 rows,
  // spread over every morsel and over several calls of each: each copies
  // the same memoized run (0's age-1 likes). Each morsel reaches the hop as
  // one batch.
  using storage::CompareOp;
  for (const char* edge : {"", "l"}) {
    SCOPED_TRACE(std::string("edge=") + edge);
    auto plan = FilteredExpand(
        Expand(Persons("p", "age", CompareOp::kEq, 0), follows_, "p", "h"),
        likes_, "h", "q", Where("age", CompareOp::kEq, 1), edge);
    auto rows = ExpectBoundedParity(*plan);
    EXPECT_GT(rows.size(), 4 * kBatchRows);
    EXPECT_EQ(Calls(*plan, *plan), CallsPerMorsel(*plan, "p"));
  }
}

TEST_F(BoundedBatchTest, MemoizedExpansionResumesInsideAFilteredRun) {
  // Persons 0-2 follow 1; 0 and 2; 0 and 3: source 0 of the filtered Knows
  // hop repeats. Its filtered run (kParallel + 1 edges to person 1, then
  // every person whose age is not 3) is longer than a batch, so calls stop
  // and resume inside it, where a position in the run is not an index
  // into the raw adjacency. Source 2's run is empty (3 fails the filter).
  using storage::CompareOp;
  for (const char* edge : {"", "k"}) {
    SCOPED_TRACE(std::string("edge=") + edge);
    auto plan = FilteredExpand(
        Expand(Persons("p", "person_id", CompareOp::kLt, 3), follows_, "p",
               "h"),
        knows_, "h", "q", Where("age", CompareOp::kNe, 3), edge);
    auto rows = ExpectBoundedParity(*plan);
    EXPECT_GT(rows.size(), 2 * static_cast<size_t>(kParallel));
    EXPECT_EQ(Calls(*plan, *plan), (rows.size() + kBatchRows - 1) / kBatchRows);
  }
}

TEST_F(BoundedBatchTest, MemoizedExpansionOfASourceWithNoPassingNeighbor) {
  // Person 1 reaches person 2 over three parallel Knows edges, and 2 knows
  // only 3, whose age (3) fails the filter: the empty run of 2 is looked up
  // three times and the one call emits nothing.
  using storage::CompareOp;
  auto none = FilteredExpand(
      FilteredExpand(Person("p", 1), knows_, "p", "h",
                     Where("person_id", CompareOp::kEq, 2)),
      knows_, "h", "q", Where("age", CompareOp::kNe, 3));
  EXPECT_TRUE(ExpectBoundedParity(*none).empty());
  EXPECT_EQ(Calls(*none, *none), 1u);

  // Unfiltered, the first hop binds h = 2, 2, 2, 3, 3, 3, ... in full
  // batches; each h knows only h + 1, so one call per input batch, in
  // which every third source triple (h + 1 of age 3) has an empty run.
  auto some = FilteredExpand(Expand(Person("p", 1), knows_, "p", "h"),
                             knows_, "h", "q", Where("age", CompareOp::kNe, 3));
  auto rows = ExpectBoundedParity(*some);
  EXPECT_GT(rows.size(), 2 * kBatchRows);
  EXPECT_EQ(Calls(*some, *some),
            (3 * (kPeople - 2) + kBatchRows - 1) / kBatchRows);
}

TEST_F(BoundedBatchTest, TwoMemoizedExpansionsInOnePipeline) {
  // Filtered Knows from persons 0-2, then filtered Follows from its
  // targets, which include persons 1 and 2 again: each hop filters its own
  // adjacency with its own filter, so each keeps its own memo. Each h
  // follows h + 1 and 0, and the second filter drops 0: one output row per
  // input row at most, so the second hop makes one call per batch of the
  // first.
  using storage::CompareOp;
  for (const char* edge : {"", "e"}) {
    SCOPED_TRACE(std::string("edge=") + edge);
    auto first = FilteredExpand(Persons("p", "person_id", CompareOp::kLt, 3),
                                knows_, "p", "h",
                                Where("age", CompareOp::kNe, 3), edge);
    const plan::PhysicalOp* first_op = first.get();
    auto plan = FilteredExpand(std::move(first), follows_, "h", "q",
                               Where("age", CompareOp::kNe, 0),
                               *edge == 0 ? "" : "f");
    auto rows = ExpectBoundedParity(*plan);
    EXPECT_GT(rows.size(), 4 * kBatchRows);
    const uint64_t first_calls = Calls(*plan, *first_op);
    ExecutionContext ctx(&db_.catalog(), &db_.mapping(), &db_.index());
    auto h_rows = Executor::Run(*first_op, &ctx);
    ASSERT_TRUE(h_rows.ok());
    EXPECT_EQ(first_calls,
              ((*h_rows)->num_rows() + kBatchRows - 1) / kBatchRows);
    EXPECT_EQ(Calls(*plan, *plan), first_calls);
  }
}

TEST_F(BoundedBatchTest, MemoizedRunsDoNotOutliveTheirExecution) {
  // Back-to-back executions of one plan shape whose filters differ, on one
  // thread and on four: every execution filters afresh.
  using storage::CompareOp;
  for (int64_t age : {1, 2, 1}) {
    SCOPED_TRACE("age=" + std::to_string(age));
    auto plan = FilteredExpand(
        Expand(Persons("p", "person_id", CompareOp::kLt, 3), follows_, "p",
               "h"),
        knows_, "h", "q", Where("age", CompareOp::kEq, age));
    EXPECT_FALSE(ExpectBoundedParity(*plan).empty());
  }
}

TEST_F(BoundedBatchTest, FencedMemoizedExpansion) {
  // IC9-2's shape: sources repeat (the age-0 persons all follow person 0),
  // the memoized hop binds q, and ORDER BY q.person_id DESC LIMIT 20 fences
  // it: rows are pruned after they are charged, and parity holds.
  using storage::CompareOp;
  for (const char* edge : {"", "l"}) {
    SCOPED_TRACE(std::string("edge=") + edge);
    auto graph = FilteredExpand(
        Expand(Persons("p", "age", CompareOp::kEq, 0), follows_, "p", "h"),
        likes_, "h", "q", Where("age", CompareOp::kEq, 1), edge);
    const plan::PhysicalOp* hop = graph.get();
    auto plan =
        OrderLimit(Bridge(std::move(graph), {{"q", "person_id"}, {"p", "name"}}),
                   {plan::SortKey{"q.person_id", false}}, 20);
    EXPECT_EQ(ExpectBoundedParity(*plan, /*prunes=*/true).size(), 20u);
    EXPECT_EQ(Calls(*plan, *hop), CallsPerMorsel(*hop, "p"));
    ExecutionContext oracle_ctx(&db_.catalog(), &db_.mapping(), &db_.index());
    ASSERT_TRUE(Executor::Run(*plan, &oracle_ctx).ok());
    ExecutionOptions options;
    options.num_threads = 1;
    ExecutionContext ctx(&db_.catalog(), &db_.mapping(), &db_.index(),
                         options);
    ASSERT_TRUE(exec::pipeline::Run(*plan, &ctx).ok());
    EXPECT_LT(ctx.rows_produced(), oracle_ctx.rows_produced());
  }
}

TEST_F(BoundedBatchTest, HubExpandEdgeGetVertexAndRidExpandJoin) {
  auto expand_edge = std::make_unique<plan::PhysExpandEdge>();
  expand_edge->edge_label = knows_;
  expand_edge->from_var = "p";
  expand_edge->edge_var = "k";
  expand_edge->children.push_back(Person("p", 1));
  plan::PhysGetVertex get;
  get.edge_label = knows_;
  get.edge_var = "k";
  get.to_var = "q";
  get.children.push_back(std::move(expand_edge));
  EXPECT_EQ(ExpectBoundedParity(get).size(), 3u * (kPeople - 2));

  auto scan = std::make_unique<plan::PhysScanTable>();
  scan->table = "Person";
  scan->alias = "p";
  scan->filter = Expr::Eq("person_id", Value::Int(0));
  scan->emit_rowid = true;
  plan::PhysRidExpandJoin rid;
  rid.edge_label = knows_;
  rid.vertex_rowid_column = "p.$rid";
  rid.edge_alias = "k";
  rid.edge_columns = {"pid2"};
  rid.emit_edge_rowid = true;
  rid.children.push_back(std::move(scan));
  EXPECT_EQ(ExpectBoundedParity(rid).size(),
            static_cast<size_t>(kPeople - 1 + kParallel));
}

TEST_F(BoundedBatchTest, IntersectAndEdgeVerifyResumeInsideOneRow) {
  // p = 0 follows only q = 1. N(0) and N(1) share every person >= 2, and
  // person 1 reaches each of them over three parallel edges: one input row
  // yields 3 * (N - 2) rows, and kBatchRows is not a multiple of 3, so
  // batches end inside a candidate's cross product.
  plan::PhysExpandIntersect intersect;
  intersect.edge_labels = {knows_, knows_};
  intersect.dirs = {graph::Direction::kOut, graph::Direction::kOut};
  intersect.from_vars = {"p", "q"};
  intersect.edge_vars = {"e1", "e2"};
  intersect.to_var = "c";
  intersect.children.push_back(Expand(Person("p", 0), follows_, "p", "q"));
  EXPECT_EQ(ExpectBoundedParity(intersect).size(), 3u * (kPeople - 2));
  intersect.edge_vars = {"", ""};
  EXPECT_EQ(ExpectBoundedParity(intersect).size(), 3u * (kPeople - 2));

  // The edge 0 -> 1 runs kParallel + 1 times: EDGE_VERIFY emits more than
  // kBatchRows rows for its single input row.
  for (bool use_index : {true, false}) {
    SCOPED_TRACE(use_index ? "index" : "hash");
    plan::PhysEdgeVerify verify;
    verify.edge_label = knows_;
    verify.src_var = "p";
    verify.dst_var = "q";
    verify.edge_var = "k";
    verify.use_index = use_index;
    verify.children.push_back(Expand(Person("p", 0), follows_, "p", "q"));
    EXPECT_EQ(ExpectBoundedParity(verify).size(),
              static_cast<size_t>(kParallel + 1));
  }
}

TEST_F(BoundedBatchTest, HashJoinKeyWithMoreMatchesThanABatch) {
  // One probe row whose key matches every Knows edge leaving person 0.
  auto probe = std::make_unique<plan::PhysScanTable>();
  probe->table = "Person";
  probe->alias = "p";
  probe->filter = Expr::Eq("person_id", Value::Int(0));
  auto build = std::make_unique<plan::PhysScanTable>();
  build->table = "Knows";
  build->alias = "k";
  plan::PhysHashJoin join;
  join.left_keys = {"p.person_id"};
  join.right_keys = {"k.pid1"};
  join.children.push_back(std::move(probe));
  join.children.push_back(std::move(build));
  EXPECT_EQ(ExpectBoundedParity(join).size(),
            static_cast<size_t>(kPeople - 1 + kParallel));
}

TEST_F(BoundedBatchTest, ForeignKeyJoinKeepsItsProbeUnderASelection) {
  // The probe side stays selected (VERTEX_FILTER, then a pi-hat of row
  // ids only) and every probe row matches at most one build row (the
  // build is Person keyed on its row id, minus the age-3 rows): the probe
  // columns pass through under a selection, with the unmatched rows
  // dropped and only the build columns gathered.
  auto vf = std::make_unique<plan::PhysVertexFilter>();
  vf->var = "q";
  vf->label = person_;
  vf->predicate = Expr::Compare(storage::CompareOp::kNe, Expr::Column("age"),
                                Expr::Constant(Value::Int(1)));
  vf->children.push_back(Expand(Person("p", 0), knows_, "p", "q"));
  auto sgt = std::make_unique<plan::PhysScanGraphTable>();
  sgt->projections = {{"q", "$rid", "q_rid"}};
  sgt->vertex_var_labels = {{"q", person_}};
  sgt->children.push_back(std::move(vf));
  auto build = std::make_unique<plan::PhysScanTable>();
  build->table = "Person";
  build->alias = "r";
  build->emit_rowid = true;
  build->filter = Expr::Compare(storage::CompareOp::kNe, Expr::Column("age"),
                                Expr::Constant(Value::Int(3)));
  plan::PhysHashJoin join;
  join.left_keys = {"q_rid"};
  join.right_keys = {"r.$rid"};
  join.children.push_back(std::move(sgt));
  join.children.push_back(std::move(build));
  EXPECT_GT(ExpectBoundedParity(join).size(), kBatchRows);
}

TEST_F(BoundedBatchTest, OrderByLimitTiesAcrossSubBatchesOfOneMorsel) {
  // One morsel expands into four batches; every age value recurs in each
  // of them, so the LIMIT cut falls inside ties that only the
  // (morsel, offset + row) position orders correctly.
  for (int64_t limit : {30, 3000, -1}) {
    SCOPED_TRACE("limit=" + std::to_string(limit));
    auto plan = OrderLimit(
        Bridge(Expand(Person("p", 0), knows_, "p", "q"),
               {{"q", "age"}, {"q", "name"}}),
        {{"q.age", true}}, limit);
    ExpectBoundedParity(*plan, /*prunes=*/limit >= 0);
  }
}

TEST_F(BoundedBatchTest, GroupByFirstSeenOrderAcrossSubBatches) {
  for (const char* key : {"q.age", "q.name"}) {
    SCOPED_TRACE(key);
    plan::PhysHashAggregate agg;
    agg.group_by = {key};
    agg.aggregates = {{plan::AggFunc::kCount, "", "cnt"},
                      {plan::AggFunc::kMin, "q.name", "first"}};
    agg.children.push_back(Bridge(Expand(Person("p", 0), knows_, "p", "q"),
                                  {{"q", "age"}, {"q", "name"}}));
    ExpectBoundedParity(agg);
  }
}

TEST_F(BoundedBatchTest, PlainLimitAcrossSubBatches) {
  for (int64_t limit : {5, 2100, 5000}) {
    SCOPED_TRACE("limit=" + std::to_string(limit));
    auto plan = OrderLimit(Bridge(Expand(Person("p", 0), knows_, "p", "q"),
                                  {{"q", "name"}}),
                           {}, limit);
    EXPECT_EQ(ExpectBoundedParity(*plan, /*prunes=*/true).size(),
              static_cast<size_t>(limit));
  }
}

TEST_F(BoundedBatchTest, NotEqualExpandBridgeWithDeferredColumns) {
  // NOT_EQUAL and VERTEX_FILTER narrow selection vectors, the EXPAND above
  // folds the selection into its gather, and pi-hat defers the names the
  // FILTER does not read.
  auto build = [&](std::vector<plan::SortKey> keys, int64_t limit) {
    auto hop = Expand(Expand(Person("p", 0), knows_, "p", "q"), follows_,
                      "q", "r");
    auto ne = std::make_unique<plan::PhysNotEqual>();
    ne->var_a = "p";
    ne->var_b = "r";
    ne->children.push_back(std::move(hop));
    auto vf = std::make_unique<plan::PhysVertexFilter>();
    vf->var = "r";
    vf->label = person_;
    vf->predicate = Expr::Compare(storage::CompareOp::kNe, Expr::Column("age"),
                                  Expr::Constant(Value::Int(2)));
    vf->children.push_back(std::move(ne));
    auto sgt = Bridge(Expand(std::move(vf), follows_, "r", "s"),
                      {{"q", "name"}, {"r", "name"}, {"s", "age"},
                       {"s", "name"}});
    auto filter = std::make_unique<plan::PhysFilter>();
    filter->predicate =
        Expr::Compare(storage::CompareOp::kNe, Expr::Column("s.age"),
                      Expr::Constant(Value::Int(3)));
    filter->children.push_back(std::move(sgt));
    return OrderLimit(std::move(filter), std::move(keys), limit);
  };
  ExpectBoundedParity(*build({{"s.age", true}}, 25));
  ExpectBoundedParity(*build({}, 3000), /*prunes=*/true);
  ExpectBoundedParity(*build({}, -1));
}

TEST_F(BoundedBatchTest, OneNeighborHopKeepsItsInputUnderASelection) {
  // VERTEX_FILTER narrows the hub's neighbors to a selection; every
  // person >= 2 then has exactly one Knows neighbor (N - 1 has none), so
  // the second EXPAND emits at most one row per input row and passes its
  // input columns through under a selection, placing only the new
  // binding column. Both the binding table and a pi-hat over it must
  // match the reference.
  auto build = [&]() {
    auto vf = std::make_unique<plan::PhysVertexFilter>();
    vf->var = "q";
    vf->label = person_;
    vf->predicate = Expr::Compare(storage::CompareOp::kNe, Expr::Column("age"),
                                  Expr::Constant(Value::Int(1)));
    vf->children.push_back(Expand(Person("p", 0), knows_, "p", "q"));
    return Expand(std::move(vf), knows_, "q", "r", "k");
  };
  EXPECT_GT(ExpectBoundedParity(*build()).size(), kBatchRows);
  ExpectBoundedParity(*OrderLimit(
      Bridge(build(), {{"q", "name"}, {"r", "age"}, {"r", "name"}}),
      {{"r.age", false}}, 40),
      /*prunes=*/true);
}

TEST_F(BoundedBatchTest, HubExpansionOverBudgetFailsWithinOneBatch) {
  // A single-morsel pipeline whose one input row expands past the row
  // budget: the first bounded batch that crosses it fails the query, so
  // at most one batch of rows is charged beyond the budget.
  constexpr uint64_t kBudget = 3000;
  auto plan = Expand(Person("p", 0), knows_, "p", "q");
  for (int threads : {1, 4}) {
    ExecutionOptions options;
    options.num_threads = threads;
    options.max_total_rows = kBudget;
    ExecutionContext ctx(&db_.catalog(), &db_.mapping(), &db_.index(),
                         options);
    auto result = exec::pipeline::Run(*plan, &ctx);
    ASSERT_FALSE(result.ok()) << "threads=" << threads;
    EXPECT_EQ(result.status().code(), StatusCode::kOutOfMemory);
    EXPECT_LE(ctx.rows_produced(), kBudget + kBatchRows)
        << "threads=" << threads;
  }
}

// Global allocation counter for the allocation test below.
std::atomic<size_t> g_allocations{0};

TEST_F(BoundedBatchTest, ExpansionAllocationsScaleWithBatchesNotRows) {
  plan::PhysExpand phys;
  phys.edge_label = knows_;
  phys.from_var = "p";
  phys.to_var = "q";
  exec::pipeline::ExpandOp op(phys);
  ExecutionContext ctx(&db_.catalog(), &db_.mapping(), &db_.index());
  ASSERT_TRUE(op.Prepare(exec::BindingSchema({"p"}), &ctx).ok());

  // Runs `op` over one batch of the given vertices to exhaustion and
  // returns the allocations each call made.
  auto drive = [&](int64_t first, int64_t count) {
    std::vector<int64_t> ids(static_cast<size_t>(count));
    std::iota(ids.begin(), ids.end(), first);
    Batch in;
    in.AddOwned(Column::OfInts(std::move(ids)));
    in.SetNumRows(static_cast<uint64_t>(count));
    exec::pipeline::Cursor cursor;
    std::vector<size_t> per_call;
    while (cursor.row < in.num_rows()) {
      Batch out;
      size_t before = g_allocations.load();
      EXPECT_TRUE(op.Process(in, &cursor, &out, &ctx).ok());
      per_call.push_back(g_allocations.load() - before);
      EXPECT_LE(out.num_rows(), kBatchRows);
    }
    return per_call;
  };
  // Persons 2.. have out-degree 1: a full batch of input rows and a short
  // one each make one output batch, with the same allocations.
  std::vector<size_t> full = drive(2, kBatchRows);
  std::vector<size_t> short_input = drive(2, 64);
  ASSERT_EQ(full.size(), 1u);
  EXPECT_EQ(short_input, full);
  // The hubs: one input row each, 4 and 7 output batches. Their first
  // calls cost the same, and every resumed call costs one fixed amount —
  // no allocation per adjacency entry.
  std::vector<size_t> hub0 = drive(0, 1);
  std::vector<size_t> hub1 = drive(1, 1);
  ASSERT_EQ(hub0.size(), 4u);
  ASSERT_EQ(hub1.size(), 7u);
  EXPECT_EQ(hub0[0], hub1[0]);
  const size_t resumed = hub0[1];
  EXPECT_LT(resumed, 32u);
  for (size_t i = 1; i < hub1.size(); ++i) {
    EXPECT_EQ(hub1[i], resumed) << "call " << i;
    if (i < hub0.size()) {
      EXPECT_EQ(hub0[i], resumed) << "call " << i;
    }
  }
}

TEST_F(PipelineEngineTest, DatabaseExecuteDispatchesOnEngineKind) {
  auto pattern = db_.ParsePattern(
      "(p1:Person)-[:Likes]->(m:Message), (p2:Person)-[:Likes]->(m), "
      "(p1)-[:Knows]->(p2)");
  ASSERT_TRUE(pattern.ok());
  auto query = plan::SpjmQueryBuilder("triangle")
                   .Match(*pattern)
                   .Column("p1", "name", "a")
                   .Column("p2", "name", "b")
                   .Build();
  auto oracle = db_.Run(query, optimizer::OptimizerMode::kRelGo,
                        testing::OracleOptions());
  ASSERT_TRUE(oracle.ok());
  ExecutionOptions options;
  options.engine = exec::EngineKind::kPipeline;
  options.num_threads = 2;
  auto piped = db_.Run(query, optimizer::OptimizerMode::kRelGo, options);
  ASSERT_TRUE(piped.ok()) << piped.status().ToString();
  EXPECT_EQ(testing::SortedRows(*piped->table),
            testing::SortedRows(*oracle->table));
}

}  // namespace
}  // namespace relgo

// Counts every scalar allocation of the test binary (see g_allocations),
// exactly as breaker_test does: both scalar forms of new are replaced, so
// everything the replaced deletes release came from malloc.
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
