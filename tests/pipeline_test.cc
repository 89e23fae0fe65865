#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>

#include "exec/executor.h"
#include "exec/pipeline/batch.h"
#include "exec/pipeline/engine.h"
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
/// person.
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
                          ColumnDef{"score", LogicalType::kDouble}}));
    ASSERT_TRUE(person.ok());
    auto knows = db_.CreateTable(
        "Knows", Schema({ColumnDef{"knows_id", LogicalType::kInt64},
                         ColumnDef{"pid1", LogicalType::kInt64},
                         ColumnDef{"pid2", LogicalType::kInt64}}));
    ASSERT_TRUE(knows.ok());
    for (int64_t i = 0; i < kPeople; ++i) {
      Value nick = i % 3 == 0 ? Value::Null()
                              : Value::String("nick" + std::to_string(i % 50));
      Value score = i % 5 == 0 ? Value::Null() : Value::Double(0.5 * i);
      ASSERT_TRUE((*person)
                      ->AppendRow({Value::Int(i),
                                   Value::String("n" + std::to_string(i)),
                                   nick, Value::Int(i % 10), score})
                      .ok());
      for (int64_t step : {1, 7}) {
        ASSERT_TRUE((*knows)
                        ->AppendRow({Value::Int(2 * i + (step == 7)),
                                     Value::Int(i),
                                     Value::Int((i + step) % kPeople)})
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
  /// unless a plain LIMIT's early exit skips upstream rows. Returns the
  /// oracle's result.
  storage::TablePtr ExpectExactParity(const plan::PhysicalOp& op,
                                      bool early_exit = false) {
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
      if (!early_exit) {
        EXPECT_EQ(ctx.rows_produced(), oracle_ctx.rows_produced())
            << "threads=" << threads;
      }
    }
    return *expected;
  }

  /// Runs `op` on the pipeline engine with profiling on and returns the
  /// profile (late-gather accounting).
  exec::QueryProfile Profile(const plan::PhysicalOp& op) {
    exec::QueryProfile profile;
    ExecutionOptions options;
    options.num_threads = 1;
    ExecutionContext ctx(&db_.catalog(), &db_.mapping(), &db_.index(),
                         options);
    ctx.EnableProfiling(&profile);
    EXPECT_TRUE(exec::pipeline::Run(op, &ctx).ok());
    return profile;
  }

  Database db_;
};

TEST_F(LateMaterializationTest, TiesAtLimitCutDecidedByDeferredColumns) {
  // Every tenth person has age 0, so ~1.2k binding rows tie on the sort
  // key and the LIMIT cut falls inside the tie: which names, nicks and
  // scores come out depends on gathering the right row ids after the sink.
  auto plan = OrderLimit(Bridge(), {{"p.age", true}}, 25);
  auto expected = ExpectExactParity(*plan);
  ASSERT_NE(expected, nullptr);
  ASSERT_EQ(expected->num_rows(), 25u);
  std::set<std::string> names;
  for (uint64_t r = 0; r < expected->num_rows(); ++r) {
    EXPECT_EQ(expected->GetValue(r, 0), Value::Int(0));
    names.insert(expected->GetValue(r, 2).ToString());
  }
  EXPECT_GT(names.size(), 1u) << "the tie must be decided by other columns";

  // The deferral actually happens: four properties (all but the sort key)
  // are gathered for the 25 kept rows only.
  exec::QueryProfile profile = Profile(*plan);
  EXPECT_EQ(profile.late_gathers(), 1u);
  EXPECT_EQ(profile.late_gather_cols(), 4u);
  EXPECT_EQ(profile.late_gather_rows(), 25u);
}

TEST_F(LateMaterializationTest, NullsInDeferredProperty) {
  // ORDER BY p.age DESC, p.name keeps rows whose deferred q.nick and
  // q.score include NULLs.
  auto plan = OrderLimit(Bridge(), {{"p.age", false}, {"p.name", true}}, 40);
  auto expected = ExpectExactParity(*plan);
  ASSERT_NE(expected, nullptr);
  uint64_t null_nicks = 0, null_scores = 0;
  for (uint64_t r = 0; r < expected->num_rows(); ++r) {
    null_nicks += expected->GetValue(r, 3).is_null();
    null_scores += expected->GetValue(r, 4).is_null();
  }
  EXPECT_GT(null_nicks, 0u);
  EXPECT_GT(null_scores, 0u);
  EXPECT_EQ(Profile(*plan).late_gather_cols(), 3u);  // q.name/nick/score
}

TEST_F(LateMaterializationTest, FilterAboveBridgeKeepsItsInputEager) {
  // The filter reads q.nick, so q.nick must stream as the property, not as
  // a row id; the other unread properties are still deferred.
  auto filter = std::make_unique<plan::PhysFilter>();
  filter->predicate = Expr::StartsWith(Expr::Column("q.nick"), "nick1");
  filter->children.push_back(Bridge());
  auto plan = OrderLimit(std::move(filter), {{"p.age", true}}, 15);
  auto expected = ExpectExactParity(*plan);
  ASSERT_NE(expected, nullptr);
  EXPECT_EQ(expected->num_rows(), 15u);
  EXPECT_EQ(Profile(*plan).late_gather_cols(), 3u);  // p.name, q.name, q.score
}

TEST_F(LateMaterializationTest, ProjectRenamesDeferredColumns) {
  // A filter above the projection reads a renamed column (kept eager
  // through the rename); the renamed q.name / q.score are deferred and
  // gathered under their new names; q.nick is projected away.
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
  auto expected = ExpectExactParity(*plan);
  ASSERT_NE(expected, nullptr);
  EXPECT_EQ(expected->schema().column(0).type, LogicalType::kString);
  EXPECT_EQ(expected->schema().column(2).type, LogicalType::kDouble);
  EXPECT_EQ(Profile(*plan).late_gather_cols(), 2u);  // friend, friend_score
}

TEST_F(LateMaterializationTest, PlainLimitAndPlainOrderBy) {
  // Plain LIMIT (first k in morsel order, early exit when not profiled)
  // defers every property; plain ORDER BY gathers for all sorted rows.
  auto limited = OrderLimit(Bridge(), {}, 30);
  ExpectExactParity(*limited, /*early_exit=*/true);
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
