#include <gtest/gtest.h>

#include <cmath>

#include "fixtures.h"
#include "workload/harness.h"
#include "workload/imdb.h"
#include "workload/ldbc.h"

namespace relgo {
namespace workload {
namespace {

using optimizer::OptimizerMode;

/// Correctness-comparison modes (GdbmsSim covered in integration tests; it
/// uses the same naive matcher the others are checked against).
constexpr OptimizerMode kModes[] = {
    OptimizerMode::kDuckDB,      OptimizerMode::kGRainDB,
    OptimizerMode::kUmbraLike,   OptimizerMode::kRelGo,
    OptimizerMode::kRelGoHash,   OptimizerMode::kRelGoNoEI,
    OptimizerMode::kRelGoNoRule,
};

/// Strips ORDER BY / LIMIT so bag comparison is well-defined under ties.
plan::SpjmQuery Unordered(const plan::SpjmQuery& q) {
  plan::SpjmQuery copy = q;
  copy.order_by.clear();
  copy.limit = -1;
  return copy;
}

class LdbcWorkloadTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new Database();
    LdbcOptions options;
    options.scale_factor = 0.08;  // ~240 persons: fast but non-trivial
    ASSERT_TRUE(GenerateLdbc(db_, options).ok());
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }
  static Database* db_;
};
Database* LdbcWorkloadTest::db_ = nullptr;

TEST_F(LdbcWorkloadTest, GeneratorPopulatesAllTables) {
  for (const auto& name : db_->catalog().ListTables()) {
    auto t = db_->catalog().GetTable(name);
    ASSERT_TRUE(t.ok());
    EXPECT_GT((*t)->num_rows(), 0u) << name;
  }
  EXPECT_TRUE(db_->index().built());
  EXPECT_GT(db_->glogue().size(), 20u);
}

TEST_F(LdbcWorkloadTest, KnowsIsSymmetric) {
  auto knows = db_->catalog().GetTable("knows");
  ASSERT_TRUE(knows.ok());
  const auto* p1 = (*knows)->FindColumn("p1");
  const auto* p2 = (*knows)->FindColumn("p2");
  std::set<std::pair<int64_t, int64_t>> pairs;
  for (uint64_t r = 0; r < (*knows)->num_rows(); ++r) {
    pairs.insert({p1->int_at(r), p2->int_at(r)});
  }
  for (const auto& [a, b] : pairs) {
    EXPECT_TRUE(pairs.count({b, a})) << a << "->" << b;
  }
}

TEST_F(LdbcWorkloadTest, InteractiveQueriesAgreeAcrossModes) {
  auto queries = LdbcInteractiveQueries(*db_);
  ASSERT_GE(queries.size(), 16u);
  for (const auto& wq : queries) {
    plan::SpjmQuery q = Unordered(wq.query);
    std::vector<std::string> reference;
    for (OptimizerMode mode : kModes) {
      auto result = db_->Run(q, mode);
      ASSERT_TRUE(result.ok()) << wq.query.name << " under "
                               << optimizer::ModeName(mode) << ": "
                               << result.status().ToString();
      auto rows = testing::SortedRows(*result->table);
      if (reference.empty() && mode == OptimizerMode::kDuckDB) {
        reference = rows;
      } else {
        EXPECT_EQ(rows, reference)
            << wq.query.name << " under " << optimizer::ModeName(mode);
      }
    }
  }
}

TEST_F(LdbcWorkloadTest, RuleQueriesAgreeAcrossModes) {
  for (const auto& wq : LdbcRuleQueries(*db_)) {
    plan::SpjmQuery q = Unordered(wq.query);
    std::vector<std::string> reference;
    bool first = true;
    for (OptimizerMode mode : kModes) {
      auto result = db_->Run(q, mode);
      ASSERT_TRUE(result.ok()) << wq.query.name << ": "
                               << result.status().ToString();
      auto rows = testing::SortedRows(*result->table);
      if (first) {
        reference = rows;
        first = false;
      } else {
        EXPECT_EQ(rows, reference) << wq.query.name << " under "
                                   << optimizer::ModeName(mode);
      }
    }
  }
}

TEST_F(LdbcWorkloadTest, CyclicQueriesAgreeAcrossModes) {
  for (const auto& wq : LdbcCyclicQueries(*db_)) {
    std::vector<std::string> reference;
    bool first = true;
    for (OptimizerMode mode : kModes) {
      auto result = db_->Run(wq.query, mode);
      ASSERT_TRUE(result.ok()) << wq.query.name << ": "
                               << result.status().ToString();
      auto rows = testing::SortedRows(*result->table);
      if (first) {
        reference = rows;
        first = false;
      } else {
        EXPECT_EQ(rows, reference) << wq.query.name << " under "
                                   << optimizer::ModeName(mode);
      }
    }
  }
}

TEST_F(LdbcWorkloadTest, TriangleCountMatchesNaiveMatcher) {
  auto queries = LdbcCyclicQueries(*db_);
  auto qc1 = std::find_if(queries.begin(), queries.end(), [](const auto& w) {
    return w.query.name == "QC1";
  });
  ASSERT_NE(qc1, queries.end());
  auto relgo = db_->Run(qc1->query, OptimizerMode::kRelGo);
  auto naive = db_->Run(qc1->query, OptimizerMode::kGdbmsSim);
  ASSERT_TRUE(relgo.ok());
  ASSERT_TRUE(naive.ok());
  EXPECT_EQ(testing::SortedRows(*relgo->table),
            testing::SortedRows(*naive->table));
}

TEST_F(LdbcWorkloadTest, HarnessReportsMeasurements) {
  Harness harness(db_, {}, 1);
  auto queries = LdbcCyclicQueries(*db_);
  auto runs = harness.RunGrid(
      {queries[0]}, {OptimizerMode::kDuckDB, OptimizerMode::kRelGo});
  ASSERT_EQ(runs.size(), 2u);
  for (const auto& r : runs) {
    EXPECT_FALSE(r.failed) << r.error;
    EXPECT_GT(r.execution_ms, 0.0);
    EXPECT_EQ(r.result_rows, 1u);  // COUNT aggregate
  }
  std::string table = Harness::FormatTable(runs, true);
  EXPECT_NE(table.find("QC1"), std::string::npos);
  EXPECT_NE(table.find("RelGo"), std::string::npos);
}

TEST_F(LdbcWorkloadTest, HarnessClampsZeroRepetitionsToOne) {
  // Unclamped, 0 repetitions would leave the timing vectors empty, and
  // the spread would read front() of an empty vector and divide by zero.
  Harness harness(db_, {}, 0);
  auto queries = LdbcCyclicQueries(*db_);
  auto run = harness.Run(queries[0], OptimizerMode::kRelGo);
  ASSERT_FALSE(run.failed) << run.error;
  EXPECT_EQ(run.result_rows, 1u) << "one timed repetition ran";
  for (double ms : {run.optimization_ms, run.optimization_ms_median,
                    run.optimization_ms_min, run.optimization_ms_max,
                    run.execution_ms, run.execution_ms_median,
                    run.execution_ms_min, run.execution_ms_max}) {
    EXPECT_TRUE(std::isfinite(ms));
    EXPECT_GE(ms, 0.0);
  }
  EXPECT_EQ(run.execution_ms_min, run.execution_ms_max);
}

TEST_F(LdbcWorkloadTest, HarnessFlagsOutOfMemory) {
  exec::ExecutionOptions tight;
  tight.max_total_rows = 10;
  Harness harness(db_, tight, 1);
  auto queries = LdbcCyclicQueries(*db_);
  auto run = harness.Run(queries[0], OptimizerMode::kRelGo);
  EXPECT_TRUE(run.out_of_memory);
  EXPECT_EQ(run.StatusOrMs(true), "OOM");
}

class ImdbWorkloadTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new Database();
    ImdbOptions options;
    options.scale_factor = 0.04;
    ASSERT_TRUE(GenerateImdb(db_, options).ok());
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }
  static Database* db_;
};
Database* ImdbWorkloadTest::db_ = nullptr;

TEST_F(ImdbWorkloadTest, GeneratorPopulatesAllTables) {
  EXPECT_EQ(db_->catalog().ListTables().size(), 18u);
  for (const auto& name : db_->catalog().ListTables()) {
    auto t = db_->catalog().GetTable(name);
    ASSERT_TRUE(t.ok());
    EXPECT_GT((*t)->num_rows(), 0u) << name;
  }
}

TEST_F(ImdbWorkloadTest, ThirtyThreeQueriesDefined) {
  auto queries = JobQueries(*db_);
  ASSERT_EQ(queries.size(), 33u);
  std::set<std::string> names;
  for (const auto& wq : queries) names.insert(wq.query.name);
  EXPECT_EQ(names.size(), 33u);
  EXPECT_TRUE(names.count("JOB17"));
}

TEST_F(ImdbWorkloadTest, JobQueriesAgreeAcrossModes) {
  // RelGoNoRule is excluded: without FilterIntoMatchRule the unconstrained
  // JOB patterns legitimately exhaust the memory budget (the paper
  // evaluates the NoRule ablation only on QR1..4).
  constexpr OptimizerMode kJobModes[] = {
      OptimizerMode::kDuckDB,    OptimizerMode::kGRainDB,
      OptimizerMode::kUmbraLike, OptimizerMode::kRelGo,
      OptimizerMode::kRelGoHash, OptimizerMode::kRelGoNoEI,
  };
  auto queries = JobQueries(*db_);
  for (const auto& wq : queries) {
    std::vector<std::string> reference;
    bool first = true;
    for (OptimizerMode mode : kJobModes) {
      auto result = db_->Run(wq.query, mode);
      ASSERT_TRUE(result.ok()) << wq.query.name << " under "
                               << optimizer::ModeName(mode) << ": "
                               << result.status().ToString();
      auto rows = testing::SortedRows(*result->table);
      if (first) {
        reference = rows;
        first = false;
      } else {
        EXPECT_EQ(rows, reference) << wq.query.name << " under "
                                   << optimizer::ModeName(mode);
      }
    }
  }
}

TEST_F(ImdbWorkloadTest, Job17PlanUsesGraphExpansions) {
  auto queries = JobQueries(*db_);
  auto job17 = std::find_if(queries.begin(), queries.end(), [](const auto& w) {
    return w.query.name == "JOB17";
  });
  ASSERT_NE(job17, queries.end());
  auto explain = db_->Explain(job17->query, OptimizerMode::kRelGo);
  ASSERT_TRUE(explain.ok());
  EXPECT_NE(explain->find("EXPAND"), std::string::npos) << *explain;
  EXPECT_NE(explain->find("SCAN_GRAPH_TABLE"), std::string::npos);
}

}  // namespace
}  // namespace workload
}  // namespace relgo
