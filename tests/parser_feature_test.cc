#include <gtest/gtest.h>

#include "fixtures.h"
#include "storage/expression_parser.h"

namespace relgo {
namespace {

using optimizer::OptimizerMode;
using storage::Expr;
using storage::ParseExpression;

TEST(ExpressionParserTest, Comparisons) {
  struct Case {
    const char* text;
    const char* rendered;
  };
  const Case cases[] = {
      {"a = 1", "a = 1"},
      {"a <> 1", "a <> 1"},
      {"a != 1", "a <> 1"},
      {"a < 1", "a < 1"},
      {"a <= 1", "a <= 1"},
      {"a > 1", "a > 1"},
      {"a >= 1", "a >= 1"},
      {"p1.name = 'Tom'", "p1.name = 'Tom'"},
      {"x = -5", "x = -5"},
      {"score >= 2.5", "score >= 2.5"},
  };
  for (const auto& c : cases) {
    auto e = ParseExpression(c.text);
    ASSERT_TRUE(e.ok()) << c.text << ": " << e.status().ToString();
    EXPECT_EQ((*e)->ToString(), c.rendered) << c.text;
  }
}

TEST(ExpressionParserTest, BooleanStructure) {
  auto e = ParseExpression("a = 1 AND b = 2 OR NOT c = 3");
  ASSERT_TRUE(e.ok());
  // AND binds tighter than OR.
  EXPECT_EQ((*e)->kind(), Expr::Kind::kOr);
  auto parens = ParseExpression("a = 1 AND (b = 2 OR c = 3)");
  ASSERT_TRUE(parens.ok());
  EXPECT_EQ((*parens)->kind(), Expr::Kind::kAnd);
}

TEST(ExpressionParserTest, SpecialPredicates) {
  auto starts = ParseExpression("n.name STARTS WITH 'B'");
  ASSERT_TRUE(starts.ok());
  EXPECT_EQ((*starts)->kind(), Expr::Kind::kStartsWith);

  auto contains = ParseExpression("note CONTAINS 'co-production'");
  ASSERT_TRUE(contains.ok());
  EXPECT_EQ((*contains)->kind(), Expr::Kind::kContains);

  auto in = ParseExpression("code IN ('[us]', '[de]', '[fr]')");
  ASSERT_TRUE(in.ok());
  EXPECT_EQ((*in)->kind(), Expr::Kind::kInList);
  EXPECT_EQ((*in)->in_list().size(), 3u);

  auto is_null = ParseExpression("x IS NULL");
  ASSERT_TRUE(is_null.ok());
  EXPECT_EQ((*is_null)->kind(), Expr::Kind::kIsNull);

  auto not_null = ParseExpression("x IS NOT NULL");
  ASSERT_TRUE(not_null.ok());
  EXPECT_EQ((*not_null)->kind(), Expr::Kind::kNot);
}

TEST(ExpressionParserTest, DateLiterals) {
  auto e = ParseExpression("d >= DATE '2012-06-01'");
  ASSERT_TRUE(e.ok());
  const auto& rhs = (*e)->children()[1];
  EXPECT_EQ(rhs->constant().type(), LogicalType::kDate);
  EXPECT_EQ(rhs->constant().date_value(), *ParseDate("2012-06-01"));
}

TEST(ExpressionParserTest, KeywordsAreCaseInsensitive) {
  auto e = ParseExpression("a = 1 and b = 2 or n.name starts with 'X'");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->kind(), Expr::Kind::kOr);
}

TEST(ExpressionParserTest, RejectsGarbage) {
  EXPECT_FALSE(ParseExpression("").ok());
  EXPECT_FALSE(ParseExpression("a =").ok());
  EXPECT_FALSE(ParseExpression("a = 1 AND").ok());
  EXPECT_FALSE(ParseExpression("a = 'unterminated").ok());
  EXPECT_FALSE(ParseExpression("(a = 1").ok());
  EXPECT_FALSE(ParseExpression("a = 1 garbage").ok());
  EXPECT_FALSE(ParseExpression("x IN (a.b)").ok());  // non-literal in list
}

TEST(ExpressionParserTest, ParsedPredicateEvaluates) {
  Database db;
  ASSERT_TRUE(testing::BuildFigure2Database(&db).ok());
  auto person = *db.catalog().GetTable("Person");
  auto e = ParseExpression("name = 'Bob' OR place_id > 250");
  ASSERT_TRUE(e.ok());
  ASSERT_TRUE((*e)->Bind(person->schema()).ok());
  int hits = 0;
  for (uint64_t r = 0; r < person->num_rows(); ++r) {
    hits += (*e)->EvaluateBool(*person, r);
  }
  EXPECT_EQ(hits, 2);  // Bob, and David's place 300
}

class TextualQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(testing::BuildFigure2Database(&db_).ok());
  }
  Database db_;
};

TEST_F(TextualQueryTest, BuilderAcceptsTextualWhere) {
  auto pattern = db_.ParsePattern(
      "(p1:Person)-[:Likes]->(m:Message), (p2:Person)-[:Likes]->(m), "
      "(p1)-[:Knows]->(p2)");
  ASSERT_TRUE(pattern.ok());
  plan::SpjmQueryBuilder builder("textual");
  builder.Match(std::move(*pattern))
      .Column("p1", "name")
      .Column("p2", "name")
      .Where("p1.name = 'Tom'")
      .Select("p2.name");
  ASSERT_TRUE(builder.status().ok()) << builder.status().ToString();
  auto query = builder.Build();
  for (auto mode : {OptimizerMode::kRelGo, OptimizerMode::kDuckDB}) {
    auto result = db_.Run(query, mode);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->table->num_rows(), 1u);
    EXPECT_EQ(result->table->GetValue(0, 0).string_value(), "Bob");
  }
}

TEST_F(TextualQueryTest, BuilderReportsParseFailure) {
  plan::SpjmQueryBuilder builder("bad");
  builder.Where("p1.name = ");
  EXPECT_FALSE(builder.status().ok());
}

TEST_F(TextualQueryTest, ExplainAnalyzeAnnotatesActuals) {
  auto pattern = db_.ParsePattern("(p:Person)-[:Likes]->(m:Message)");
  ASSERT_TRUE(pattern.ok());
  auto query = plan::SpjmQueryBuilder("analyze")
                   .Match(std::move(*pattern))
                   .Column("p", "name")
                   .Select("p.name")
                   .Build();
  auto analyzed = db_.ExplainAnalyze(query, OptimizerMode::kRelGo,
                                     testing::OracleOptions());
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  // Every operator line carries actual rows and a time.
  EXPECT_NE(analyzed->find("act=4 rows"), std::string::npos) << *analyzed;
  EXPECT_NE(analyzed->find("ms]"), std::string::npos) << *analyzed;
}

TEST_F(TextualQueryTest, ExplainAnalyzeCoversRelationalOperators) {
  auto pattern = db_.ParsePattern("(p:Person)-[:Knows]->(f:Person)");
  ASSERT_TRUE(pattern.ok());
  auto query = plan::SpjmQueryBuilder("analyze2")
                   .Match(std::move(*pattern))
                   .Column("p", "name")
                   .Column("p", "place_id")
                   .Join("Place", "place", "p.place_id", "id")
                   .Select("place.name")
                   .Build();
  auto analyzed = db_.ExplainAnalyze(query, OptimizerMode::kDuckDB,
                                     testing::OracleOptions());
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  EXPECT_NE(analyzed->find("HASH_JOIN"), std::string::npos);
  EXPECT_NE(analyzed->find("act="), std::string::npos);
}

}  // namespace
}  // namespace relgo
