#ifndef RELGO_TESTS_FIXTURES_H_
#define RELGO_TESTS_FIXTURES_H_

#include <algorithm>
#include <string>
#include <vector>

#include "core/database.h"
#include "exec/join_hash_table.h"

namespace relgo {
namespace testing {

/// Builds the running example of the paper (Fig 2): Person / Message /
/// Likes / Knows plus the Place table joined relationally in Example 1.
///
/// People: p1 Tom (pl1), p2 Bob (pl2), p3 David (pl3).
/// Likes:  l1 (p1,m1), l2 (p2,m1), l3 (p2,m2), l4 (p3,m2).
/// Knows:  k1 (p1,p2), k2 (p2,p1), k3 (p2,p3), k4 (p3,p2).
/// Places: pl1 Germany, pl2 Denmark, pl3 China.
inline Status BuildFigure2Database(Database* db) {
  using storage::ColumnDef;
  using storage::Schema;

  RELGO_ASSIGN_OR_RETURN(
      auto person,
      db->CreateTable("Person",
                      Schema({ColumnDef{"person_id", LogicalType::kInt64},
                              ColumnDef{"name", LogicalType::kString},
                              ColumnDef{"place_id", LogicalType::kInt64}})));
  RELGO_ASSIGN_OR_RETURN(
      auto message,
      db->CreateTable("Message",
                      Schema({ColumnDef{"message_id", LogicalType::kInt64},
                              ColumnDef{"content", LogicalType::kString}})));
  RELGO_ASSIGN_OR_RETURN(
      auto likes,
      db->CreateTable("Likes",
                      Schema({ColumnDef{"likes_id", LogicalType::kInt64},
                              ColumnDef{"pid", LogicalType::kInt64},
                              ColumnDef{"mid", LogicalType::kInt64},
                              ColumnDef{"date", LogicalType::kDate}})));
  RELGO_ASSIGN_OR_RETURN(
      auto knows,
      db->CreateTable("Knows",
                      Schema({ColumnDef{"knows_id", LogicalType::kInt64},
                              ColumnDef{"pid1", LogicalType::kInt64},
                              ColumnDef{"pid2", LogicalType::kInt64},
                              ColumnDef{"date", LogicalType::kDate}})));
  RELGO_ASSIGN_OR_RETURN(
      auto place,
      db->CreateTable("Place",
                      Schema({ColumnDef{"id", LogicalType::kInt64},
                              ColumnDef{"name", LogicalType::kString}})));

  auto date = [](const char* iso) {
    return Value::Date(ParseDate(iso).value());
  };
  RELGO_RETURN_NOT_OK(person->AppendRow(
      {Value::Int(1), Value::String("Tom"), Value::Int(100)}));
  RELGO_RETURN_NOT_OK(person->AppendRow(
      {Value::Int(2), Value::String("Bob"), Value::Int(200)}));
  RELGO_RETURN_NOT_OK(person->AppendRow(
      {Value::Int(3), Value::String("David"), Value::Int(300)}));
  RELGO_RETURN_NOT_OK(message->AppendRow(
      {Value::Int(10), Value::String("hello graphs")}));
  RELGO_RETURN_NOT_OK(message->AppendRow(
      {Value::Int(20), Value::String("hello relations")}));
  RELGO_RETURN_NOT_OK(likes->AppendRow(
      {Value::Int(1), Value::Int(1), Value::Int(10), date("2024-03-31")}));
  RELGO_RETURN_NOT_OK(likes->AppendRow(
      {Value::Int(2), Value::Int(2), Value::Int(10), date("2024-03-28")}));
  RELGO_RETURN_NOT_OK(likes->AppendRow(
      {Value::Int(3), Value::Int(2), Value::Int(20), date("2024-03-20")}));
  RELGO_RETURN_NOT_OK(likes->AppendRow(
      {Value::Int(4), Value::Int(3), Value::Int(20), date("2024-03-21")}));
  RELGO_RETURN_NOT_OK(knows->AppendRow(
      {Value::Int(1), Value::Int(1), Value::Int(2), date("2023-01-15")}));
  RELGO_RETURN_NOT_OK(knows->AppendRow(
      {Value::Int(2), Value::Int(2), Value::Int(1), date("2023-01-15")}));
  RELGO_RETURN_NOT_OK(knows->AppendRow(
      {Value::Int(3), Value::Int(2), Value::Int(3), date("2023-02-18")}));
  RELGO_RETURN_NOT_OK(knows->AppendRow(
      {Value::Int(4), Value::Int(3), Value::Int(2), date("2023-02-18")}));
  RELGO_RETURN_NOT_OK(place->AppendRow(
      {Value::Int(100), Value::String("Germany")}));
  RELGO_RETURN_NOT_OK(place->AppendRow(
      {Value::Int(200), Value::String("Denmark")}));
  RELGO_RETURN_NOT_OK(place->AppendRow(
      {Value::Int(300), Value::String("China")}));

  RELGO_RETURN_NOT_OK(db->AddVertexTable("Person", "person_id"));
  RELGO_RETURN_NOT_OK(db->AddVertexTable("Message", "message_id"));
  RELGO_RETURN_NOT_OK(
      db->AddEdgeTable("Likes", "Person", "pid", "Message", "mid"));
  RELGO_RETURN_NOT_OK(
      db->AddEdgeTable("Knows", "Person", "pid1", "Person", "pid2"));
  return db->Finalize();
}

/// Renders every row of `table` as a canonical string, in emitted order —
/// row-for-row comparison of two runs of the same plan.
inline std::vector<std::string> ExactRows(const storage::Table& table) {
  std::vector<std::string> rows;
  rows.reserve(table.num_rows());
  for (uint64_t r = 0; r < table.num_rows(); ++r) {
    std::string row;
    for (size_t c = 0; c < table.num_columns(); ++c) {
      if (c) row += "|";
      row += table.GetValue(r, c).ToString();
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

/// Selects the reference interpreter: the oracle that pipeline results are
/// compared against. The default engine is the pipeline.
inline exec::ExecutionOptions OracleOptions() {
  exec::ExecutionOptions options;
  options.engine = exec::EngineKind::kMaterialize;
  return options;
}

/// ExactRows sorted — bag-semantics comparison across plans that emit
/// rows in different orders.
inline std::vector<std::string> SortedRows(const storage::Table& table) {
  std::vector<std::string> rows = ExactRows(table);
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// The build rows that JoinHashTable::ForEachMatch reports for probe row
/// `row` of `probe` (a bound ProbeView or int64 key spans), in its order.
template <typename Probe>
std::vector<uint64_t> Matches(const exec::JoinHashTable& ht,
                              const Probe& probe, uint64_t row) {
  std::vector<uint64_t> out;
  ht.ForEachMatch(probe, row, [&out](uint64_t r) { out.push_back(r); });
  return out;
}

}  // namespace testing
}  // namespace relgo

#endif  // RELGO_TESTS_FIXTURES_H_
