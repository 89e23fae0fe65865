// Dictionary-encoded string columns (storage::StringDictionary), tested
// at every layer that consumes codes:
//
//  * Column units: BuildDictionary round-trip, owner appends extending
//    the shared dictionary (sorted-flag maintenance), null placeholders,
//    propagation through Gather/Slice/AppendRange/AppendFrom, and the
//    drop-to-payload contract for derived columns fed foreign strings.
//  * CompiledPredicate: randomized differential of the dictionary and
//    payload (dictionary-free copy) lowerings against the EvaluateBool
//    oracle (selection, bitmap and refinement entry points), compile-time
//    folds for constants absent from the dictionary, and the per-batch
//    fallback when a batch no longer carries the compile-time dictionary.
//  * KeyEncoder dictionary mode: word equality still coincides with
//    Value equality across mixed dict/payload batches, Decode still
//    reproduces Column::GetValue.
//  * JoinHashTable string keys: dictionary codes vs payload bytes vs a
//    nested-loop reference, over shared-dict, foreign-dict and
//    no-dict probe sides.
//  * TypedColumnCompare: sign-identical to Value::Compare for sorted and
//    unsorted dictionaries.
//  * The chaos storm over dictionary-coded string predicates.
//
// Whole queries are checked against the reference interpreter, which
// reads only string payloads, in pipeline_parity_test.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/hash.h"
#include "common/rng.h"
#include "exec/join_hash_table.h"
#include "exec/pipeline/engine.h"
#include "exec/vector/compiled_expr.h"
#include "exec/vector/typed_keys.h"
#include "fixtures.h"
#include "storage/expression.h"
#include "storage/table.h"

namespace relgo {
namespace {

using exec::JoinHashTable;
using exec::vector::CompiledPredicate;
using exec::vector::KeyEncoder;
using exec::vector::KeyStrings;
using exec::vector::TypedColumnCompare;
using storage::Column;
using storage::ColumnDef;
using storage::CompareOp;
using storage::Expr;
using storage::ExprPtr;
using storage::Schema;
using storage::StringDictionary;
using storage::Table;
using storage::TablePtr;

// ---------------------------------------------------------------------------
// Column / StringDictionary units
// ---------------------------------------------------------------------------

TEST(DictionaryColumnTest, BuildDictionarySortedUniqueRoundTrip) {
  Column col(LogicalType::kString);
  col.AppendString("beta");
  col.AppendString("alpha");
  col.AppendNull();
  col.AppendString("beta");
  col.AppendString("");
  ASSERT_EQ(col.dictionary(), nullptr);
  col.BuildDictionary();
  const StringDictionary* dict = col.dictionary();
  ASSERT_NE(dict, nullptr);
  // Sorted-unique over {beta, alpha, "", beta, ""}: "", alpha, beta.
  EXPECT_TRUE(dict->sorted);
  ASSERT_EQ(dict->size(), 3);
  EXPECT_EQ(dict->values[0], "");
  EXPECT_EQ(dict->values[1], "alpha");
  EXPECT_EQ(dict->values[2], "beta");
  // Codes round-trip every row, including the null row's "" placeholder.
  for (uint64_t r = 0; r < col.size(); ++r) {
    EXPECT_EQ(dict->values[col.code_at(r)], col.string_at(r)) << "row " << r;
  }
  EXPECT_FALSE(col.is_valid(2));
  EXPECT_EQ(col.code_at(2), 0) << "null row carries the \"\" code";
  EXPECT_EQ(dict->Find("alpha"), 1);
  EXPECT_EQ(dict->Find("missing"), -1);
}

TEST(DictionaryColumnTest, OwnerAppendExtendsDictionaryAndTracksSorted) {
  Column col(LogicalType::kString);
  col.AppendString("b");
  col.AppendString("d");
  col.BuildDictionary();
  const StringDictionary* dict = col.dictionary();
  ASSERT_NE(dict, nullptr);
  ASSERT_TRUE(dict->sorted);

  // Existing string: same code, no growth.
  col.AppendString("d");
  EXPECT_EQ(dict->size(), 2);
  EXPECT_EQ(col.code_at(2), col.code_at(1));

  // Novel string above the current maximum keeps the sorted invariant.
  col.AppendString("e");
  EXPECT_EQ(dict->size(), 3);
  EXPECT_TRUE(dict->sorted);
  EXPECT_EQ(col.code_at(3), 2);

  // Novel string out of order: appended at the end (existing codes never
  // move), sorted flag cleared so ordered consumers fall back.
  col.AppendString("a");
  EXPECT_EQ(dict->size(), 4);
  EXPECT_FALSE(dict->sorted);
  EXPECT_EQ(col.code_at(4), 3);
  EXPECT_EQ(dict->values[col.code_at(0)], "b");
  for (uint64_t r = 0; r < col.size(); ++r) {
    EXPECT_EQ(dict->values[col.code_at(r)], col.string_at(r));
  }
}

TEST(DictionaryColumnTest, DerivedColumnsShareUntilForeignStringDrops) {
  Column base(LogicalType::kString);
  for (const char* s : {"x", "y", "x", "z"}) base.AppendString(s);
  base.BuildDictionary();
  const StringDictionary* dict = base.dictionary();
  ASSERT_NE(dict, nullptr);

  // Gather / Slice / AppendRange / AppendFrom all share the pointer.
  Column gathered = base.Gather({3, 0, 1});
  EXPECT_EQ(gathered.dictionary(), dict);
  for (uint64_t r = 0; r < gathered.size(); ++r) {
    EXPECT_EQ(dict->values[gathered.code_at(r)], gathered.string_at(r));
  }
  Column sliced = base.Slice(1, 2);
  EXPECT_EQ(sliced.dictionary(), dict);
  Column appended(LogicalType::kString);
  appended.AppendRange(base, 0, base.size());
  EXPECT_EQ(appended.dictionary(), dict);
  appended.AppendFrom(base, 2);
  EXPECT_EQ(appended.dictionary(), dict);
  EXPECT_EQ(appended.code_at(4), base.code_at(2));

  // A known string keeps the encoding on a derived (non-owner) column...
  Column derived = base.Gather({0, 1});
  derived.AppendString("z");
  ASSERT_EQ(derived.dictionary(), dict);
  EXPECT_EQ(dict->values[derived.code_at(2)], "z");
  // ...but a foreign string drops it (non-owners never mutate the shared
  // dictionary); the payload stays authoritative.
  derived.AppendString("foreign");
  EXPECT_EQ(derived.dictionary(), nullptr);
  EXPECT_EQ(dict->size(), 3) << "shared dictionary must stay untouched";
  EXPECT_EQ(derived.string_at(3), "foreign");
  EXPECT_EQ(derived.size(), 4u);
}

TEST(DictionaryColumnTest, FinalizeBuildsDictionariesOnBaseTables) {
  Database db;
  ASSERT_TRUE(testing::BuildFigure2Database(&db).ok());
  auto person = db.catalog().GetTable("Person");
  ASSERT_TRUE(person.ok());
  const Column& name = (*person)->column(1);
  ASSERT_EQ(name.type(), LogicalType::kString);
  const StringDictionary* dict = name.dictionary();
  ASSERT_NE(dict, nullptr) << "Finalize must build string dictionaries";
  EXPECT_TRUE(dict->sorted);
  EXPECT_EQ(dict->size(), 3);  // Tom, Bob, David
  for (uint64_t r = 0; r < name.size(); ++r) {
    EXPECT_EQ(dict->values[name.code_at(r)], name.string_at(r));
  }
}

// ---------------------------------------------------------------------------
// CompiledPredicate: randomized differential + folds + batch fallback
// ---------------------------------------------------------------------------

// Pool rows draw from; the absent strings only appear in predicates, so
// they exercise the compile-time constant folds.
const char* const kPresentPool[] = {"",     "a",    "ab",    "alpha",
                                    "beta", "zeta", "gamma", "a b"};
const char* const kPredicatePool[] = {"",     "a",       "ab",   "alpha",
                                      "beta", "zeta",    "gamma", "a b",
                                      "zzz",  "missing", "al"};
constexpr size_t kPresentPoolSize =
    sizeof(kPresentPool) / sizeof(kPresentPool[0]);
constexpr size_t kPredicatePoolSize =
    sizeof(kPredicatePool) / sizeof(kPredicatePool[0]);

Schema DictTestSchema() {
  return Schema({ColumnDef{"i", LogicalType::kInt64},
                 ColumnDef{"s", LogicalType::kString},
                 ColumnDef{"s2", LogicalType::kString},
                 ColumnDef{"b", LogicalType::kBool}});
}

/// Random table over DictTestSchema with dictionaries built on both
/// string columns (the compile-time base-table shape).
TablePtr MakeDictTable(uint64_t n, int null_pct, std::mt19937* rng) {
  auto table = std::make_shared<Table>("dict", DictTestSchema());
  std::uniform_int_distribution<int> pct(0, 99);
  std::uniform_int_distribution<int> small(-20, 20);
  for (uint64_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < table->num_columns(); ++c) {
      Column& col = table->column(c);
      if (pct(*rng) < null_pct) {
        col.AppendNull();
        continue;
      }
      switch (col.type()) {
        case LogicalType::kInt64:
          col.AppendInt(small(*rng));
          break;
        case LogicalType::kBool:
          col.AppendInt((*rng)() % 2);
          break;
        case LogicalType::kString:
          col.AppendString(kPresentPool[(*rng)() % kPresentPoolSize]);
          break;
        default:
          col.AppendNull();
          break;
      }
    }
  }
  table->FinishBulkAppend();
  table->column(1).BuildDictionary();
  table->column(2).BuildDictionary();
  return table;
}

/// A copy of `table` whose columns carry no dictionary: the payload-only
/// shape of the same rows.
TablePtr WithoutDictionaries(const Table& table) {
  auto copy = std::make_shared<Table>(table.name(), table.schema());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    copy->column(c).AppendRange(table.column(c), 0, table.num_rows());
    copy->column(c).DropDictionary();
  }
  copy->FinishBulkAppend();
  return copy;
}

CompareOp RandomCmp(std::mt19937* rng) {
  constexpr CompareOp kOps[] = {CompareOp::kEq, CompareOp::kNe,
                                CompareOp::kLt, CompareOp::kLe,
                                CompareOp::kGt, CompareOp::kGe};
  return kOps[(*rng)() % 6];
}

Value RandomStringConst(std::mt19937* rng) {
  return Value::String(kPredicatePool[(*rng)() % kPredicatePoolSize]);
}

/// String-heavy bool-typed leaves (And/Or/Not assume bool children).
ExprPtr RandomDictLeaf(std::mt19937* rng) {
  const char* col = (*rng)() % 2 == 0 ? "s" : "s2";
  switch ((*rng)() % 9) {
    case 0:
    case 1:  // string vs constant, present or absent (twice as likely)
      return Expr::Compare(RandomCmp(rng), Expr::Column(col),
                           Expr::Constant(RandomStringConst(rng)));
    case 2:  // string column vs string column
      return Expr::Compare(RandomCmp(rng), Expr::Column("s"),
                           Expr::Column("s2"));
    case 3:
      return Expr::StartsWith(
          Expr::Column(col),
          kPredicatePool[(*rng)() % kPredicatePoolSize]);
    case 4:
      return Expr::Contains(Expr::Column(col),
                            kPredicatePool[(*rng)() % kPredicatePoolSize]);
    case 5: {  // IN list, occasionally with a NULL candidate
      std::vector<Value> values;
      size_t len = (*rng)() % 4;
      for (size_t v = 0; v < len; ++v) {
        values.push_back(RandomStringConst(rng));
      }
      if ((*rng)() % 5 == 0) values.push_back(Value::Null());
      return Expr::InList(Expr::Column(col), std::move(values));
    }
    case 6:
      return Expr::IsNull(Expr::Column(col));
    case 7: {  // int compare keeps multi-leaf programs mixed-type
      std::uniform_int_distribution<int> small(-20, 20);
      return Expr::Compare(RandomCmp(rng), Expr::Column("i"),
                           Expr::Constant(Value::Int(small(*rng))));
    }
    default:
      return Expr::Column("b");
  }
}

ExprPtr RandomDictExpr(int depth, std::mt19937* rng) {
  if (depth <= 0) return RandomDictLeaf(rng);
  switch ((*rng)() % 6) {
    case 0:
      return Expr::And(RandomDictExpr(depth - 1, rng),
                       RandomDictExpr(depth - 1, rng));
    case 1:
      return Expr::Or(RandomDictExpr(depth - 1, rng),
                      RandomDictExpr(depth - 1, rng));
    case 2:
      return Expr::Not(RandomDictExpr(depth - 1, rng));
    default:
      return RandomDictLeaf(rng);
  }
}

::testing::AssertionResult SelectionsEqual(
    const std::vector<uint64_t>& got, const std::vector<uint64_t>& expect) {
  if (got == expect) return ::testing::AssertionSuccess();
  size_t i = 0;
  while (i < got.size() && i < expect.size() && got[i] == expect[i]) ++i;
  return ::testing::AssertionFailure()
         << "sizes got=" << got.size() << " expect=" << expect.size()
         << "; first divergence at index " << i << ": got="
         << (i < got.size() ? std::to_string(got[i]) : "<end>")
         << " expect="
         << (i < expect.size() ? std::to_string(expect[i]) : "<end>");
}

TEST(DictionaryPredicateTest, RandomizedDictAndPayloadAgainstOracle) {
  Schema schema = DictTestSchema();
  int total = 0, dict_lowered = 0;
  for (int null_pct : {0, 10, 60}) {
    for (uint32_t seed = 1; seed <= 6; ++seed) {
      std::mt19937 rng(seed * 104729 + static_cast<uint32_t>(null_pct));
      TablePtr table = MakeDictTable(512, null_pct, &rng);
      TablePtr plain = WithoutDictionaries(*table);
      std::vector<const Column*> cols;
      for (size_t c = 0; c < table->num_columns(); ++c) {
        cols.push_back(&table->column(c));
      }
      for (int k = 0; k < 40; ++k) {
        ExprPtr expr = RandomDictExpr(3, &rng);
        ASSERT_TRUE(expr->Bind(schema).ok()) << expr->ToString();
        ++total;
        auto on = CompiledPredicate::Compile(*expr, schema, table.get());
        auto off = CompiledPredicate::Compile(*expr, schema, plain.get());
        ASSERT_EQ(on == nullptr, off == nullptr)
            << "dictionaries must not change lowerability: "
            << expr->ToString();
        if (on == nullptr) continue;
        ++dict_lowered;

        std::vector<uint64_t> expect;
        for (uint64_t r = 0; r < table->num_rows(); ++r) {
          if (expr->EvaluateBool(*table, r)) expect.push_back(r);
        }
        std::vector<uint64_t> got_on, got_off;
        on->FilterTable(*table, 0, table->num_rows(), &got_on);
        off->FilterTable(*plain, 0, plain->num_rows(), &got_off);
        ASSERT_TRUE(SelectionsEqual(got_on, expect))
            << "dict=on null_pct=" << null_pct << " seed=" << seed
            << " expr=" << expr->ToString();
        ASSERT_TRUE(SelectionsEqual(got_off, expect))
            << "payload expr=" << expr->ToString();

        // Bitmap entry point (the dense auto-vectorized path for
        // single-leaf programs) agrees with the selection.
        std::vector<uint8_t> bitmap;
        on->FilterBitmap(cols.data(), table->num_rows(), &bitmap);
        std::vector<uint64_t> from_bitmap;
        for (uint64_t r = 0; r < bitmap.size(); ++r) {
          if (bitmap[r]) from_bitmap.push_back(r);
        }
        ASSERT_TRUE(SelectionsEqual(from_bitmap, expect))
            << expr->ToString();

        // Selection refinement over a random ascending subset.
        std::vector<uint64_t> subset, expect_subset, got_subset;
        for (uint64_t r = 0; r < table->num_rows(); ++r) {
          if (rng() % 2 == 0) subset.push_back(r);
        }
        for (uint64_t r : subset) {
          if (expr->EvaluateBool(*table, r)) expect_subset.push_back(r);
        }
        on->FilterSelected(cols.data(), subset, &got_subset);
        ASSERT_TRUE(SelectionsEqual(got_subset, expect_subset))
            << expr->ToString();
      }
    }
  }
  EXPECT_GT(dict_lowered, total / 2)
      << "lowered " << dict_lowered << " of " << total;
}

TEST(DictionaryPredicateTest, AbsentConstantFoldsAtCompileTime) {
  std::mt19937 rng(7);
  TablePtr table = MakeDictTable(256, 20, &rng);
  Schema schema = DictTestSchema();

  struct Case {
    ExprPtr expr;
    const char* what;
  };
  std::vector<Case> cases;
  cases.push_back({Expr::Eq("s", Value::String("zzz-absent")), "eq"});
  cases.push_back({Expr::Compare(CompareOp::kNe, Expr::Column("s"),
                                 Expr::Constant(Value::String("zzz-absent"))),
                   "ne"});
  cases.push_back(
      {Expr::InList(Expr::Column("s"), {Value::String("zzz-absent"),
                                        Value::String("also-absent")}),
       "in"});
  for (auto& c : cases) {
    ASSERT_TRUE(c.expr->Bind(schema).ok());
    auto compiled = CompiledPredicate::Compile(*c.expr, schema, table.get());
    ASSERT_NE(compiled, nullptr) << c.what;
    std::vector<uint64_t> expect, got;
    for (uint64_t r = 0; r < table->num_rows(); ++r) {
      if (c.expr->EvaluateBool(*table, r)) expect.push_back(r);
    }
    compiled->FilterTable(*table, 0, table->num_rows(), &got);
    EXPECT_TRUE(SelectionsEqual(got, expect)) << c.what;
  }
  // Sanity on the fold shapes: eq-absent selects nothing; ne-absent
  // selects exactly the non-null rows.
  {
    std::vector<uint64_t> got;
    auto eq = Expr::Eq("s", Value::String("zzz-absent"));
    ASSERT_TRUE(eq->Bind(schema).ok());
    CompiledPredicate::Compile(*eq, schema, table.get())
        ->FilterTable(*table, 0, table->num_rows(), &got);
    EXPECT_TRUE(got.empty());
  }
}

TEST(DictionaryPredicateTest, BatchWithoutDictionaryFallsBackToPayload) {
  std::mt19937 rng(11);
  TablePtr base = MakeDictTable(300, 15, &rng);
  Schema schema = DictTestSchema();

  // A derived batch of the base rows whose string columns lost their
  // dictionaries (DictUsable's pointer check must reject the code
  // kernels and run the payload fallback on the same compiled program).
  auto derived = std::make_shared<Table>("derived", schema);
  for (size_t c = 0; c < base->num_columns(); ++c) {
    derived->column(c).AppendRange(base->column(c), 0, base->num_rows());
  }
  derived->FinishBulkAppend();
  ASSERT_NE(derived->column(1).dictionary(), nullptr);
  derived->column(1).DropDictionary();
  derived->column(2).DropDictionary();

  for (uint32_t seed = 1; seed <= 4; ++seed) {
    std::mt19937 erng(seed);
    for (int k = 0; k < 30; ++k) {
      ExprPtr expr = RandomDictExpr(2, &erng);
      ASSERT_TRUE(expr->Bind(schema).ok());
      auto compiled = CompiledPredicate::Compile(*expr, schema, base.get());
      if (compiled == nullptr) continue;
      std::vector<uint64_t> expect, got;
      for (uint64_t r = 0; r < derived->num_rows(); ++r) {
        if (expr->EvaluateBool(*derived, r)) expect.push_back(r);
      }
      compiled->FilterTable(*derived, 0, derived->num_rows(), &got);
      ASSERT_TRUE(SelectionsEqual(got, expect)) << expr->ToString();
    }
  }
}

// ---------------------------------------------------------------------------
// KeyEncoder dictionary mode
// ---------------------------------------------------------------------------

std::vector<Value> BoxedKey(const std::vector<const Column*>& cols,
                            uint64_t r) {
  std::vector<Value> out;
  for (const Column* c : cols) out.push_back(c->GetValue(r));
  return out;
}

bool BoxedKeysEqual(const std::vector<Value>& a,
                    const std::vector<Value>& b) {
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i] == b[i])) return false;
  }
  return true;
}

/// Key words and hashes of rows [0, n) of `cols`, encoded as one batch
/// into `strings`.
struct EncodedBatch {
  std::vector<uint64_t> words;
  std::vector<uint64_t> hashes;

  EncodedBatch(const KeyEncoder& enc, const std::vector<const Column*>& cols,
               KeyStrings* strings) {
    const uint64_t n = cols[0]->size();
    words.resize(n * enc.width());
    hashes.resize(n);
    enc.Encode(cols.data(), nullptr, n, strings, words.data(),
               hashes.data());
  }
  std::vector<uint64_t> key(const KeyEncoder& enc, uint64_t r) const {
    return {words.begin() + r * enc.width(),
            words.begin() + (r + 1) * enc.width()};
  }
};

TEST(DictionaryKeyEncoderTest, DictModePreservesEqualityAndDecode) {
  std::mt19937 rng(515);
  TablePtr table = MakeDictTable(256, 25, &rng);
  std::vector<LogicalType> types = {LogicalType::kString,
                                    LogicalType::kInt64,
                                    LogicalType::kString};
  std::vector<const Column*> cols = {&table->column(1), &table->column(0),
                                     &table->column(2)};
  auto encoder = KeyEncoder::Make(types);
  ASSERT_NE(encoder, nullptr);

  KeyStrings strings;
  EncodedBatch keys(*encoder, cols, &strings);
  // Both string columns use their pinned dictionary: every string word
  // is a code, nothing is interned.
  for (uint64_t r = 0; r < table->num_rows(); ++r) {
    for (size_t i : {0u, 2u}) {
      EXPECT_EQ(keys.key(*encoder, r)[i] & KeyEncoder::kInternedString, 0u);
    }
  }
  // Decode reproduces GetValue boxing exactly, resolving codes through
  // the pinned dictionary.
  std::vector<uint32_t> all(table->num_rows());
  for (uint32_t r = 0; r < all.size(); ++r) all[r] = r;
  for (size_t i = 0; i < cols.size(); ++i) {
    Column decoded(types[i]);
    encoder->Decode(i, keys.words.data(), all, strings, &decoded);
    ASSERT_EQ(decoded.size(), table->num_rows());
    for (uint64_t r = 0; r < table->num_rows(); ++r) {
      Value boxed = cols[i]->GetValue(r);
      EXPECT_EQ(decoded.GetValue(r).type(), boxed.type()) << "row " << r;
      EXPECT_EQ(decoded.GetValue(r).ToString(), boxed.ToString())
          << "row " << r;
    }
  }
  // Word equality coincides with boxed Value equality, and equal keys
  // hash equally (the group-table correctness contract; the hash VALUE
  // may differ from payload mode — group emission is first-seen order,
  // so bucketing is invisible to results).
  for (uint64_t a = 0; a < table->num_rows(); a += 3) {
    std::vector<Value> ka = BoxedKey(cols, a);
    for (uint64_t b = a; b < table->num_rows(); b += 5) {
      bool boxed_eq = BoxedKeysEqual(ka, BoxedKey(cols, b));
      EXPECT_EQ(keys.key(*encoder, a) == keys.key(*encoder, b), boxed_eq)
          << a << " vs " << b;
      if (boxed_eq) {
        EXPECT_EQ(keys.hashes[a], keys.hashes[b]);
      }
    }
  }
}

TEST(DictionaryKeyEncoderTest, MixedDictAndPayloadBatchesStayConsistent) {
  std::mt19937 rng(616);
  TablePtr table = MakeDictTable(128, 20, &rng);
  std::vector<LogicalType> types = {LogicalType::kString};
  auto encoder = KeyEncoder::Make(types);
  ASSERT_NE(encoder, nullptr);
  KeyStrings strings;

  // First batch pins the base dictionary.
  EncodedBatch base_keys(*encoder, {&table->column(1)}, &strings);

  // Second batch: same strings, dictionary dropped — the encoder must
  // translate through the pinned dictionary and produce identical words
  // and hashes for equal values.
  Column plain = table->column(1).Gather([&] {
    std::vector<uint64_t> all(table->num_rows());
    for (uint64_t r = 0; r < all.size(); ++r) all[r] = r;
    return all;
  }());
  plain.DropDictionary();
  EncodedBatch plain_keys(*encoder, {&plain}, &strings);
  for (uint64_t r = 0; r < plain.size(); ++r) {
    EXPECT_EQ(plain_keys.key(*encoder, r), base_keys.key(*encoder, r))
        << "row " << r;
    EXPECT_EQ(plain_keys.hashes[r], base_keys.hashes[r]) << "row " << r;
  }

  // Third batch: a string absent from the pinned dictionary is interned
  // and equals no dictionary-coded key (disjoint word spaces).
  Column foreign(LogicalType::kString);
  foreign.AppendString("not-in-any-dictionary");
  EncodedBatch fkey(*encoder, {&foreign}, &strings);
  EXPECT_NE(fkey.words[0] & KeyEncoder::kInternedString, 0u);
  for (uint64_t r = 0; r < table->num_rows(); ++r) {
    EXPECT_NE(fkey.key(*encoder, 0), base_keys.key(*encoder, r));
  }
  Column decoded(LogicalType::kString);
  encoder->Decode(0, fkey.words.data(), {0}, strings, &decoded);
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded.GetValue(0).ToString(), "not-in-any-dictionary");
}

// ---------------------------------------------------------------------------
// JoinHashTable string keys
// ---------------------------------------------------------------------------

/// Nested-loop reference under SQL equality: a NULL key matches nothing
/// (in particular not the "" payload placeholder that null rows carry).
std::vector<std::pair<uint64_t, uint64_t>> ReferenceJoin(
    const Table& probe, size_t pk, const Table& build, size_t bk) {
  std::vector<std::pair<uint64_t, uint64_t>> out;
  for (uint64_t p = 0; p < probe.num_rows(); ++p) {
    if (!probe.column(pk).is_valid(p)) continue;
    for (uint64_t b = 0; b < build.num_rows(); ++b) {
      if (build.column(bk).is_valid(b) &&
          probe.column(pk).string_at(p) == build.column(bk).string_at(b)) {
        out.emplace_back(p, b);
      }
    }
  }
  return out;
}

Schema JoinSchema() {
  return Schema({ColumnDef{"k", LogicalType::kString},
                 ColumnDef{"v", LogicalType::kInt64}});
}

TablePtr MakeJoinTable(const char* name,
                       const std::vector<const char*>& keys,
                       bool with_nulls, bool build_dict) {
  auto t = std::make_shared<Table>(name, JoinSchema());
  int64_t v = 0;
  for (const char* k : keys) {
    if (with_nulls && v % 5 == 4) {
      t->column(0).AppendNull();
    } else {
      t->column(0).AppendString(k);
    }
    t->column(1).AppendInt(v++);
  }
  t->FinishBulkAppend();
  if (build_dict) t->column(0).BuildDictionary();
  return t;
}

void ExpectJoinMatchesReference(const JoinHashTable& ht, const Table& probe,
                                const Table& build, const char* what) {
  JoinHashTable::ProbeView view;
  ASSERT_TRUE(ht.BindProbe(probe, {0}, &view).ok()) << what;
  std::vector<std::pair<uint64_t, uint64_t>> got;
  for (uint64_t p = 0; p < probe.num_rows(); ++p) {
    for (uint64_t b : testing::Matches(ht, view, p)) got.emplace_back(p, b);
  }
  EXPECT_EQ(got, ReferenceJoin(probe, 0, build, 0)) << what;
}

TEST(DictionaryJoinTest, StringKeysDictAndPayloadMatchNestedLoop) {
  std::vector<const char*> build_keys = {"ada", "bob", "cid", "ada", "dee",
                                         "bob", "eve", "ada", "fay", "gil"};
  std::vector<const char*> probe_keys = {"bob", "zed", "ada", "ada", "qrs",
                                         "eve", "cid", "nil", "gil", "bob"};
  for (bool with_nulls : {false, true}) {
    TablePtr build = MakeJoinTable("build", build_keys, with_nulls, true);
    ASSERT_NE(build->column(0).dictionary(), nullptr);

    // Dictionary build mode.
    JoinHashTable dict_ht;
    ASSERT_TRUE(dict_ht.Build(*build, {"k"}).ok());
    EXPECT_TRUE(dict_ht.has_string_keys());
    // Payload build mode: the same rows without a dictionary.
    TablePtr payload_build = WithoutDictionaries(*build);
    JoinHashTable payload_ht;
    ASSERT_TRUE(payload_ht.Build(*payload_build, {"k"}).ok());

    // Probe side 1: shares the build dictionary (code == code compare).
    auto shared = std::make_shared<Table>("shared", JoinSchema());
    for (size_t c = 0; c < build->num_columns(); ++c) {
      shared->column(c).AppendRange(build->column(c), 0, build->num_rows());
    }
    shared->FinishBulkAppend();
    ASSERT_EQ(shared->column(0).dictionary(),
              build->column(0).dictionary());
    // Probe side 2: same key domain plus absent strings, no dictionary
    // (per-row translation; absent => proven no-match).
    TablePtr plain = MakeJoinTable("plain", probe_keys, with_nulls, false);
    // Probe side 3: its own (foreign) dictionary.
    TablePtr foreign = MakeJoinTable("foreign", probe_keys, with_nulls, true);
    ASSERT_NE(foreign->column(0).dictionary(),
              build->column(0).dictionary());

    ExpectJoinMatchesReference(dict_ht, *shared, *build, "dict/shared");
    ExpectJoinMatchesReference(dict_ht, *plain, *build, "dict/plain");
    ExpectJoinMatchesReference(dict_ht, *foreign, *build, "dict/foreign");
    ExpectJoinMatchesReference(payload_ht, *shared, *build,
                               "payload/shared");
    ExpectJoinMatchesReference(payload_ht, *plain, *build, "payload/plain");
  }
}

TEST(DictionaryJoinTest, RejectsUnsupportedKeyTypes) {
  Schema schema({ColumnDef{"d", LogicalType::kDouble}});
  auto t = std::make_shared<Table>("t", schema);
  t->column(0).AppendDouble(1.0);
  t->FinishBulkAppend();
  JoinHashTable ht;
  EXPECT_EQ(ht.Build(*t, {"d"}).code(), StatusCode::kNotImplemented);
}

// ---------------------------------------------------------------------------
// TypedColumnCompare with dictionaries
// ---------------------------------------------------------------------------

int Sign(int c) { return c < 0 ? -1 : (c > 0 ? 1 : 0); }

TEST(DictionaryCompareTest, SortedAndUnsortedDictsMatchValueCompare) {
  std::mt19937 rng(99);
  TablePtr table = MakeDictTable(160, 30, &rng);
  Column& col = table->column(1);
  ASSERT_TRUE(col.dictionary()->sorted);
  auto check_all_pairs = [&](const Column& c) {
    for (uint64_t a = 0; a < c.size(); a += 2) {
      Value va = c.GetValue(a);
      for (uint64_t b = 0; b < c.size(); b += 3) {
        int expect = Sign(va.Compare(c.GetValue(b)));
        EXPECT_EQ(Sign(TypedColumnCompare(c, a, c, b)), expect)
            << "rows " << a << "," << b;
      }
    }
  };
  check_all_pairs(col);  // sorted: int32 code compare path
  // Clear the sorted flag by appending an out-of-order novel string; the
  // dictionary path must refuse and the payload compare take over.
  col.AppendString("zz-unsorted-tail");
  col.AppendString("aa-head");
  ASSERT_FALSE(col.dictionary()->sorted);
  check_all_pairs(col);
}

using optimizer::OptimizerMode;

// ---------------------------------------------------------------------------
// The chaos storm over dictionary-coded string predicates
// ---------------------------------------------------------------------------

class DictionaryStormTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(testing::BuildFigure2Database(&db_).ok());
  }

  /// The lifecycle storm's string-predicate query: dictionary-coded
  /// scans, a string-filtered relational join, hash builds and sinks.
  plan::SpjmQuery FilteredQuery() const {
    auto pattern = db_.ParsePattern(
        "(p1:Person)-[:Likes]->(m:Message), (p2:Person)-[:Likes]->(m), "
        "(p1)-[:Knows]->(p2)");
    EXPECT_TRUE(pattern.ok());
    return plan::SpjmQueryBuilder("filtered")
        .Match(std::move(*pattern))
        .Column("p1", "name")
        .Column("p1", "place_id")
        .Column("p2", "name")
        .Where(storage::Expr::Eq("p1.name", Value::String("Tom")))
        .Join("Place", "place", "p1.place_id", "id",
              storage::Expr::Compare(
                  storage::CompareOp::kNe, storage::Expr::Column("name"),
                  storage::Expr::Constant(Value::String("Nowhere"))))
        .Select("p2.name", "name")
        .Select("place.name", "place_name")
        .Build();
  }

  plan::SpjmQuery VertexPredQuery() const {
    auto pattern = db_.ParsePattern("(a:Person)-[:Knows]->(b:Person)");
    EXPECT_TRUE(pattern.ok());
    pattern->vertex(0).predicate =
        storage::Expr::Eq("name", Value::String("Bob"));
    return plan::SpjmQueryBuilder("vertex_pred")
        .Match(std::move(*pattern))
        .Column("a", "name", "a_name")
        .Column("b", "name", "b_name")
        .Select("a_name")
        .Select("b_name")
        .Build();
  }

  Database db_;
};

TEST_F(DictionaryStormTest, ChaosStormOverDictionaryCodedPredicates) {
  using exec::EngineKind;
  std::vector<plan::SpjmQuery> mix = {FilteredQuery(), VertexPredQuery()};
  std::vector<std::vector<std::string>> reference;
  for (const auto& q : mix) {
    auto serial =
        db_.Run(q, OptimizerMode::kRelGo, testing::OracleOptions());
    ASSERT_TRUE(serial.ok());
    reference.push_back(testing::SortedRows(*serial->table));
  }

  exec::pipeline::AdmissionOptions admission;
  admission.max_concurrent_queries = 2;
  admission.max_queued = 2;
  admission.max_wait_ms = 50;
  db_.worker_pool().SetAdmission(admission);
  fault::ScopedFault armed({4096, 0.02, 0xFFFFFFFFu});

  constexpr int kClients = 4;
  constexpr int kIters = 20;
  std::atomic<uint64_t> terminal{0}, unexpected{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(2000 + static_cast<uint64_t>(c));
      for (int i = 0; i < kIters; ++i) {
        const plan::SpjmQuery& query = mix[(c + i) % mix.size()];
        exec::ExecutionOptions options;
        options.engine = (c + i) % 2 == 0 ? EngineKind::kPipeline
                                          : EngineKind::kMaterialize;
        options.num_threads = 2;
        if (rng.Chance(0.1)) options.timeout_ms = 0.0;
        std::atomic<uint64_t> query_id{0};
        std::atomic<bool> done{false};
        std::thread controller;
        if (rng.Chance(0.2)) {
          options.query_id_out = &query_id;
          controller = std::thread([&] {
            uint64_t id = 0;
            while ((id = query_id.load(std::memory_order_acquire)) == 0) {
              if (done.load(std::memory_order_acquire)) return;
              std::this_thread::yield();
            }
            db_.CancelQuery(id);
          });
        }
        auto result = db_.Run(query, OptimizerMode::kRelGo, options);
        if (controller.joinable()) {
          done.store(true, std::memory_order_release);
          controller.join();
        }
        StatusCode code =
            result.ok() ? StatusCode::kOk : result.status().code();
        bool known = result.ok() || code == StatusCode::kCancelled ||
                     code == StatusCode::kTimeout ||
                     code == StatusCode::kResourceExhausted ||
                     fault::IsInjected(result.status());
        terminal.fetch_add(1);
        if (!known) {
          unexpected.fetch_add(1);
          ADD_FAILURE() << "unexpected terminal status: "
                        << result.status().ToString();
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(terminal.load(), static_cast<uint64_t>(kClients) * kIters);
  EXPECT_EQ(unexpected.load(), 0u);
  EXPECT_TRUE(db_.ActiveQueryIds().empty());
  EXPECT_EQ(db_.worker_pool().admitted_queries(), 0);

  // The database serves normally afterwards, and both engines agree
  // with the pre-storm reference.
  db_.worker_pool().SetAdmission({});
  fault::Disarm();
  for (size_t qi = 0; qi < mix.size(); ++qi) {
    for (EngineKind engine :
         {EngineKind::kMaterialize, EngineKind::kPipeline}) {
      exec::ExecutionOptions options;
      options.engine = engine;
      options.num_threads = 2;
      auto result = db_.Run(mix[qi], OptimizerMode::kRelGo, options);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(testing::SortedRows(*result->table), reference[qi]);
    }
  }
}

}  // namespace
}  // namespace relgo
