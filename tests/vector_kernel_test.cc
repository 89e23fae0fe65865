// Differential tests of the vectorized kernel layer (src/exec/vector/)
// against the row-at-a-time oracle paths it replaces:
//
//  * CompiledPredicate vs Expr::EvaluateBool over randomized columns of
//    every LogicalType, null density and operator mix — the compiled
//    program must select exactly the oracle's rows (and its bitmap /
//    selection-refinement entry points must agree with it too).
//  * KeyEncoder vs boxed GroupKey semantics: byte equality must coincide
//    with Value-vector equality, the chained hash must equal the boxed
//    GroupKeyHash chain, and Decode must reproduce Column::GetValue.
//  * AggColumnView vs the boxed aggregate update loop.
//  * TypedColumnCompare / TypedColumnValueCompare vs Value::Compare.
//  * ScanCache cost-aware admission and bitmap payloads (the cache layer
//    the kernel-filter paths publish into).
//
// Whole queries are checked against the reference interpreter, which
// uses none of these components, in pipeline_parity_test.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "common/hash.h"
#include "exec/scan_cache.h"
#include "exec/vector/compiled_expr.h"
#include "exec/vector/typed_keys.h"
#include "fixtures.h"
#include "storage/expression.h"
#include "storage/table.h"

namespace relgo {
namespace exec {
namespace vector {
namespace {

using storage::Column;
using storage::ColumnDef;
using storage::CompareOp;
using storage::Expr;
using storage::ExprPtr;
using storage::Schema;
using storage::Table;
using storage::TablePtr;

// ---------------------------------------------------------------------------
// Randomized predicate differential: CompiledPredicate vs EvaluateBool
// ---------------------------------------------------------------------------

const char* const kStringPool[] = {"",      "a",     "ab",   "alpha",
                                   "beta",  "bravo", "zeta", "alphabet",
                                   "gamma", "a b"};
constexpr size_t kStringPoolSize =
    sizeof(kStringPool) / sizeof(kStringPool[0]);

Schema TestSchema() {
  return Schema({ColumnDef{"i", LogicalType::kInt64},
                 ColumnDef{"j", LogicalType::kInt64},
                 ColumnDef{"d", LogicalType::kDouble},
                 ColumnDef{"b", LogicalType::kBool},
                 ColumnDef{"t", LogicalType::kDate},
                 ColumnDef{"s", LogicalType::kString},
                 ColumnDef{"s2", LogicalType::kString}});
}

/// A table of `n` rows over TestSchema() with roughly `null_pct` percent
/// NULLs per column. Small value domains so random comparisons land at
/// varied selectivities; doubles include NaN and -0.0.
TablePtr MakeRandomTable(uint64_t n, int null_pct, std::mt19937* rng) {
  auto table = std::make_shared<Table>("rand", TestSchema());
  std::uniform_int_distribution<int> pct(0, 99);
  std::uniform_int_distribution<int> small(-40, 40);
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
        case LogicalType::kDouble: {
          int pick = static_cast<int>((*rng)() % 16);
          if (pick == 0) {
            col.AppendDouble(std::nan(""));
          } else if (pick == 1) {
            col.AppendDouble(-0.0);
          } else {
            col.AppendDouble(small(*rng) / 2.0);
          }
          break;
        }
        case LogicalType::kBool:
          col.AppendInt((*rng)() % 2);
          break;
        case LogicalType::kDate:
          col.AppendInt(19000 + small(*rng));
          break;
        case LogicalType::kString:
          col.AppendString(kStringPool[(*rng)() % kStringPoolSize]);
          break;
        case LogicalType::kNull:
          col.AppendNull();
          break;
      }
    }
  }
  table->FinishBulkAppend();
  return table;
}

Value RandomConstFor(LogicalType t, std::mt19937* rng) {
  std::uniform_int_distribution<int> small(-40, 40);
  switch (t) {
    case LogicalType::kInt64:
      return Value::Int(small(*rng));
    case LogicalType::kDouble: {
      int pick = static_cast<int>((*rng)() % 8);
      if (pick == 0) return Value::Double(std::nan(""));
      if (pick == 1) return Value::Double(-0.0);
      return Value::Double(small(*rng) / 2.0);
    }
    case LogicalType::kBool:
      return Value::Bool((*rng)() % 2 == 0);
    case LogicalType::kDate:
      return Value::Date(19000 + small(*rng));
    case LogicalType::kString:
      return Value::String(kStringPool[(*rng)() % kStringPoolSize]);
    default:
      return Value::Null();
  }
}

CompareOp RandomCmp(std::mt19937* rng) {
  constexpr CompareOp kOps[] = {CompareOp::kEq, CompareOp::kNe,
                                CompareOp::kLt, CompareOp::kLe,
                                CompareOp::kGt, CompareOp::kGe};
  return kOps[(*rng)() % 6];
}

ExprPtr RandomLeaf(std::mt19937* rng) {
  struct Col {
    const char* name;
    LogicalType type;
  };
  constexpr Col kCols[] = {
      {"i", LogicalType::kInt64}, {"j", LogicalType::kInt64},
      {"d", LogicalType::kDouble}, {"b", LogicalType::kBool},
      {"t", LogicalType::kDate},   {"s", LogicalType::kString},
      {"s2", LogicalType::kString}};
  const Col& a = kCols[(*rng)() % 7];
  switch ((*rng)() % 10) {
    case 0:
    case 1:  // column vs type-matched constant (twice as likely)
      return Expr::Compare(RandomCmp(rng), Expr::Column(a.name),
                           Expr::Constant(RandomConstFor(a.type, rng)));
    case 2: {  // column vs column
      const Col& b = kCols[(*rng)() % 7];
      return Expr::Compare(RandomCmp(rng), Expr::Column(a.name),
                           Expr::Column(b.name));
    }
    case 3:  // cross-type compare (type-tag ordering / kNoRows semantics)
      return Expr::Compare(
          RandomCmp(rng), Expr::Column(a.name),
          Expr::Constant(RandomConstFor(
              a.type == LogicalType::kString ? LogicalType::kInt64
                                             : LogicalType::kString,
              rng)));
    case 4:
      return Expr::StartsWith(Expr::Column("s"),
                              kStringPool[(*rng)() % kStringPoolSize]);
    case 5:
      return Expr::Contains(Expr::Column("s"),
                            kStringPool[(*rng)() % kStringPoolSize]);
    case 6: {  // IN list, occasionally with a NULL candidate
      std::vector<Value> values;
      size_t len = (*rng)() % 4;
      for (size_t v = 0; v < len; ++v) {
        values.push_back(RandomConstFor(a.type, rng));
      }
      if ((*rng)() % 5 == 0) values.push_back(Value::Null());
      return Expr::InList(Expr::Column(a.name), std::move(values));
    }
    case 7:
      return Expr::IsNull(Expr::Column(a.name));
    case 8:
      return Expr::Column("b");  // bare bool column as predicate
    default:
      // Bare constant leaf: must stay bool-typed — And/Or/Not evaluation
      // assumes bool children (the planner only builds bool predicates).
      return Expr::Constant((*rng)() % 4 == 0
                                ? Value::Null()
                                : Value::Bool((*rng)() % 2 == 0));
  }
}

ExprPtr RandomExpr(int depth, std::mt19937* rng) {
  if (depth <= 0) return RandomLeaf(rng);
  switch ((*rng)() % 6) {
    case 0:
      return Expr::And(RandomExpr(depth - 1, rng),
                       RandomExpr(depth - 1, rng));
    case 1:
      return Expr::Or(RandomExpr(depth - 1, rng),
                      RandomExpr(depth - 1, rng));
    case 2:
      return Expr::Not(RandomExpr(depth - 1, rng));
    default:
      return RandomLeaf(rng);
  }
}

/// EXPECT_EQ on selection vectors, but reporting the first divergence
/// index instead of gtest's truncated common prefix.
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

TEST(CompiledPredicateDifferential, RandomizedAgainstEvaluateBoolOracle) {
  Schema schema = TestSchema();
  int total = 0, compiled_count = 0;
  for (int null_pct : {0, 5, 50, 100}) {
    for (uint32_t seed = 1; seed <= 6; ++seed) {
      std::mt19937 rng(seed * 7919 + static_cast<uint32_t>(null_pct));
      TablePtr table = MakeRandomTable(512, null_pct, &rng);
      std::vector<const Column*> cols;
      for (size_t c = 0; c < table->num_columns(); ++c) {
        cols.push_back(&table->column(c));
      }
      for (int k = 0; k < 40; ++k) {
        ExprPtr expr = RandomExpr(3, &rng);
        ASSERT_TRUE(expr->Bind(schema).ok()) << expr->ToString();
        ++total;
        auto compiled = CompiledPredicate::Compile(*expr, schema);
        if (compiled == nullptr) continue;  // fallback contract
        ++compiled_count;

        std::vector<uint64_t> expect;
        for (uint64_t r = 0; r < table->num_rows(); ++r) {
          if (expr->EvaluateBool(*table, r)) expect.push_back(r);
        }
        std::vector<uint64_t> got;
        compiled->FilterTable(*table, 0, table->num_rows(), &got);
        ASSERT_TRUE(SelectionsEqual(got, expect))
            << "null_pct=" << null_pct << " seed=" << seed
            << " expr=" << expr->ToString();

        // Bitmap entry point agrees with the selection.
        std::vector<uint8_t> bitmap;
        compiled->FilterBitmap(cols.data(), table->num_rows(), &bitmap);
        ASSERT_EQ(bitmap.size(), table->num_rows());
        std::vector<uint64_t> from_bitmap;
        for (uint64_t r = 0; r < bitmap.size(); ++r) {
          if (bitmap[r]) from_bitmap.push_back(r);
        }
        ASSERT_TRUE(SelectionsEqual(from_bitmap, expect))
            << expr->ToString();

        // Selection refinement agrees on a random ascending subset.
        std::vector<uint64_t> subset, expect_subset, got_subset;
        for (uint64_t r = 0; r < table->num_rows(); ++r) {
          if (rng() % 2 == 0) subset.push_back(r);
        }
        for (uint64_t r : subset) {
          if (expr->EvaluateBool(*table, r)) expect_subset.push_back(r);
        }
        compiled->FilterSelected(cols.data(), subset, &got_subset);
        ASSERT_TRUE(SelectionsEqual(got_subset, expect_subset))
            << expr->ToString();
      }
    }
  }
  // The lowerer must cover the bulk of the generated predicate space —
  // a regression that silently bails to the row loop shows up here.
  EXPECT_GT(compiled_count, total / 2)
      << "compiled " << compiled_count << " of " << total;
}

// ---------------------------------------------------------------------------
// KeyEncoder: byte equality == Value equality, hash == GroupKeyHash chain
// ---------------------------------------------------------------------------

std::vector<Value> BoxedKey(const Table& table,
                            const std::vector<size_t>& cols, uint64_t r) {
  std::vector<Value> out;
  for (size_t c : cols) out.push_back(table.column(c).GetValue(r));
  return out;
}

bool BoxedKeysEqual(const std::vector<Value>& a,
                    const std::vector<Value>& b) {
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i] == b[i])) return false;
  }
  return true;
}

TEST(KeyEncoderTest, EncodeMatchesBoxedGroupKeySemantics) {
  std::mt19937 rng(4242);
  TablePtr table = MakeRandomTable(256, 25, &rng);
  // Every byte-encodable type: int64, bool, date, string (and a second
  // string to get length-prefix boundaries in the middle of a key).
  std::vector<size_t> key_cols = {0, 3, 4, 5, 6};
  std::vector<LogicalType> types;
  std::vector<const Column*> cols;
  for (size_t c : key_cols) {
    types.push_back(table->column(c).type());
    cols.push_back(&table->column(c));
  }
  auto encoder = KeyEncoder::Make(types);
  ASSERT_NE(encoder, nullptr);
  ASSERT_EQ(encoder->num_cols(), key_cols.size());

  std::vector<EncodedGroupKey> keys(table->num_rows());
  for (uint64_t r = 0; r < table->num_rows(); ++r) {
    encoder->Encode(cols.data(), r, &keys[r]);
    std::vector<Value> boxed = BoxedKey(*table, key_cols, r);

    // Hash equals the boxed GroupKeyHash chain (same seed, Value::Hash
    // per key), so typed and boxed maps bucket identically.
    size_t h = kHashSeed;
    for (const Value& v : boxed) h = HashCombine(h, v.Hash());
    EXPECT_EQ(keys[r].hash, h) << "row " << r;

    // Decode reproduces Column::GetValue boxing exactly (type + value).
    std::vector<Value> decoded;
    encoder->Decode(keys[r], &decoded);
    ASSERT_EQ(decoded.size(), boxed.size());
    for (size_t i = 0; i < boxed.size(); ++i) {
      EXPECT_EQ(decoded[i].type(), boxed[i].type()) << "row " << r;
      EXPECT_EQ(decoded[i].ToString(), boxed[i].ToString()) << "row " << r;
    }
  }
  // Byte equality coincides with boxed Value-vector equality.
  for (uint64_t a = 0; a < table->num_rows(); a += 3) {
    std::vector<Value> ka = BoxedKey(*table, key_cols, a);
    for (uint64_t b = a; b < table->num_rows(); b += 7) {
      bool boxed_eq = BoxedKeysEqual(ka, BoxedKey(*table, key_cols, b));
      EXPECT_EQ(keys[a] == keys[b], boxed_eq) << a << " vs " << b;
    }
  }
}

TEST(KeyEncoderTest, DoubleKeysFallBackToBoxedPath) {
  // NaN is Compare-equal to every numeric, so double keys are not
  // byte-encodable; Make must refuse and callers keep the boxed map.
  EXPECT_EQ(KeyEncoder::Make({LogicalType::kDouble}), nullptr);
  EXPECT_EQ(
      KeyEncoder::Make({LogicalType::kInt64, LogicalType::kDouble}),
      nullptr);
  EXPECT_NE(KeyEncoder::Make({}), nullptr);  // global aggregate
}

// ---------------------------------------------------------------------------
// AggColumnView vs the boxed aggregate update loop
// ---------------------------------------------------------------------------

struct TestAggState {
  int64_t count = 0;
  Value min, max;
  double sum = 0;
  int64_t isum = 0;
};

TEST(AggColumnViewTest, MatchesBoxedUpdateLoop) {
  std::mt19937 rng(1337);
  for (int null_pct : {0, 30, 100}) {
    TablePtr table = MakeRandomTable(400, null_pct, &rng);
    for (size_t c = 0; c < table->num_columns(); ++c) {
      const Column& col = table->column(c);
      TestAggState boxed, typed;
      for (uint64_t r = 0; r < table->num_rows(); ++r) {
        boxed.count += 1;
        Value v = col.GetValue(r);
        if (!v.is_null()) {
          if (boxed.min.is_null() || v < boxed.min) boxed.min = v;
          if (boxed.max.is_null() || boxed.max < v) boxed.max = v;
          if (v.type() == LogicalType::kInt64) boxed.isum += v.int_value();
          if (v.type() == LogicalType::kDouble) {
            boxed.sum += v.double_value();
          }
        }
      }
      AggColumnView view(&col);
      for (uint64_t r = 0; r < table->num_rows(); ++r) {
        typed.count += 1;
        view.Update(r, &typed);
      }
      EXPECT_EQ(typed.count, boxed.count);
      EXPECT_EQ(typed.isum, boxed.isum) << "col " << c;
      // Same addition order => bitwise-equal double sums (NaN included).
      EXPECT_EQ(std::memcmp(&typed.sum, &boxed.sum, sizeof(double)), 0)
          << "col " << c;
      EXPECT_EQ(typed.min.is_null(), boxed.min.is_null()) << "col " << c;
      EXPECT_EQ(typed.min.ToString(), boxed.min.ToString()) << "col " << c;
      EXPECT_EQ(typed.max.ToString(), boxed.max.ToString()) << "col " << c;
    }
  }
}

// ---------------------------------------------------------------------------
// Typed sort-key comparison vs Value::Compare
// ---------------------------------------------------------------------------

int Sign(int c) { return c < 0 ? -1 : (c > 0 ? 1 : 0); }

TEST(TypedColumnCompareTest, SignMatchesValueCompare) {
  std::mt19937 rng(99);
  for (int null_pct : {0, 40}) {
    TablePtr table = MakeRandomTable(200, null_pct, &rng);
    for (size_t c = 0; c < table->num_columns(); ++c) {
      const Column& col = table->column(c);
      for (uint64_t a = 0; a < table->num_rows(); a += 3) {
        for (uint64_t b = 0; b < table->num_rows(); b += 11) {
          Value va = col.GetValue(a), vb = col.GetValue(b);
          int expect = Sign(va.Compare(vb));
          EXPECT_EQ(Sign(TypedColumnCompare(col, a, col, b)), expect)
              << "col " << c << " rows " << a << "," << b;
          EXPECT_EQ(Sign(TypedColumnValueCompare(col, a, vb)), expect)
              << "col " << c << " rows " << a << "," << b;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// ScanCache: cost-aware admission + bitmap payloads
// ---------------------------------------------------------------------------

ScanCache::SelectionPtr MakeSel(size_t n) {
  auto sel = std::make_shared<std::vector<uint64_t>>();
  for (size_t i = 0; i < n; ++i) sel->push_back(i);
  return sel;
}

ScanCache::BitmapPtr MakeBitmap(size_t n) {
  return std::make_shared<std::vector<uint8_t>>(n, 1);
}

TEST(ScanCacheAdmissionTest, RejectsEntriesOverTheCapFraction) {
  ScanCache cache(/*max_bytes=*/2000);  // cap = 1000 bytes per entry
  ASSERT_EQ(cache.admit_cap_bytes(), 1000u);
  // 100 ids = 1 + 800 + 64 bytes: admitted.
  cache.Put("a", 1, MakeSel(100));
  EXPECT_EQ(cache.entries(), 1u);
  // 1000 ids = 8065 bytes > cap: refused outright (no eviction of the
  // colder-but-still-hot entry), counted as a rejection.
  cache.Put("b", 1, MakeSel(1000));
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.Get("b", 1), nullptr);
  EXPECT_NE(cache.Get("a", 1), nullptr);
  EXPECT_EQ(cache.stats().rejections, 1u);
  // Oversized bitmaps are refused by the same cap.
  cache.PutBitmap("bitmap|c", 1, MakeBitmap(1500));
  EXPECT_EQ(cache.stats().rejections, 2u);
  EXPECT_EQ(cache.entries(), 1u);
}

TEST(ScanCacheAdmissionTest, BitmapPayloadsShareLruAndVersioning) {
  ScanCache cache(/*max_bytes=*/2000);
  auto bitmap = MakeBitmap(200);  // 9 + 200 + 64 = 273 bytes
  cache.PutBitmap("bitmap|t1", 7, bitmap);
  auto hit = cache.GetBitmap("bitmap|t1", 7);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit.get(), bitmap.get());  // shared, not copied
  EXPECT_EQ(cache.stats().hits, 1u);
  // Version mismatch invalidates, exactly like selection entries.
  EXPECT_EQ(cache.GetBitmap("bitmap|t1", 8), nullptr);
  EXPECT_EQ(cache.stats().invalidations, 1u);
  // Selections and bitmaps share one byte budget: filling with
  // selections evicts the bitmap from the cold end.
  cache.PutBitmap("bitmap|t2", 1, MakeBitmap(600));
  cache.Put("s1", 1, MakeSel(100));
  cache.Put("s2", 1, MakeSel(100));
  cache.Put("s3", 1, MakeSel(100));
  EXPECT_EQ(cache.GetBitmap("bitmap|t2", 1), nullptr);
  EXPECT_GT(cache.stats().evictions, 0u);
}

TEST(ScanCacheAdmissionTest, BitmapKeyNamespaceNeverCollides) {
  auto filter = Expr::Eq("x", Value::Int(1));
  EXPECT_NE(ScanCache::Key("bitmap", "t", filter),
            ScanCache::Key("scan", "t", filter));
  EXPECT_NE(ScanCache::Key("bitmap", "t", filter),
            ScanCache::Key("vscan", "t", filter));
}

}  // namespace
}  // namespace vector
}  // namespace exec
}  // namespace relgo
