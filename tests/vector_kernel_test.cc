// Differential tests of the vectorized kernel layer (src/exec/vector/)
// against the row-at-a-time oracle paths it replaces:
//
//  * CompiledPredicate vs Expr::EvaluateBool over randomized columns of
//    every LogicalType, null density and operator mix — the compiled
//    program must select exactly the oracle's rows (and its bitmap /
//    selection-refinement entry points must agree with it too).
//  * KeyEncoder vs boxed group-key semantics: word equality must coincide
//    with Value-vector equality, equal keys must hash equally (the batch's
//    column-by-column hash is the hash of the row's words), and Decode
//    must reproduce Column::GetValue (a double key reads back canonical:
//    ±0 as +0.0, one NaN).
//  * GroupTable: keys that share a hash stay distinct, and every group
//    survives the table's growth.
//  * AggColumnView vs the boxed aggregate update loop.
//  * TypedColumnCompare vs Value::Compare.
//  * ScanCache cost-aware admission over its bitmap payloads (the cache
//    layer the kernel-filter paths publish into).
//
// Whole queries are checked against the reference interpreter, which
// uses none of these components, in pipeline_parity_test.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
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
// KeyEncoder: word equality == Value equality, one hash per key
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

/// Every row's key words and hash, encoded batch by batch: the rows of
/// `cols` are cut into batches of `batch_rows` (Column::Slice), so keys
/// are encoded from several batches into one KeyStrings.
struct EncodedRows {
  std::vector<uint64_t> words;
  std::vector<uint64_t> hashes;
  KeyStrings strings;

  const uint64_t* key(const KeyEncoder& enc, uint64_t r) const {
    return words.data() + r * enc.width();
  }
  bool Equal(const KeyEncoder& enc, uint64_t a, uint64_t b) const {
    return std::equal(key(enc, a), key(enc, a) + enc.width(), key(enc, b));
  }
};

void EncodeInBatches(const KeyEncoder& enc,
                     const std::vector<const Column*>& cols,
                     uint64_t batch_rows, EncodedRows* out) {
  const uint64_t n = cols.empty() ? 0 : cols[0]->size();
  out->words.assign(n * enc.width(), 0);
  out->hashes.assign(n, 0);
  for (uint64_t begin = 0; begin < n; begin += batch_rows) {
    uint64_t count = std::min(batch_rows, n - begin);
    std::vector<Column> slices;
    for (const Column* c : cols) slices.push_back(c->Slice(begin, count));
    std::vector<const Column*> batch;
    for (const Column& c : slices) batch.push_back(&c);
    enc.Encode(batch.data(), nullptr, count, &out->strings,
               out->words.data() + begin * enc.width(),
               out->hashes.data() + begin);
  }
}

/// Decodes key column i of every row's key into a fresh column.
Column DecodeAll(const KeyEncoder& enc, const EncodedRows& rows, size_t i,
                 LogicalType type) {
  std::vector<uint32_t> all(rows.hashes.size());
  for (uint32_t r = 0; r < all.size(); ++r) all[r] = r;
  Column out(type);
  enc.Decode(i, rows.words.data(), all, rows.strings, &out);
  return out;
}

TEST(KeyEncoderTest, EncodeMatchesBoxedGroupKeySemantics) {
  std::mt19937 rng(4242);
  TablePtr table = MakeRandomTable(256, 25, &rng);
  // Every key type: int64, bool, date, string (and a second string, so
  // two interned columns share one KeyStrings).
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
  ASSERT_EQ(encoder->width(), key_cols.size() + 1);  // + one null word

  EncodedRows rows;
  EncodeInBatches(*encoder, cols, 100, &rows);
  for (uint64_t r = 0; r < table->num_rows(); ++r) {
    // The batch's column-by-column hash is the hash of the row's words.
    EXPECT_EQ(rows.hashes[r], encoder->Hash(rows.key(*encoder, r)))
        << "row " << r;
  }
  // Decode reproduces Column::GetValue boxing exactly (type + value).
  for (size_t i = 0; i < key_cols.size(); ++i) {
    Column decoded = DecodeAll(*encoder, rows, i, types[i]);
    ASSERT_EQ(decoded.size(), table->num_rows());
    for (uint64_t r = 0; r < table->num_rows(); ++r) {
      Value boxed = table->column(key_cols[i]).GetValue(r);
      EXPECT_EQ(decoded.GetValue(r).type(), boxed.type()) << "row " << r;
      EXPECT_EQ(decoded.GetValue(r).ToString(), boxed.ToString())
          << "row " << r;
    }
  }
  // Word equality coincides with boxed Value-vector equality, and equal
  // keys hash equally.
  for (uint64_t a = 0; a < table->num_rows(); a += 3) {
    std::vector<Value> ka = BoxedKey(*table, key_cols, a);
    for (uint64_t b = a; b < table->num_rows(); b += 7) {
      bool boxed_eq = BoxedKeysEqual(ka, BoxedKey(*table, key_cols, b));
      EXPECT_EQ(rows.Equal(*encoder, a, b), boxed_eq) << a << " vs " << b;
      if (boxed_eq) {
        EXPECT_EQ(rows.hashes[a], rows.hashes[b]);
      }
    }
  }
}

TEST(KeyEncoderTest, DoubleKeysGroupSignedZerosTogether) {
  // +0.0 and -0.0 are one group, as under Value::Compare and Value::Hash,
  // and the group decodes as +0.0; every NaN payload is one group.
  auto global = KeyEncoder::Make({});  // global aggregate: no key words
  ASSERT_NE(global, nullptr);
  EXPECT_EQ(global->width(), 0u);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> doubles = {0.0, -0.0, 1.5, 1.5, -2.25, nan, -nan};
  Column ids(LogicalType::kInt64);
  Column col(LogicalType::kDouble);
  for (double d : doubles) {
    ids.AppendInt(7);
    col.AppendDouble(d);
  }
  ids.AppendInt(7);
  col.AppendNull();
  auto encoder = KeyEncoder::Make({LogicalType::kInt64, LogicalType::kDouble});
  ASSERT_NE(encoder, nullptr);
  EncodedRows rows;
  EncodeInBatches(*encoder, {&ids, &col}, 3, &rows);
  Column decoded_ids = DecodeAll(*encoder, rows, 0, LogicalType::kInt64);
  Column decoded = DecodeAll(*encoder, rows, 1, LogicalType::kDouble);
  const uint64_t kNanRow = 5, kNullRow = 7;
  for (uint64_t a = 0; a < col.size(); ++a) {
    EXPECT_EQ(decoded_ids.GetValue(a), Value::Int(7));
    EXPECT_EQ(rows.hashes[a], encoder->Hash(rows.key(*encoder, a)));
    if (a == kNullRow) {
      EXPECT_TRUE(decoded.GetValue(a).is_null());
    } else if (a >= kNanRow) {
      EXPECT_TRUE(std::isnan(decoded.double_at(a)));
    } else {
      // Equality of the non-NaN keys is the boxed key's; equal keys hash
      // equally.
      EXPECT_EQ(decoded.GetValue(a).Compare(col.GetValue(a)), 0)
          << "row " << a;
      if (col.double_at(a) == 0.0) {
        EXPECT_FALSE(std::signbit(decoded.double_at(a))) << "row " << a;
      }
      for (uint64_t b = 0; b < kNanRow; ++b) {
        bool boxed_eq = col.GetValue(a) == col.GetValue(b);
        EXPECT_EQ(rows.Equal(*encoder, a, b), boxed_eq) << a << " vs " << b;
        if (boxed_eq) {
        EXPECT_EQ(rows.hashes[a], rows.hashes[b]);
      }
      }
    }
  }
  EXPECT_TRUE(rows.Equal(*encoder, 0, 1));
  EXPECT_EQ(rows.hashes[0], rows.hashes[1]);
  EXPECT_TRUE(rows.Equal(*encoder, kNanRow, kNanRow + 1));
  EXPECT_EQ(rows.hashes[kNanRow], rows.hashes[kNanRow + 1]);
  EXPECT_FALSE(rows.Equal(*encoder, 0, kNullRow));
  EXPECT_FALSE(rows.Equal(*encoder, 0, kNanRow));
  EXPECT_FALSE(rows.Equal(*encoder, kNanRow, kNullRow));
}

TEST(GroupTableTest, KeysSharingAHashStayDistinctThroughGrowth) {
  // Every key has the same hash, so each lookup walks one probe chain
  // and decides by the key words alone; the keys differ only in their
  // last word. Five times the first capacity forces several doublings.
  const uint64_t kHash = 0x9e3779b97f4a7c15ULL;
  const uint32_t kGroups = 5 * GroupTable::kFirstSlots;
  GroupTable table(3);
  for (int pass = 0; pass < 2; ++pass) {
    for (uint32_t g = 0; g < kGroups; ++g) {
      const uint64_t key[3] = {7, 0, g};
      bool inserted = false;
      EXPECT_EQ(table.FindOrInsert(key, kHash, &inserted), g);
      EXPECT_EQ(inserted, pass == 0) << "group " << g;
    }
  }
  ASSERT_EQ(table.size(), kGroups);
  for (uint32_t g = 0; g < kGroups; ++g) {
    EXPECT_EQ(table.key(g)[2], g);
    EXPECT_EQ(table.hash(g), kHash);
  }
  // Well-spread hashes: every group is still found after the growth.
  GroupTable spread(1);
  auto hash_of = [](uint64_t g) { return HashCombine(kHashSeed, g); };
  for (uint64_t g = 0; g < kGroups; ++g) {
    bool inserted = false;
    spread.FindOrInsert(&g, hash_of(g), &inserted);
  }
  for (uint64_t g = 0; g < kGroups; ++g) {
    bool inserted = true;
    EXPECT_EQ(spread.FindOrInsert(&g, hash_of(g), &inserted), g);
    EXPECT_FALSE(inserted) << "group " << g;
  }
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
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// ScanCache: cost-aware admission over bitmap payloads
// ---------------------------------------------------------------------------

ScanCache::BitmapPtr MakeBitmap(size_t n) {
  return std::make_shared<std::vector<uint8_t>>(n, 1);
}

TEST(ScanCacheAdmissionTest, RejectsEntriesOverTheCapFraction) {
  ScanCache cache(/*max_bytes=*/2000);  // cap = 1000 bytes per entry
  ASSERT_EQ(cache.admit_cap_bytes(), 1000u);
  // 800 bytes = 1 + 800 + 64 bytes: admitted.
  cache.Put("a", 1, MakeBitmap(800));
  EXPECT_EQ(cache.entries(), 1u);
  // 8000 bytes = 8065 bytes > cap: refused outright (no eviction of the
  // colder-but-still-hot entry), counted as a rejection.
  cache.Put("b", 1, MakeBitmap(8000));
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.Get("b", 1), nullptr);
  EXPECT_NE(cache.Get("a", 1), nullptr);
  EXPECT_EQ(cache.stats().rejections, 1u);
  // The cap is inclusive: 1 + 935 + 64 = 1000 bytes is admitted, one more
  // byte is refused.
  cache.Put("c", 1, MakeBitmap(936));
  EXPECT_EQ(cache.stats().rejections, 2u);
  cache.Put("c", 1, MakeBitmap(935));
  EXPECT_EQ(cache.stats().rejections, 2u);
  EXPECT_EQ(cache.entries(), 2u);
}

TEST(ScanCacheAdmissionTest, HitsShareThePayloadAndColdEntriesGoFirst) {
  ScanCache cache(/*max_bytes=*/2000);
  auto bitmap = MakeBitmap(200);  // 2 + 200 + 64 = 266 bytes
  cache.Put("t1", 7, bitmap);
  auto hit = cache.Get("t1", 7);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit.get(), bitmap.get());  // shared, not copied
  EXPECT_EQ(cache.stats().hits, 1u);
  // Version mismatch invalidates.
  EXPECT_EQ(cache.Get("t1", 8), nullptr);
  EXPECT_EQ(cache.stats().invalidations, 1u);
  // Admitted entries evict from the cold end: t2 is the oldest when
  // three more entries overflow the budget.
  cache.Put("t2", 1, MakeBitmap(600));
  cache.Put("s1", 1, MakeBitmap(450));
  cache.Put("s2", 1, MakeBitmap(450));
  cache.Put("s3", 1, MakeBitmap(450));
  EXPECT_EQ(cache.Get("t2", 1), nullptr);
  EXPECT_NE(cache.Get("s1", 1), nullptr);
  EXPECT_GT(cache.stats().evictions, 0u);
}

}  // namespace
}  // namespace vector
}  // namespace exec
}  // namespace relgo
