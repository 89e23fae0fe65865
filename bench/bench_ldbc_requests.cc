// Per-request probe of the perfbench `ldbc` pool: the fastest of --reps
// unprofiled calls of every request, on the same dataset, requests and
// serving options as perfbench (LDBC scale 0.3, the 18 IC templates bound
// to the first names at popularity ranks 10, 15, ..., 35, RelGo, pipeline
// engine, plan cache on, one worker). Use it to locate a perfbench `ldbc`
// change per template and per request.
//
//   bench_ldbc_requests [--reps <n>] [--query <substring>] [--explain]
//                       [--check]
//
//   --reps <n>          timed calls per request after one warm-up call
//                       (default 30); a request's time is its fastest
//   --query <substring> only requests whose label ("IC1-3/Lee") contains it
//   --explain           also print EXPLAIN ANALYZE of each request
//   --check             compare the warm-up call's result and the last
//                       timed call's row for row with the reference
//                       interpreter (caches off); exit 1 on the first
//                       mismatch. Only the first binding's warm-up call
//                       of each template misses the plan cache; every
//                       other checked call hits that template's plan, run
//                       with the call's own values. Prints how many of
//                       the checked calls missed and hit.
//
// Prints one line per request, then each template's summed fastest times
// and the pool total. Writes no BENCH_pipeline.json records.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/timer.h"
#include "optimizer/plan_cache.h"

namespace relgo {
namespace {

// The perfbench `ldbc` pool: dataset scale, the popularity ranks of the
// bound first names, and the name in the templates that marks the slots
// to rebind. These constants and Pool() are a copy of LdbcPool,
// kLdbcNameRanks and kLdbcTemplateName in perfbench/driver.cc; nothing
// checks that the two agree, so change both together.
constexpr double kScale = 0.3;
constexpr size_t kNameRanks[] = {10, 15, 20, 25, 30, 35};
constexpr const char* kTemplateName = "Jose";

struct Request {
  std::string label;
  std::string template_name;
  plan::SpjmQuery query;
};

std::vector<Request> Pool(const Database& db) {
  auto person = db.catalog().GetTable("Person");
  const storage::Column* first =
      person.ok() ? (*person)->FindColumn("firstName") : nullptr;
  if (first == nullptr) {
    std::fprintf(stderr, "Person.firstName missing\n");
    std::exit(1);
  }
  std::map<std::string, int64_t> counts;
  for (uint64_t row = 0; row < (*person)->num_rows(); ++row) {
    ++counts[first->GetValue(row).string_value()];
  }
  std::vector<std::pair<int64_t, std::string>> by_count;
  for (const auto& [name, count] : counts) by_count.emplace_back(-count, name);
  std::sort(by_count.begin(), by_count.end());
  std::vector<std::string> names;
  for (size_t rank : kNameRanks) {
    if (rank < by_count.size()) names.push_back(by_count[rank].second);
  }
  std::vector<Request> pool;
  for (const workload::WorkloadQuery& wq :
       workload::LdbcInteractiveQueries(db)) {
    optimizer::ParameterizedQuery t = optimizer::ParameterizeQuery(wq.query);
    for (const std::string& name : names) {
      std::vector<Value> params = t.defaults;
      for (Value& v : params) {
        if (v.type() == LogicalType::kString &&
            v.string_value() == kTemplateName) {
          v = Value::String(name);
        }
      }
      auto bound = optimizer::BindTemplate(t, params);
      if (!bound.ok()) {
        std::fprintf(stderr, "%s: %s\n", wq.query.name.c_str(),
                     bound.status().ToString().c_str());
        std::exit(1);
      }
      bound->name = wq.query.name;
      pool.push_back({wq.query.name + "/" + name, wq.query.name,
                      std::move(*bound)});
    }
  }
  return pool;
}

/// The rendered rows of `table`, in order.
std::vector<std::string> Rows(const storage::Table& table) {
  std::vector<std::string> rows(table.num_rows());
  for (uint64_t r = 0; r < table.num_rows(); ++r) {
    for (size_t c = 0; c < table.num_columns(); ++c) {
      if (c > 0) rows[r] += "|";
      rows[r] += table.GetValue(r, c).ToString();
    }
  }
  return rows;
}

/// Prints where `actual` (the `which` call of `label`) first differs from
/// the reference rows; returns true when they are equal.
bool SameRows(const std::string& label, const char* which,
              const std::vector<std::string>& actual,
              const std::vector<std::string>& expected) {
  if (actual == expected) return true;
  size_t r = 0;
  while (r < actual.size() && r < expected.size() && actual[r] == expected[r]) {
    ++r;
  }
  std::fprintf(stderr,
               "%s: %s call differs from the reference at row %zu of %zu "
               "(reference %zu rows)\n  got:      %s\n  expected: %s\n",
               label.c_str(), which, r, actual.size(), expected.size(),
               r < actual.size() ? actual[r].c_str() : "(none)",
               r < expected.size() ? expected[r].c_str() : "(none)");
  return false;
}

}  // namespace
}  // namespace relgo

int main(int argc, char** argv) {
  using namespace relgo;
  int reps = 30;
  std::string filter;
  bool explain = false;
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--reps" && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    } else if (a == "--query" && i + 1 < argc) {
      filter = argv[++i];
    } else if (a == "--explain") {
      explain = true;
    } else if (a == "--check") {
      check = true;
    } else {
      reps = 0;  // unknown flag: print the usage line
      break;
    }
  }
  if (reps < 1) {
    std::fprintf(stderr,
                 "usage: %s [--reps <n >= 1>] [--query <substring>] "
                 "[--explain] [--check]\n",
                 argv[0]);
    return 2;
  }

  Database* db = bench::MakeLdbc(kScale);
  exec::ExecutionOptions options;
  options.num_threads = 1;
  const optimizer::OptimizerMode mode = optimizer::OptimizerMode::kRelGo;
  exec::ExecutionOptions reference;
  reference.engine = exec::EngineKind::kMaterialize;
  reference.plan_cache = false;
  reference.scan_cache = false;
  size_t checked = 0;
  // Plan-cache outcomes of the checked calls (warm-up and last timed).
  uint64_t checked_calls = 0;
  uint64_t checked_misses = 0;
  uint64_t checked_hits = 0;
  auto serve = [&](const plan::SpjmQuery& query, bool checked) {
    if (!checked) return db->Run(query, mode, options);
    optimizer::PlanCache::Stats before = db->plan_cache().stats();
    auto run = db->Run(query, mode, options);
    optimizer::PlanCache::Stats after = db->plan_cache().stats();
    ++checked_calls;
    checked_misses += after.misses - before.misses;
    checked_hits += after.hits - before.hits;
    return run;
  };

  std::vector<std::pair<std::string, double>> per_template;  // pool order
  double total_ms = 0.0;
  std::printf("%-16s %8s %12s\n", "request", "rows", "fastest_ms");
  for (const Request& r : Pool(*db)) {
    if (r.label.find(filter) == std::string::npos) continue;
    // Misses the plan cache for the first binding of a template served,
    // hits for the others.
    auto warm = serve(r.query, check);
    if (!warm.ok()) {
      std::printf("%-16s %s\n", r.label.c_str(),
                  warm.status().ToString().c_str());
      continue;
    }
    double fastest = 0.0;
    storage::TablePtr last;
    for (int rep = 0; rep < reps; ++rep) {
      Timer timer;
      auto run = serve(r.query, check && rep == reps - 1);
      double ms = timer.ElapsedMillis();
      if (!run.ok()) {
        std::fprintf(stderr, "%s: %s\n", r.label.c_str(),
                     run.status().ToString().c_str());
        return 1;
      }
      if (rep == 0 || ms < fastest) fastest = ms;
      last = std::move(run->table);
    }
    if (check) {
      auto expected = db->Run(r.query, mode, reference);
      if (!expected.ok()) {
        std::fprintf(stderr, "%s: reference: %s\n", r.label.c_str(),
                     expected.status().ToString().c_str());
        return 1;
      }
      std::vector<std::string> want = Rows(*expected->table);
      if (!SameRows(r.label, "warm-up", Rows(*warm->table), want) ||
          !SameRows(r.label, "last timed", Rows(*last), want)) {
        return 1;
      }
      ++checked;
    }
    std::printf("%-16s %8llu %12.4f\n", r.label.c_str(),
                static_cast<unsigned long long>(warm->table->num_rows()),
                fastest);
    if (per_template.empty() || per_template.back().first != r.template_name) {
      per_template.emplace_back(r.template_name, 0.0);
    }
    per_template.back().second += fastest;
    total_ms += fastest;
    if (explain) {
      auto text = db->ExplainAnalyze(r.query, mode, options);
      std::printf("%s\n", text.ok() ? text->c_str()
                                    : text.status().ToString().c_str());
    }
  }
  std::printf("\n%-16s %12s\n", "template", "sum_ms");
  for (const auto& [name, ms] : per_template) {
    std::printf("%-16s %12.4f\n", name.c_str(), ms);
  }
  std::printf("%-16s %12.4f\n", "total", total_ms);
  if (check) {
    std::printf("checked %zu requests against the reference: all equal\n",
                checked);
    std::printf("plan cache over the %llu checked calls: %llu misses, %llu "
                "hits\n",
                static_cast<unsigned long long>(checked_calls),
                static_cast<unsigned long long>(checked_misses),
                static_cast<unsigned long long>(checked_hits));
  }
  delete db;
  return 0;
}
