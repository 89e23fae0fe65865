#include "workload/harness.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <numeric>
#include <set>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "obs/metrics.h"

namespace relgo {
namespace workload {

std::string RunMeasurement::StatusOrMs(bool end_to_end) const {
  if (out_of_memory) return "OOM";
  if (timed_out) return "OT";
  if (failed) return "ERR";
  double ms = end_to_end ? TotalMs() : execution_ms;
  return StrFormat("%.2f", ms);
}

namespace {

/// Classifies a failed run into the OT/OOM/ERR reporting buckets.
void SetFailure(const Status& status, RunMeasurement* m) {
  m->out_of_memory = status.code() == StatusCode::kOutOfMemory;
  m->timed_out = status.code() == StatusCode::kTimeout;
  m->failed = !m->out_of_memory && !m->timed_out;
  m->error = status.ToString();
}

/// Mean, median, min and max of `samples` (non-empty); an even count's
/// median averages the two middle samples.
void Spread(std::vector<double> samples, double* mean, double* median,
            double* min, double* max) {
  std::sort(samples.begin(), samples.end());
  size_t n = samples.size();
  *mean = std::accumulate(samples.begin(), samples.end(), 0.0) /
           static_cast<double>(n);
  *median = n % 2 == 1 ? samples[n / 2]
                       : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
  *min = samples.front();
  *max = samples.back();
}

}  // namespace

RunMeasurement Harness::Run(const WorkloadQuery& wq,
                            optimizer::OptimizerMode mode) const {
  RunMeasurement m;
  m.query = wq.query.name;
  m.mode = optimizer::ModeName(mode);

  // Profiled warm-up: besides warming caches it compares every estimate
  // against its actual, charging the Q-error fields. Profiling cost stays
  // out of the timed repetitions below.
  {
    auto warm = db_->RunProfiled(wq.query, mode, exec_options_);
    if (!warm.ok()) {
      SetFailure(warm.status(), &m);
      return m;
    }
    exec::QErrorSummary q = exec::SummarizeQError(*warm->plan, warm->profile);
    m.qerror_geomean = q.geomean;
    m.qerror_max = q.max_q;
    m.qerror_ops = q.ops;
    m.build_ms = warm->profile.build_ms();
    m.sort_ms = warm->profile.sort_ms();
    m.scan_cache_hits = warm->profile.scan_cache_hits();
  }
  std::vector<double> opt_ms, exec_ms;
  // A failure on any run is terminal.
  for (int rep = 0; rep < repetitions_; ++rep) {
    auto result = db_->Run(wq.query, mode, exec_options_);
    if (!result.ok()) {
      SetFailure(result.status(), &m);
      return m;
    }
    opt_ms.push_back(result->optimization_ms);
    exec_ms.push_back(result->execution_ms);
    m.result_rows = result->table->num_rows();
  }
  Spread(std::move(opt_ms), &m.optimization_ms, &m.optimization_ms_median,
         &m.optimization_ms_min, &m.optimization_ms_max);
  Spread(std::move(exec_ms), &m.execution_ms, &m.execution_ms_median,
         &m.execution_ms_min, &m.execution_ms_max);
  return m;
}

ConcurrentMeasurement Harness::RunConcurrent(
    const std::vector<WorkloadQuery>& mix, optimizer::OptimizerMode mode,
    int clients, int queries_per_client, const ChaosOptions& chaos) const {
  ConcurrentMeasurement m;
  m.mode = optimizer::ModeName(mode);
  m.clients = std::max(clients, 1);
  m.queries_per_client = std::max(queries_per_client, 0);
  if (mix.empty() || m.queries_per_client == 0) return m;

  exec::ScanCache::Stats before = db_->scan_cache().stats();
  optimizer::PlanCache::Stats pc_before = db_->plan_cache().stats();
  std::atomic<uint64_t> ok{0}, failed{0};
  std::atomic<uint64_t> cancelled{0}, rejected{0}, timed_out{0};
  // Per-client latency samples (no sharing during the storm — each client
  // appends to its own vector); merged and sorted once after the join.
  std::vector<std::vector<double>> client_latencies(
      static_cast<size_t>(m.clients));
  Timer timer;
  std::vector<std::thread> threads;
  threads.reserve(m.clients);
  for (int c = 0; c < m.clients; ++c) {
    threads.emplace_back([&, c] {
      // Per-client stream: which iterations get a mid-flight cancel is a
      // pure function of (seed, client), so storms replay exactly.
      Rng rng(chaos.seed + static_cast<uint64_t>(c) * 0x9E3779B97F4A7C15ull);
      std::vector<double>& latencies = client_latencies[c];
      latencies.reserve(m.queries_per_client);
      for (int i = 0; i < m.queries_per_client; ++i) {
        const WorkloadQuery& wq = mix[(c + i) % mix.size()];
        bool chaos_cancel = chaos.cancel_fraction > 0.0 &&
                            rng.Chance(chaos.cancel_fraction);
        exec::ExecutionOptions options = exec_options_;
        std::atomic<uint64_t> query_id{0};
        std::atomic<bool> query_done{false};
        std::thread canceller;
        if (chaos_cancel) {
          options.query_id_out = &query_id;
          // The controller: waits for the database to export the query id
          // (which happens right before execution starts), then cancels.
          // `query_done` unblocks it when the query never reaches
          // execution (optimizer error, admission rejection).
          canceller = std::thread([&] {
            uint64_t id = 0;
            while ((id = query_id.load(std::memory_order_acquire)) == 0) {
              if (query_done.load(std::memory_order_acquire)) return;
              std::this_thread::yield();
            }
            db_->CancelQuery(id);
          });
        }
        Timer query_timer;
        auto result = db_->Run(wq.query, mode, options);
        if (chaos_cancel) {
          query_done.store(true, std::memory_order_release);
          canceller.join();
        }
        if (result.ok()) {
          latencies.push_back(query_timer.ElapsedMillis());
          ok.fetch_add(1, std::memory_order_relaxed);
        } else {
          failed.fetch_add(1, std::memory_order_relaxed);
          switch (result.status().code()) {
            case StatusCode::kCancelled:
              cancelled.fetch_add(1, std::memory_order_relaxed);
              break;
            case StatusCode::kResourceExhausted:
              rejected.fetch_add(1, std::memory_order_relaxed);
              break;
            case StatusCode::kTimeout:
              timed_out.fetch_add(1, std::memory_order_relaxed);
              break;
            default:
              break;
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  m.wall_ms = timer.ElapsedMillis();
  m.queries_ok = ok.load();
  m.queries_failed = failed.load();
  m.queries_cancelled = cancelled.load();
  m.queries_rejected = rejected.load();
  m.queries_timeout = timed_out.load();
  if (m.wall_ms > 0.0) m.qps = m.queries_ok * 1000.0 / m.wall_ms;

  std::vector<double> latencies;
  for (const auto& per_client : client_latencies) {
    latencies.insert(latencies.end(), per_client.begin(), per_client.end());
  }
  std::sort(latencies.begin(), latencies.end());
  m.latency_p50_ms = obs::PercentileOfSorted(latencies, 0.50);
  m.latency_p95_ms = obs::PercentileOfSorted(latencies, 0.95);
  m.latency_p99_ms = obs::PercentileOfSorted(latencies, 0.99);

  exec::ScanCache::Stats after = db_->scan_cache().stats();
  m.scan_cache_hits = after.hits - before.hits;
  m.scan_cache_misses = after.misses - before.misses;
  uint64_t lookups = m.scan_cache_hits + m.scan_cache_misses;
  if (lookups > 0) {
    m.cache_hit_rate = static_cast<double>(m.scan_cache_hits) / lookups;
  }
  optimizer::PlanCache::Stats pc_after = db_->plan_cache().stats();
  m.plan_cache_hits = pc_after.hits - pc_before.hits;
  m.plan_cache_misses = pc_after.misses - pc_before.misses;
  uint64_t pc_lookups = m.plan_cache_hits + m.plan_cache_misses;
  if (pc_lookups > 0) {
    m.plan_cache_hit_rate =
        static_cast<double>(m.plan_cache_hits) / pc_lookups;
  }
  return m;
}

HotTemplateMeasurement Harness::RunHotTemplates(
    const std::vector<WorkloadQuery>& templates, optimizer::OptimizerMode mode,
    int iterations) const {
  HotTemplateMeasurement m;
  m.mode = optimizer::ModeName(mode);
  m.templates = static_cast<int>(templates.size());
  m.iterations = std::max(iterations, 1);
  if (templates.empty()) return m;

  db_->ClearPlanCache();
  Timer timer;
  // Cold pass: every template plans from scratch (the cache was just
  // cleared), charging cold_optimization_ms.
  double cold_opt = 0.0;
  int cold_runs = 0;
  for (const auto& wq : templates) {
    auto result = db_->Run(wq.query, mode, exec_options_);
    if (!result.ok()) {
      m.queries_failed++;
      continue;
    }
    m.queries_ok++;
    cold_opt += result->optimization_ms;
    ++cold_runs;
  }
  // Warm rounds: steady-state traffic over the now-hot template set. The
  // hit counters are deltas over the warm phase only, so
  // plan_cache_hit_rate reads 100% when every warm run reuses its
  // template's plan (the cold pass necessarily misses).
  optimizer::PlanCache::Stats before = db_->plan_cache().stats();
  double warm_opt = 0.0, warm_exec = 0.0;
  int warm_runs = 0;
  for (int round = 0; round < m.iterations; ++round) {
    for (const auto& wq : templates) {
      auto result = db_->Run(wq.query, mode, exec_options_);
      if (!result.ok()) {
        m.queries_failed++;
        continue;
      }
      m.queries_ok++;
      warm_opt += result->optimization_ms;
      warm_exec += result->execution_ms;
      ++warm_runs;
    }
  }
  m.wall_ms = timer.ElapsedMillis();
  if (cold_runs > 0) m.cold_optimization_ms = cold_opt / cold_runs;
  if (warm_runs > 0) {
    m.warm_optimization_ms = warm_opt / warm_runs;
    m.warm_execution_ms = warm_exec / warm_runs;
  }
  if (m.wall_ms > 0.0) m.qps = m.queries_ok * 1000.0 / m.wall_ms;

  optimizer::PlanCache::Stats after = db_->plan_cache().stats();
  m.plan_cache_hits = after.hits - before.hits;
  m.plan_cache_misses = after.misses - before.misses;
  uint64_t lookups = m.plan_cache_hits + m.plan_cache_misses;
  if (lookups > 0) {
    m.plan_cache_hit_rate =
        static_cast<double>(m.plan_cache_hits) / lookups;
  }
  return m;
}

std::vector<RunMeasurement> Harness::RunGrid(
    const std::vector<WorkloadQuery>& queries,
    const std::vector<optimizer::OptimizerMode>& modes) const {
  std::vector<RunMeasurement> out;
  for (const auto& wq : queries) {
    for (auto mode : modes) {
      out.push_back(Run(wq, mode));
    }
  }
  return out;
}

namespace {

std::vector<std::string> OrderedQueries(
    const std::vector<RunMeasurement>& runs) {
  std::vector<std::string> queries;
  for (const auto& r : runs) {
    if (std::find(queries.begin(), queries.end(), r.query) == queries.end()) {
      queries.push_back(r.query);
    }
  }
  return queries;
}

std::vector<std::string> OrderedModes(
    const std::vector<RunMeasurement>& runs) {
  std::vector<std::string> modes;
  for (const auto& r : runs) {
    if (std::find(modes.begin(), modes.end(), r.mode) == modes.end()) {
      modes.push_back(r.mode);
    }
  }
  return modes;
}

const RunMeasurement* Find(const std::vector<RunMeasurement>& runs,
                           const std::string& query,
                           const std::string& mode) {
  for (const auto& r : runs) {
    if (r.query == query && r.mode == mode) return &r;
  }
  return nullptr;
}

}  // namespace

std::string Harness::FormatTable(const std::vector<RunMeasurement>& runs,
                                 bool end_to_end) {
  auto queries = OrderedQueries(runs);
  auto modes = OrderedModes(runs);
  std::ostringstream os;
  os << StrFormat("%-10s", "query");
  for (const auto& m : modes) os << StrFormat("%14s", m.c_str());
  os << "\n";
  for (const auto& q : queries) {
    os << StrFormat("%-10s", q.c_str());
    for (const auto& m : modes) {
      const RunMeasurement* r = Find(runs, q, m);
      os << StrFormat("%14s",
                      r ? r->StatusOrMs(end_to_end).c_str() : "-");
    }
    os << "\n";
  }
  return os.str();
}

std::string Harness::FormatSpeedups(const std::vector<RunMeasurement>& runs,
                                    const std::string& baseline_mode) {
  auto queries = OrderedQueries(runs);
  auto modes = OrderedModes(runs);
  std::ostringstream os;
  os << StrFormat("%-10s", "query");
  for (const auto& m : modes) {
    if (m != baseline_mode) os << StrFormat("%14s", m.c_str());
  }
  os << "\n";
  for (const auto& q : queries) {
    const RunMeasurement* base = Find(runs, q, baseline_mode);
    os << StrFormat("%-10s", q.c_str());
    for (const auto& m : modes) {
      if (m == baseline_mode) continue;
      const RunMeasurement* r = Find(runs, q, m);
      if (base == nullptr || r == nullptr || base->failed || r->failed ||
          r->timed_out || r->out_of_memory) {
        os << StrFormat("%14s", r && r->out_of_memory ? "OOM"
                                : r && r->timed_out   ? "OT"
                                                      : "-");
      } else if (base->timed_out || base->out_of_memory) {
        os << StrFormat("%14s", ">inf");
      } else {
        os << StrFormat("%13.2fx", base->execution_ms /
                                       std::max(r->execution_ms, 1e-3));
      }
    }
    os << "\n";
  }
  return os.str();
}

std::string Harness::FormatQErrors(const std::vector<RunMeasurement>& runs) {
  auto queries = OrderedQueries(runs);
  auto modes = OrderedModes(runs);
  std::ostringstream os;
  os << StrFormat("%-10s", "q-error");
  for (const auto& m : modes) os << StrFormat("%14s", m.c_str());
  os << "\n";
  for (const auto& q : queries) {
    os << StrFormat("%-10s", q.c_str());
    for (const auto& m : modes) {
      const RunMeasurement* r = Find(runs, q, m);
      if (r == nullptr || r->qerror_ops == 0) {
        os << StrFormat("%14s", "-");
      } else {
        os << StrFormat("%14s",
                        StrFormat("%.2f", r->qerror_geomean).c_str());
      }
    }
    os << "\n";
  }
  return os.str();
}

double Harness::AverageSpeedup(const std::vector<RunMeasurement>& runs,
                               const std::string& baseline_mode,
                               const std::string& mode) {
  double log_sum = 0.0;
  int n = 0;
  for (const auto& q : OrderedQueries(runs)) {
    const RunMeasurement* base = Find(runs, q, baseline_mode);
    const RunMeasurement* r = Find(runs, q, mode);
    if (base == nullptr || r == nullptr) continue;
    if (base->failed || base->timed_out || base->out_of_memory) continue;
    if (r->failed || r->timed_out || r->out_of_memory) continue;
    log_sum += std::log(std::max(base->execution_ms, 1e-3) /
                        std::max(r->execution_ms, 1e-3));
    ++n;
  }
  return n == 0 ? 1.0 : std::exp(log_sum / n);
}

}  // namespace workload
}  // namespace relgo
