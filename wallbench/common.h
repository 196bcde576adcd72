// Shared pieces of the wall-clock benchmark: arguments, the span
// log the traced runs record into, the metric report, small statistics
// helpers and the correctness oracle's bookkeeping.
//
// Two clocks are reported side by side. Host wall time comes from
// std::chrono::steady_clock and is noisy, so it is summarised by medians and
// by ratios taken inside one run. Modeled device time comes from the
// engine's sim::Timeline and is deterministic for a seed.

#pragma once

#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/sirius.h"
#include "format/table.h"
#include "host/database.h"
#include "plan/plan.h"
#include "sim/timeline.h"

namespace wallbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where the traced run writes its spans (JSON lines); empty = nowhere.
  std::string spans_out;
};

/// Seconds on the monotonic host clock.
double NowS();

/// \brief In-memory span log for the traced run.
///
/// Every span has a name, start and end on the steady clock, the span that
/// caused it and the request (query) it belongs to. Spans are appended to a
/// preallocated vector and written out only at exit, so recording costs one
/// clock read per boundary.
class SpanLog {
 public:
  struct Span {
    const char* name = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;
    uint64_t request = 0;
  };

  SpanLog() { spans_.reserve(1 << 16); }

  /// Opens a span and returns its id (its index in the log).
  int Open(const char* name, int parent, uint64_t request);
  /// Closes span `id`; returns its duration in milliseconds.
  double Close(int id);

  /// Sum of durations (ms) and count of spans named `name`.
  double TotalMs(const std::string& name) const;
  size_t Count(const std::string& name) const;

  /// Writes one JSON object per span to `path`.
  sirius::Status Write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// RAII span: opens on construction, closes on destruction or Close().
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int parent, uint64_t request)
      : log_(log), id_(log != nullptr ? log->Open(name, parent, request) : -1) {}
  ~ScopedSpan() { Close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }
  double Close() {
    if (log_ == nullptr || id_ < 0) return 0;
    const double ms = log_->Close(id_);
    id_ = -1;
    return ms;
  }

 private:
  SpanLog* log_;
  int id_;
};

/// \brief One run's result: metrics by name, the answer counts, and the
/// correctness verdict printed as the last line of standard output.
struct Report {
  struct Metric {
    double value = 0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// The final JSON line, restricted to `names` (in that order).
  std::string Json(const std::vector<std::string>& names) const;
};

/// Names of the end-to-end metrics (printed with --trace 0) and of the
/// per-layer metrics (printed with --trace 1). Every workload reports all of
/// them; a layer a workload does not pass through reports 0.
const std::vector<std::string>& EndToEndNames();
const std::vector<std::string>& PerLayerNames();
/// Sets every per-layer metric to 0 with its unit, so workloads only fill in
/// what they measure.
void ZeroPerLayer(Report* report);

/// \name Statistics.
/// @{
/// Linear-interpolation quantile of `values` (q in [0, 1]); 0 when empty.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Geomean(const std::vector<double>& values);
/// `total / count`, or 0 when `count` is 0.
double Per(double total, double count);
/// @}

/// Peak resident set size of this process, MiB.
double PeakRssMb();

/// Seeded permutation of 0..n-1. Draws come straight from mt19937_64 (no
/// distribution adapters), so a seed gives the same order everywhere.
std::vector<int> Permutation(int n, std::mt19937_64* rng);

/// \brief Engine refusals grouped by the status code ExecutePlan returned,
/// with the first message seen for each code.
class FallbackLog {
 public:
  void Add(const sirius::Status& status);
  uint64_t Count(sirius::StatusCode code) const;
  uint64_t Total() const;
  /// Prints one line per code: count and first message.
  void Print(const std::string& workload) const;

 private:
  struct Entry {
    uint64_t count = 0;
    std::string first_message;
  };
  std::map<sirius::StatusCode, Entry> by_code_;
};

/// \brief The answer counts the oracle keeps for one path.
struct Tally {
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t wrong = 0;   ///< answered, but not cell-for-cell equal
  uint64_t errors = 0;  ///< no answer (error, shed, timeout)
  uint64_t accelerated = 0;
  uint64_t fell_back = 0;

  uint64_t failed() const { return wrong + errors; }
  double ok_share() const {
    return attempted == 0 ? 0 : static_cast<double>(ok) / attempted;
  }
  bool operator==(const Tally& o) const {
    return attempted == o.attempted && ok == o.ok && wrong == o.wrong &&
           errors == o.errors && accelerated == o.accelerated &&
           fell_back == o.fell_back;
  }
  void Add(const Tally& o) {
    attempted += o.attempted;
    ok += o.ok;
    wrong += o.wrong;
    errors += o.errors;
    accelerated += o.accelerated;
    fell_back += o.fell_back;
  }
};

/// Modeled milliseconds per operator category of `timeline`, keyed
/// "sim.modeled_ms.<category>".
std::map<std::string, double> ModeledByCategory(const sirius::sim::Timeline& t);

/// FNV-1a over the rendered cells of the first `max_rows` rows of `table`,
/// for telling generated versions apart.
uint64_t TableFingerprint(const sirius::format::Table& table, size_t max_rows);

/// \name DuckX's frontend and CPU path, taken apart for the traced runs.
/// Each call gets a span in `spans` (under `parent`, for `request`) when
/// `spans` is not null.
/// @{
/// Database::PlanSql: sql::SqlToPlan ("sql"), then opt::Optimize with the
/// profile's reorder_joins ("opt").
sirius::Result<sirius::plan::PlanPtr> PlanStepwise(sirius::host::Database& db,
                                                   const std::string& sql,
                                                   SpanLog* spans, int parent,
                                                   uint64_t request);
/// Database::Query with no accelerator: PlanStepwise, then
/// Database::ExecutePlanCpu ("host.cpu_exec").
sirius::Result<sirius::host::QueryResult> QueryCpuStepwise(
    sirius::host::Database& db, const std::string& sql, SpanLog* spans,
    int parent, uint64_t request);
/// @}

/// \name Buffer-manager probes and per-layer metrics.
/// @{
/// Table name and scanned columns of a TableScan.
using Scan = std::pair<std::string, std::vector<int>>;
/// Every TableScan of `plan`.
std::vector<Scan> CollectScans(const sirius::plan::PlanPtr& plan);
/// Requests `scans` through the engine's BufferManager::GetOrCacheColumns,
/// as the engine's own scans do, charging no query's timeline. With
/// `resident_only`, a scan with any column not cached is skipped, so the
/// probe never loads anything.
void RequestScans(sirius::engine::SiriusEngine* engine,
                  sirius::host::Database& db,
                  const std::vector<Scan>& scans, bool resident_only);
/// Evicts every cached column, then loads `scans` from the host tables
/// under a "buffer.cold_load" span; sets buffer.cold_load_ms.
void ColdLoad(sirius::engine::SiriusEngine* engine, sirius::host::Database& db,
              const std::vector<Scan>& scans, SpanLog* spans, Report* report);
/// Sets the per-call mean of every span-timed per-layer metric
/// (sql.parse_bind_ms, opt.optimize_ms, plan.*_ms, engine.execute_ms,
/// buffer.hot_scan_ms, host.cpu_exec_ms, serve.submit_ms, serve.step_ms);
/// one with no spans reads 0.
void SetSpanMetrics(const SpanLog& spans, Report* report);
/// Sets the engine counters accumulated since the last ResetStats()
/// (engine.fused_stages per query of `queries`, engine.oom_evict_retries,
/// engine.evicted_columns), buffer.evictions (since `evictions_before`),
/// buffer.cached_modeled_gb and the mem.pool_* metrics.
void SetEngineMetrics(sirius::engine::SiriusEngine* engine, double queries,
                      uint64_t evictions_before, Report* report);
/// @}

/// Workload entry points; each fills `report` and returns a process exit
/// code (0 on success).
int RunBatch(const Args& args, double loaded_sf, Report* report);
int RunServeWrites(const Args& args, Report* report);

}  // namespace wallbench
