#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <utility>

#include "mem/memory_resource.h"
#include "opt/optimizer.h"
#include "sql/binder.h"

namespace wallbench {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Metric name -> unit, in report order. Units name the clock: "ms"/"s" are
/// host wall time, "sim_ms" is modeled device (or simulated serving) time.
const std::vector<std::pair<std::string, std::string>>& EndToEndTable() {
  static const std::vector<std::pair<std::string, std::string>> kTable = {
      {"setup_s", "s"},
      {"qps", "1/s"},
      {"query_ms_p50", "ms"},
      {"query_ms_p90", "ms"},
      {"cpu_qps", "1/s"},
      {"gpu_cpu_wall_ratio", "ratio"},
      {"ok_share", "share"},
      {"accelerated_share", "share"},
      {"peak_rss_mb", "MB"},
      {"modeled_gpu_ms_geomean", "sim_ms"},
      {"modeled_speedup_geomean", "x"},
      {"sim_latency_ms_p50", "sim_ms"},
      {"sim_latency_ms_p95", "sim_ms"},
  };
  return kTable;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerTable() {
  static const std::vector<std::pair<std::string, std::string>> kTable = [] {
    std::vector<std::pair<std::string, std::string>> t = {
        {"dbgen.generate_s", "s"},
        {"sql.parse_bind_ms", "ms"},
        {"opt.optimize_ms", "ms"},
        {"plan.serialize_ms", "ms"},
        {"plan.deserialize_ms", "ms"},
        {"plan.wire_bytes", "bytes"},
        {"engine.execute_ms", "ms"},
        {"engine.host_ms_per_modeled_ms", "ratio"},
        {"engine.fused_stages", "count"},
        {"engine.kernel_launches", "count"},
        {"engine.hbm_gb_modeled", "GB"},
        {"engine.fallback_oom", "count"},
        {"engine.fallback_other", "count"},
        {"engine.oom_evict_retries", "count"},
        {"engine.evicted_columns", "count"},
        {"buffer.hot_scan_ms", "ms"},
        {"buffer.hot_scan_share", "share"},
        {"buffer.cold_load_ms", "ms"},
        {"buffer.evictions", "count"},
        {"buffer.cached_modeled_gb", "GB"},
        {"mem.pool_high_water_mb", "MB"},
        {"mem.pool_capacity_mb", "MB"},
        {"host.cpu_exec_ms", "ms"},
    };
    for (int c = 0; c <= static_cast<int>(sirius::sim::OpCategory::kOther);
         ++c) {
      t.emplace_back(std::string("sim.modeled_ms.") +
                         sirius::sim::OpCategoryName(
                             static_cast<sirius::sim::OpCategory>(c)),
                     "sim_ms");
    }
    const std::vector<std::pair<std::string, std::string>> tail = {
        {"serve.submit_ms", "ms"},
        {"serve.step_ms", "ms"},
        {"serve.result_cache_hit_share", "share"},
        {"serve.queue_wait_ms_p95", "sim_ms"},
        {"serve.shed", "count"},
        {"serve.wrong_answers", "count"},
        {"trace.queries", "count"},
        {"trace.overhead_share", "share"},
    };
    t.insert(t.end(), tail.begin(), tail.end());
    return t;
  }();
  return kTable;
}

std::vector<std::string> Names(
    const std::vector<std::pair<std::string, std::string>>& table) {
  std::vector<std::string> names;
  for (const auto& [name, unit] : table) names.push_back(name);
  return names;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

double NowS() { return static_cast<double>(NowNs()) * 1e-9; }

int SpanLog::Open(const char* name, int parent, uint64_t request) {
  spans_.push_back(Span{name, NowNs(), 0, parent, request});
  return static_cast<int>(spans_.size() - 1);
}

double SpanLog::Close(int id) {
  Span& s = spans_[static_cast<size_t>(id)];
  s.end_ns = NowNs();
  return static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
}

double SpanLog::TotalMs(const std::string& name) const {
  int64_t ns = 0;
  for (const Span& s : spans_) {
    if (name == s.name) ns += s.end_ns - s.start_ns;
  }
  return static_cast<double>(ns) * 1e-6;
}

size_t SpanLog::Count(const std::string& name) const {
  size_t n = 0;
  for (const Span& s : spans_) n += name == s.name ? 1 : 0;
  return n;
}

sirius::Status SpanLog::Write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return sirius::Status::IOError("cannot write spans to " + path);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request
        << "}\n";
  }
  return out ? sirius::Status::OK()
             : sirius::Status::IOError("short write to " + path);
}

std::string Report::Json(const std::vector<std::string>& names) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const std::string& name : names) {
    auto it = metrics.find(name);
    const double v =
        it != metrics.end() && std::isfinite(it->second.value) ? it->second.value : 0;
    const std::string unit = it != metrics.end() ? it->second.unit : "";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    if (!first) out += ", ";
    first = false;
    out += "\"" + JsonEscape(name) + "\": {\"value\": " + buf +
           ", \"unit\": \"" + JsonEscape(unit) + "\"}";
  }
  out += "}}";
  return out;
}

const std::vector<std::string>& EndToEndNames() {
  static const std::vector<std::string> kNames = Names(EndToEndTable());
  return kNames;
}

const std::vector<std::string>& PerLayerNames() {
  static const std::vector<std::string> kNames = Names(PerLayerTable());
  return kNames;
}

void ZeroPerLayer(Report* report) {
  for (const auto& [name, unit] : PerLayerTable()) report->Set(name, 0, unit);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double Geomean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double s = 0;
  for (double v : values) s += std::log(v);
  return std::exp(s / static_cast<double>(values.size()));
}

double Per(double total, double count) { return count > 0 ? total / count : 0; }

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::vector<int> Permutation(int n, std::mt19937_64* rng) {
  std::vector<int> p(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) p[static_cast<size_t>(i)] = i;
  for (int i = n - 1; i > 0; --i) {
    const auto j = static_cast<size_t>((*rng)() % static_cast<uint64_t>(i + 1));
    std::swap(p[static_cast<size_t>(i)], p[j]);
  }
  return p;
}

void FallbackLog::Add(const sirius::Status& status) {
  Entry& e = by_code_[status.code()];
  if (e.count++ == 0) e.first_message = status.ToString();
}

uint64_t FallbackLog::Count(sirius::StatusCode code) const {
  auto it = by_code_.find(code);
  return it == by_code_.end() ? 0 : it->second.count;
}

uint64_t FallbackLog::Total() const {
  uint64_t n = 0;
  for (const auto& [code, e] : by_code_) n += e.count;
  return n;
}

void FallbackLog::Print(const std::string& workload) const {
  if (by_code_.empty()) {
    std::printf("[%s] engine refusals: none\n", workload.c_str());
  }
  for (const auto& [code, e] : by_code_) {
    std::printf("[%s] engine refusal %s x%llu, first: %s\n", workload.c_str(),
                sirius::StatusCodeToString(code),
                static_cast<unsigned long long>(e.count),
                e.first_message.c_str());
  }
}

std::map<std::string, double> ModeledByCategory(const sirius::sim::Timeline& t) {
  std::map<std::string, double> out;
  for (const auto& [cat, seconds] : t.breakdown()) {
    out[std::string("sim.modeled_ms.") + sirius::sim::OpCategoryName(cat)] +=
        seconds * 1e3;
  }
  return out;
}

uint64_t TableFingerprint(const sirius::format::Table& table, size_t max_rows) {
  uint64_t h = 1469598103934665603ull;
  for (size_t r = 0; r < std::min(max_rows, table.num_rows()); ++r) {
    for (size_t c = 0; c < table.num_columns(); ++c) {
      for (char ch : table.column(c)->GetScalar(r).ToString()) {
        h = (h ^ static_cast<uint8_t>(ch)) * 1099511628211ull;
      }
      h = (h ^ 0x1f) * 1099511628211ull;
    }
  }
  return h;
}

sirius::Result<sirius::plan::PlanPtr> PlanStepwise(sirius::host::Database& db,
                                                   const std::string& sql,
                                                   SpanLog* spans, int parent,
                                                   uint64_t request) {
  sirius::Result<sirius::plan::PlanPtr> plan =
      sirius::Status::Internal("not parsed");
  {
    ScopedSpan sp(spans, "sql", parent, request);
    plan = sirius::sql::SqlToPlan(sql, db.catalog());
  }
  if (!plan.ok()) return plan;
  sirius::opt::OptimizerOptions opt_options;
  opt_options.reorder_joins = db.options().engine.reorder_joins;
  ScopedSpan sp(spans, "opt", parent, request);
  return sirius::opt::Optimize(plan.ValueOrDie(), db.catalog(), opt_options);
}

sirius::Result<sirius::host::QueryResult> QueryCpuStepwise(
    sirius::host::Database& db, const std::string& sql, SpanLog* spans,
    int parent, uint64_t request) {
  SIRIUS_ASSIGN_OR_RETURN(sirius::plan::PlanPtr plan,
                          PlanStepwise(db, sql, spans, parent, request));
  ScopedSpan sp(spans, "host.cpu_exec", parent, request);
  return db.ExecutePlanCpu(plan);
}

std::vector<Scan> CollectScans(const sirius::plan::PlanPtr& plan) {
  std::vector<Scan> scans;
  std::vector<sirius::plan::PlanPtr> stack = {plan};
  while (!stack.empty()) {
    sirius::plan::PlanPtr p = stack.back();
    stack.pop_back();
    if (p->kind == sirius::plan::PlanKind::kTableScan) {
      scans.emplace_back(p->table_name, p->scan_columns);
    }
    for (const auto& child : p->children) stack.push_back(child);
  }
  return scans;
}

void RequestScans(sirius::engine::SiriusEngine* engine,
                  sirius::host::Database& db,
                  const std::vector<Scan>& scans, bool resident_only) {
  sirius::sim::SimContext sim;  // no timeline: nothing is charged
  sim.device = engine->options().device;
  sim.engine = engine->options().profile;
  sim.data_scale = engine->options().data_scale;
  sirius::engine::BufferManager& bm = engine->buffer_manager();
  for (const auto& [table, cols] : scans) {
    bool resident = true;
    for (int c : cols) resident = resident && bm.IsCached(table, c);
    auto host_table = db.catalog().GetTable(table);
    if ((resident_only && !resident) || !host_table.ok()) continue;
    (void)bm.GetOrCacheColumns(table, host_table.ValueOrDie(), cols, sim);
  }
}

void ColdLoad(sirius::engine::SiriusEngine* engine, sirius::host::Database& db,
              const std::vector<Scan>& scans, SpanLog* spans, Report* report) {
  engine->buffer_manager().EvictAll();
  ScopedSpan sp(spans, "buffer.cold_load", -1, 0);
  RequestScans(engine, db, scans, /*resident_only=*/false);
  report->Set("buffer.cold_load_ms", sp.Close(), "ms");
}

void SetSpanMetrics(const SpanLog& spans, Report* report) {
  static const std::vector<std::pair<const char*, const char*>> kSpans = {
      {"sql", "sql.parse_bind_ms"},
      {"opt", "opt.optimize_ms"},
      {"plan.serialize", "plan.serialize_ms"},
      {"plan.deserialize", "plan.deserialize_ms"},
      {"engine.execute", "engine.execute_ms"},
      {"buffer.hot_scan", "buffer.hot_scan_ms"},
      {"host.cpu_exec", "host.cpu_exec_ms"},
      {"serve.submit", "serve.submit_ms"},
      {"serve.step", "serve.step_ms"},
  };
  for (const auto& [span, metric] : kSpans) {
    report->Set(metric,
                Per(spans.TotalMs(span), static_cast<double>(spans.Count(span))),
                "ms");
  }
}

void SetEngineMetrics(sirius::engine::SiriusEngine* engine, double queries,
                      uint64_t evictions_before, Report* report) {
  const sirius::engine::SiriusEngine::Stats st = engine->stats();
  report->Set("engine.fused_stages", Per(st.fused_stages, queries), "count");
  report->Set("engine.oom_evict_retries",
              st.pipeline_retries - st.tier_loss_retries, "count");
  report->Set("engine.evicted_columns", st.evictions_under_pressure, "count");
  sirius::engine::BufferManager& bm = engine->buffer_manager();
  report->Set("buffer.evictions",
              static_cast<double>(bm.eviction_count() - evictions_before),
              "count");
  report->Set("buffer.cached_modeled_gb",
              static_cast<double>(bm.cached_modeled_bytes()) * 1e-9, "GB");
  if (auto* pool = dynamic_cast<sirius::mem::PoolMemoryResource*>(
          bm.processing_resource())) {
    report->Set("mem.pool_high_water_mb",
                static_cast<double>(pool->high_water_mark()) / (1 << 20), "MB");
    report->Set("mem.pool_capacity_mb",
                static_cast<double>(pool->pool_size()) / (1 << 20), "MB");
  }
}

}  // namespace wallbench
