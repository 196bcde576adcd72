// Batch workloads (tpch-sf0.01, tpch-sf0.05): all 22 TPC-H queries, hot,
// DuckX on the M7i profile with Sirius attached on the GH200 profile (the
// bench_fig4 setup), modeled at SF 100.
//
// Each pass runs the 22 queries in a seeded order. Every query runs twice
// back to back through Database::Query: with the engine attached (the path
// the user sees, fallbacks included) and on the DuckX CPU path (a control
// that skips the buffer manager), alternating which goes first from pass to
// pass so machine drift cancels out of the GPU/CPU ratio.
//
// The traced run reproduces Database::Query step by step from its public
// parts (SqlToPlan, Optimize, SerializePlan, DeserializePlan, ExecutePlan,
// then ExecutePlanCpu when the engine refuses) with a span around each call.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <set>
#include <utility>

#include "common.h"
#include "engine/sirius.h"
#include "host/database.h"
#include "plan/substrait.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace wallbench {

namespace {

using sirius::Result;
using sirius::Status;
using sirius::format::TablePtr;
using sirius::host::QueryResult;

constexpr double kModeledSf = 100;
/// Passes every untraced run completes, so the wall percentiles rest on
/// at least 22 * 5 = 110 samples (ten beyond p90).
constexpr int kMinPasses = 5;

/// The modeled account of one query's hot run on the user path.
struct HotRun {
  double modeled_ms = 0;
  bool accelerated = false;
  std::map<std::string, double> by_cat;  ///< sim.modeled_ms.<category>
  uint64_t launches = 0;
  uint64_t hbm_bytes = 0;
};

struct Setup {
  std::unique_ptr<sirius::host::Database> db;
  std::unique_ptr<sirius::engine::SiriusEngine> engine;
  std::vector<TablePtr> refs;           ///< DuckX CPU answer per query
  std::vector<double> cpu_modeled_ms;   ///< DuckX modeled time per query
  std::vector<HotRun> hot;              ///< per query, from the warm pass
  double generate_s = 0;
  double total_s = 0;
};

/// Generate, load, run the warm pass and take the reference answers.
///
/// The warm pass runs each query twice back to back with the engine
/// attached, as bench_fig4 does: the first run loads its columns, the second
/// is the hot run the modeled metrics are taken from. Those do not depend on
/// the seeded order of the measured passes, in which a query's modeled time
/// depends on what ran before it once Q21 has emptied the cache (SF 0.05).
Result<Setup> SetUp(double sf) {
  Setup s;
  const double t0 = NowS();
  sirius::host::Database::Options db_options;
  db_options.device = sirius::sim::M7i16xlarge();
  db_options.engine = sirius::sim::DuckDbProfile();
  db_options.data_scale = kModeledSf / sf;
  s.db = std::make_unique<sirius::host::Database>(db_options);
  for (const std::string& name : sirius::tpch::TableNames()) {
    const double g0 = NowS();
    SIRIUS_ASSIGN_OR_RETURN(TablePtr table,
                            sirius::tpch::GenerateTable(name, sf));
    s.generate_s += NowS() - g0;
    SIRIUS_RETURN_NOT_OK(s.db->CreateTable(name, std::move(table)));
  }
  sirius::engine::SiriusEngine::Options engine_options;
  engine_options.device = sirius::sim::Gh200Gpu();
  engine_options.profile = sirius::sim::SiriusProfile();
  engine_options.data_scale = kModeledSf / sf;
  s.engine = std::make_unique<sirius::engine::SiriusEngine>(s.db.get(),
                                                            engine_options);
  for (int q = 1; q <= sirius::tpch::NumQueries(); ++q) {
    s.db->SetAccelerator(nullptr);
    SIRIUS_ASSIGN_OR_RETURN(QueryResult cpu,
                            s.db->Query(sirius::tpch::Query(q)));
    s.refs.push_back(cpu.table);
    s.cpu_modeled_ms.push_back(cpu.timeline.total_seconds() * 1e3);
    s.db->SetAccelerator(s.engine.get());
    (void)s.db->Query(sirius::tpch::Query(q));
    SIRIUS_ASSIGN_OR_RETURN(QueryResult hot,
                            s.db->Query(sirius::tpch::Query(q)));
    s.db->SetAccelerator(nullptr);
    s.hot.push_back(HotRun{hot.timeline.total_seconds() * 1e3, hot.accelerated,
                           ModeledByCategory(hot.timeline),
                           hot.kernels.launches, hot.kernels.hbm_bytes()});
  }
  s.total_s = NowS() - t0;
  return s;
}

/// One query's wall time on the user path.
struct Sample {
  int query = 0;
  double wall_ms = 0;
};

/// Everything one run (untraced or traced) measured.
struct RunData {
  std::vector<Tally> gpu_per_pass;  ///< user path, per pass
  Tally gpu, cpu;
  std::vector<Sample> gpu_samples;
  std::vector<double> gpu_pass_s, cpu_pass_s;
  std::vector<std::vector<int>> orders;
  /// Answers that differ from the reference: "q<N>/<path>/pass<P>".
  std::vector<std::string> wrong;
};

/// Checks `res` against the reference and tallies it.
void Check(const Result<QueryResult>& res, const TablePtr& ref, bool user_path,
           Tally* tally, const std::string& where, RunData* data) {
  ++tally->attempted;
  if (!res.ok()) {
    ++tally->errors;
    std::printf("error at %s: %s\n", where.c_str(),
                res.status().ToString().c_str());
    return;
  }
  const QueryResult& r = res.ValueOrDie();
  if (user_path) {
    tally->accelerated += r.accelerated ? 1 : 0;
    tally->fell_back += r.fell_back ? 1 : 0;
  }
  if (r.table != nullptr && r.table->Equals(*ref)) {
    ++tally->ok;
  } else {
    ++tally->wrong;
    data->wrong.push_back(where);
  }
}

/// Runs query `q` on the user path (`gpu_leg`) or the CPU path; timed.
using QueryFn = std::function<Result<QueryResult>(int q, bool gpu_leg)>;
/// Called after each timed query, outside its timing.
using AfterFn = std::function<void(const Result<QueryResult>& res)>;

/// Seeded passes over the 22 queries, each on both paths, alternating which
/// path goes first. Stops once `seconds` have passed and `min_passes` are
/// done.
RunData RunPasses(const Args& args, Setup* s, double seconds, int min_passes,
                  const QueryFn& run, const AfterFn& after) {
  RunData d;
  std::mt19937_64 rng(args.seed);
  const int n = sirius::tpch::NumQueries();
  const double start = NowS();
  for (int pass = 0; pass < min_passes || NowS() - start < seconds; ++pass) {
    const std::vector<int> order = Permutation(n, &rng);
    d.orders.push_back(order);
    Tally pass_tally;
    double gpu_s = 0, cpu_s = 0;
    for (int idx : order) {
      const int q = idx + 1;
      for (int leg = 0; leg < 2; ++leg) {
        const bool gpu_leg = (leg == 0) == (pass % 2 == 0);
        const double t0 = NowS();
        const Result<QueryResult> res = run(q, gpu_leg);
        const double dt = NowS() - t0;
        const std::string where = "q" + std::to_string(q) +
                                  (gpu_leg ? "/gpu" : "/cpu") + "/pass" +
                                  std::to_string(pass);
        const TablePtr& ref = s->refs[static_cast<size_t>(idx)];
        if (gpu_leg) {
          gpu_s += dt;
          Check(res, ref, true, &pass_tally, where, &d);
          d.gpu_samples.push_back(Sample{q, dt * 1e3});
        } else {
          cpu_s += dt;
          Check(res, ref, false, &d.cpu, where, &d);
        }
        if (after) after(res);
      }
    }
    d.gpu_per_pass.push_back(pass_tally);
    d.gpu.Add(pass_tally);
    d.gpu_pass_s.push_back(gpu_s);
    d.cpu_pass_s.push_back(cpu_s);
  }
  s->db->SetAccelerator(nullptr);
  return d;
}

/// The untraced run: whole Database::Query calls.
RunData RunUntraced(const Args& args, Setup* s, double seconds,
                    int min_passes) {
  return RunPasses(args, s, seconds, min_passes,
                   [s](int q, bool gpu_leg) {
                     s->db->SetAccelerator(gpu_leg ? s->engine.get() : nullptr);
                     return s->db->Query(sirius::tpch::Query(q));
                   },
                   nullptr);
}

/// Per-layer numbers of the traced run.
struct Traced {
  RunData data;
  SpanLog spans;
  FallbackLog fallbacks;
  double modeled_accel_ms = 0;
  uint64_t wire_bytes = 0;
  std::set<Scan> scans;  ///< every scan the traced queries ran
};

/// The traced run: Database::Query taken apart into its layer calls, a span
/// around each.
void RunTraced(const Args& args, Setup* s, double seconds, int min_passes,
               Traced* t) {
  sirius::host::Database& db = *s->db;
  sirius::engine::SiriusEngine& engine = *s->engine;
  auto resolver = [&db](const std::string& name) {
    return db.catalog().GetTableSchema(name);
  };
  uint64_t request = 0;
  sirius::plan::PlanPtr device_plan;  // of the last query, for the probe
  auto run = [&](int q, bool gpu_leg) -> Result<QueryResult> {
    ++request;
    device_plan = nullptr;
    ScopedSpan query_span(&t->spans, gpu_leg ? "query.gpu" : "query.cpu", -1,
                          request);
    const int parent = query_span.id();
    if (!gpu_leg) {
      return QueryCpuStepwise(db, sirius::tpch::Query(q), &t->spans, parent,
                              request);
    }
    // The DuckX frontend: parse + bind, then optimize.
    Result<sirius::plan::PlanPtr> plan =
        PlanStepwise(db, sirius::tpch::Query(q), &t->spans, parent, request);
    if (!plan.ok()) return plan.status();
    const sirius::plan::PlanPtr optimized = plan.ValueOrDie();
    // The plan wire round trip at the Substrait boundary.
    std::string wire;
    {
      ScopedSpan sp(&t->spans, "plan.serialize", parent, request);
      wire = sirius::plan::SerializePlan(optimized);
    }
    t->wire_bytes += wire.size();
    {
      ScopedSpan sp(&t->spans, "plan.deserialize", parent, request);
      plan = sirius::plan::DeserializePlan(wire, resolver);
    }
    Result<QueryResult> res = Status::Internal("not run");
    if (plan.ok()) {
      device_plan = plan.ValueOrDie();
      ScopedSpan sp(&t->spans, "engine.execute", parent, request);
      res = engine.ExecutePlan(device_plan);
    } else {
      res = plan.status();
    }
    if (!res.ok()) {
      // Graceful fallback, as Database::ExecutePlanRouted does.
      t->fallbacks.Add(res.status());
      device_plan = nullptr;
      ScopedSpan sp(&t->spans, "host.cpu_exec", parent, request);
      res = db.ExecutePlanCpu(optimized);
      if (res.ok()) res.ValueOrDie().fell_back = true;
      return res;
    }
    QueryResult& r = res.ValueOrDie();
    r.optimized_plan = optimized;
    r.accelerated = true;
    t->modeled_accel_ms += r.timeline.total_seconds() * 1e3;
    return res;
  };
  // Hot-scan probe, outside the query's timing: request an accelerated
  // query's scan columns again once it is done. Only columns still resident
  // are probed, so the probe never loads anything and the cache holds the
  // same columns as in the untraced run.
  auto probe = [&](const Result<QueryResult>&) {
    if (device_plan == nullptr) return;
    const std::vector<Scan> scans = CollectScans(device_plan);
    t->scans.insert(scans.begin(), scans.end());
    ScopedSpan sp(&t->spans, "buffer.hot_scan", -1, request);
    RequestScans(&engine, db, scans, /*resident_only=*/true);
  };
  t->data = RunPasses(args, s, seconds, min_passes, run, probe);
}

/// Median over passes of queries per wall second on one path.
double PassQps(const std::vector<double>& pass_s, int queries) {
  std::vector<double> qps;
  for (double s : pass_s) qps.push_back(queries / s);
  return Median(qps);
}

void PrintWrong(const std::string& workload, const RunData& d) {
  for (const std::string& w : d.wrong) {
    std::printf("[%s] wrong answer: %s (catalog version v0)\n",
                workload.c_str(), w.c_str());
  }
}

}  // namespace

int RunBatch(const Args& args, double loaded_sf, Report* report) {
  const int n = sirius::tpch::NumQueries();

  Result<Setup> made = SetUp(loaded_sf);
  if (!made.ok()) {
    std::fprintf(stderr, "setup failed: %s\n",
                 made.status().ToString().c_str());
    return 1;
  }
  Setup s = std::move(made).ValueOrDie();
  std::printf("[%s] setup %.3f s, generate %.3f s\n", args.workload.c_str(),
              s.total_s, s.generate_s);

  if (!args.trace) {
    RunData d = RunUntraced(args, &s, args.seconds, kMinPasses);
    PrintWrong(args.workload, d);
    const int passes = static_cast<int>(d.gpu_pass_s.size());
    std::vector<double> gpu_modeled, speedups, wall;
    for (int q = 0; q < n; ++q) {
      const double m = s.hot[static_cast<size_t>(q)].modeled_ms;
      gpu_modeled.push_back(m);
      speedups.push_back(s.cpu_modeled_ms[static_cast<size_t>(q)] / m);
    }
    for (const Sample& smp : d.gpu_samples) wall.push_back(smp.wall_ms);
    std::vector<double> ratios;
    for (int p = 0; p < passes; ++p) {
      ratios.push_back(d.gpu_pass_s[static_cast<size_t>(p)] /
                       d.cpu_pass_s[static_cast<size_t>(p)]);
    }

    report->Set("setup_s", s.total_s, "s");
    report->Set("qps", PassQps(d.gpu_pass_s, n), "1/s");
    report->Set("query_ms_p50", Quantile(wall, 0.5), "ms");
    report->Set("query_ms_p90", Quantile(wall, 0.9), "ms");
    report->Set("cpu_qps", PassQps(d.cpu_pass_s, n), "1/s");
    report->Set("gpu_cpu_wall_ratio", Median(ratios), "ratio");
    report->Set("ok_share", d.gpu.ok_share(), "share");
    report->Set("accelerated_share",
                d.gpu.attempted == 0
                    ? 0
                    : static_cast<double>(d.gpu.accelerated) / d.gpu.attempted,
                "share");
    report->Set("modeled_gpu_ms_geomean", Geomean(gpu_modeled), "sim_ms");
    report->Set("modeled_speedup_geomean", Geomean(speedups), "x");
    report->Set("sim_latency_ms_p50", Quantile(gpu_modeled, 0.5), "sim_ms");
    report->Set("sim_latency_ms_p95", Quantile(gpu_modeled, 0.95), "sim_ms");
    report->attempted = d.gpu.attempted + d.cpu.attempted;
    report->failed = d.gpu.failed() + d.cpu.failed();
    report->correct = d.gpu.wrong + d.cpu.wrong == 0;
    std::printf("[%s] pass wall ms, engine attached / CPU path:", args.workload.c_str());
    for (int p = 0; p < passes; ++p) {
      std::printf(" %.1f/%.1f", d.gpu_pass_s[static_cast<size_t>(p)] * 1e3,
                  d.cpu_pass_s[static_cast<size_t>(p)] * 1e3);
    }
    std::printf("\n");
    std::printf("[%s] median wall ms per query, engine attached:", args.workload.c_str());
    for (int q = 1; q <= n; ++q) {
      std::vector<double> w;
      for (const Sample& smp : d.gpu_samples) {
        if (smp.query == q) w.push_back(smp.wall_ms);
      }
      std::printf(" q%d=%.2f", q, Median(w));
    }
    std::printf("\n");
    std::printf("[%s] %d passes, %zu samples per path (p90 has %zu beyond)\n",
                args.workload.c_str(), passes, wall.size(),
                wall.size() - static_cast<size_t>(0.9 * wall.size()));
    std::printf("DETERMINISM {\"workload\": \"%s\", \"seed\": %llu, "
                "\"order0\": [",
                args.workload.c_str(), static_cast<unsigned long long>(args.seed));
    for (int i = 0; i < n; ++i) {
      std::printf("%s%d", i ? ", " : "", d.orders[0][static_cast<size_t>(i)] + 1);
    }
    std::printf("], \"modeled_ms\": [");
    for (int q = 0; q < n; ++q) {
      std::printf("%s%.17g", q ? ", " : "", gpu_modeled[static_cast<size_t>(q)]);
    }
    std::printf("], \"modeled_gpu_ms_geomean\": %.17g, "
                "\"modeled_speedup_geomean\": %.17g, \"sim_latency_ms_p50\": "
                "%.17g, \"sim_latency_ms_p95\": %.17g, \"ok\": %llu, "
                "\"wrong\": %llu, \"accelerated\": %llu}\n",
                Geomean(gpu_modeled), Geomean(speedups),
                Quantile(gpu_modeled, 0.5), Quantile(gpu_modeled, 0.95),
                static_cast<unsigned long long>(d.gpu.ok),
                static_cast<unsigned long long>(d.gpu.wrong),
                static_cast<unsigned long long>(d.gpu.accelerated));
    report->Set("peak_rss_mb", PeakRssMb(), "MB");
    return 0;
  }

  // Traced mode: half the time untraced (the overhead baseline and the
  // reference counts), half traced, both from the same seed.
  ZeroPerLayer(report);
  const double half = args.seconds / 2;
  RunData plain = RunUntraced(args, &s, half, 2);
  s.engine->ResetStats();
  const uint64_t evictions0 = s.engine->buffer_manager().eviction_count();
  Traced t;
  RunTraced(args, &s, half, 2, &t);
  const RunData& d = t.data;
  PrintWrong(args.workload, plain);
  PrintWrong(args.workload, d);
  t.fallbacks.Print(args.workload);

  // The traced run must reach the same verdicts as the untraced one, pass
  // for pass, over the passes both completed.
  const size_t common = std::min(plain.gpu_per_pass.size(), d.gpu_per_pass.size());
  bool same = true;
  for (size_t p = 0; p < common; ++p) {
    same = same && plain.gpu_per_pass[p] == d.gpu_per_pass[p];
  }
  std::printf("[%s] traced vs untraced verdicts over %zu passes: %s\n",
              args.workload.c_str(), common, same ? "equal" : "DIFFERENT");

  const double gpu_queries = static_cast<double>(d.gpu.attempted);
  const double exec_ms = t.spans.TotalMs("engine.execute");
  report->Set("dbgen.generate_s", s.generate_s, "s");
  SetSpanMetrics(t.spans, report);
  report->Set("plan.wire_bytes",
              Per(t.wire_bytes, t.spans.Count("plan.serialize")), "bytes");
  report->Set("engine.host_ms_per_modeled_ms", Per(exec_ms, t.modeled_accel_ms),
              "ratio");
  SetEngineMetrics(s.engine.get(), gpu_queries, evictions0, report);
  // Device counts and the sim.* breakdown: mean over the accelerated hot
  // runs of the warm pass, so they repeat exactly.
  double launches = 0, hbm_gb = 0, hot_queries = 0;
  std::map<std::string, double> by_cat;
  for (const HotRun& h : s.hot) {
    if (!h.accelerated) continue;
    hot_queries += 1;
    launches += static_cast<double>(h.launches);
    hbm_gb += static_cast<double>(h.hbm_bytes) * 1e-9;
    for (const auto& [name, ms] : h.by_cat) by_cat[name] += ms;
  }
  report->Set("engine.kernel_launches", Per(launches, hot_queries), "count");
  report->Set("engine.hbm_gb_modeled", Per(hbm_gb, hot_queries), "GB");
  for (const auto& [name, ms] : by_cat) {
    report->Set(name, Per(ms, hot_queries), "sim_ms");
  }
  const uint64_t oom = t.fallbacks.Count(sirius::StatusCode::kOutOfMemory);
  report->Set("engine.fallback_oom", oom, "count");
  report->Set("engine.fallback_other", t.fallbacks.Total() - oom, "count");
  report->Set("buffer.hot_scan_share",
              Per(t.spans.TotalMs("buffer.hot_scan"), exec_ms), "share");
  report->Set("trace.queries", gpu_queries, "count");
  const double plain_qps = PassQps(plain.gpu_pass_s, n);
  const double traced_qps = PassQps(d.gpu_pass_s, n);
  report->Set("trace.overhead_share", 1 - traced_qps / plain_qps, "share");

  // Cold path, last because it empties the cache: load the workload's whole
  // scan working set from the host tables.
  ColdLoad(s.engine.get(), *s.db,
           std::vector<Scan>(t.scans.begin(), t.scans.end()), &t.spans, report);

  report->attempted = plain.gpu.attempted + plain.cpu.attempted +
                      d.gpu.attempted + d.cpu.attempted;
  report->failed = plain.gpu.failed() + plain.cpu.failed() + d.gpu.failed() +
                   d.cpu.failed();
  report->correct =
      same && plain.gpu.wrong + plain.cpu.wrong + d.gpu.wrong + d.cpu.wrong == 0;
  std::printf("[%s] traced: %zu passes\n", args.workload.c_str(),
              d.gpu_pass_s.size());
  if (!args.spans_out.empty()) {
    Status w = t.spans.Write(args.spans_out);
    if (!w.ok()) std::printf("%s\n", w.ToString().c_str());
  }
  return 0;
}

}  // namespace wallbench
