// serve-writes: one QueryServer at loaded SF 0.01, modeled SF 1 on GH200,
// plan and result caches on, execution_threads = the machine's core count.
//
// Four closed-loop simulated clients (dashboard sessions wait for each
// reply) split over two tenants: "tpch" draws from the TPC-H mix
// {1,3,5,6,10,12,14,19}, "ssb" from all 13 SSB queries, each client in
// seeded rounds of its tenant's whole mix. Every 16
// completions the benchmark replaces `lineorder` through Database::CreateTable,
// rotating among four seeded versions generated during set-up. A write bumps
// the catalog version, which invalidates result- and plan-cache entries.
//
// Every answer is compared cell for cell with DuckX's CPU answer for the
// catalog version the query was submitted under, computed during set-up on a
// second, CPU-only database that shares the tables. Right after each answer
// the same query runs once more on DuckX's CPU path of the served database:
// the CPU control that cpu_qps and gpu_cpu_wall_ratio come from.

#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <thread>
#include <utility>

#include "common.h"
#include "engine/sirius.h"
#include "host/database.h"
#include "serve/serve.h"
#include "ssb/dbgen.h"
#include "ssb/queries.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace wallbench {

namespace {

using sirius::Result;
using sirius::Status;
using sirius::format::TablePtr;
using sirius::host::QueryResult;
namespace serve = sirius::serve;

constexpr double kLoadedSf = 0.01;
constexpr double kModeledSf = 1;
constexpr int kVersions = 4;
constexpr int kWriteEvery = 16;
constexpr int kClients = 4;
/// A run serves a fixed number of completions, whatever the host's speed, so
/// that its query sequence, verdicts and failure count depend on the seed
/// alone: kAnswersPerSecond for each second of --seconds (about the rate
/// a 4-vCPU host serves, CPU control included), and at least
/// kMinCompletions. The simulated-time metrics are taken over the first
/// kMinCompletions (400 completions leave twenty beyond p95).
constexpr int kMinCompletions = 400;
constexpr double kAnswersPerSecond = 30;
const std::vector<int> kTpchMix = {1, 3, 5, 6, 10, 12, 14, 19};

/// A query of the mix: family (0 = TPC-H, 1 = SSB) and number.
struct Key {
  int family = 0;
  int query = 0;
  bool operator<(const Key& o) const {
    return family != o.family ? family < o.family : query < o.query;
  }
};

const std::string& Sql(const Key& k) {
  return k.family == 0 ? sirius::tpch::Query(k.query)
                       : sirius::ssb::Query(k.query);
}

std::string Name(const Key& k) {
  return k.family == 0 ? "tpch-q" + std::to_string(k.query)
                       : "ssb-" + sirius::ssb::QueryName(k.query);
}

struct Reference {
  TablePtr table;
  double modeled_ms = 0;  ///< DuckX modeled time (M7i, SF 1)
};

struct Setup {
  std::unique_ptr<sirius::host::Database> db;       ///< served database
  std::unique_ptr<sirius::engine::SiriusEngine> engine;
  std::unique_ptr<sirius::host::Database> control;  ///< reference answers
  std::vector<TablePtr> lineorder;                  ///< the seeded versions
  /// Reference answer per query and lineorder version (TPC-H: version 0).
  std::map<Key, std::vector<Reference>> refs;
  std::vector<Key> tpch_mix, ssb_mix;
  double generate_s = 0;
  double total_s = 0;
};

uint64_t VersionSalt(uint64_t seed, int version) {
  return seed * 0x9e3779b97f4a7c15ull + static_cast<uint64_t>(version) + 1;
}

sirius::host::Database::Options DbOptions() {
  sirius::host::Database::Options o;
  o.device = sirius::sim::M7i16xlarge();
  o.engine = sirius::sim::DuckDbProfile();
  o.data_scale = kModeledSf / kLoadedSf;
  return o;
}

Result<Setup> SetUp(uint64_t seed) {
  Setup s;
  const double t0 = NowS();
  s.db = std::make_unique<sirius::host::Database>(DbOptions());
  s.control = std::make_unique<sirius::host::Database>(DbOptions());
  auto load = [&s](const std::string& name, const TablePtr& t) -> Status {
    SIRIUS_RETURN_NOT_OK(s.db->CreateTable(name, t));
    return s.control->CreateTable(name, t);
  };
  for (const std::string& name : sirius::tpch::TableNames()) {
    const double g0 = NowS();
    SIRIUS_ASSIGN_OR_RETURN(TablePtr t,
                            sirius::tpch::GenerateTable(name, kLoadedSf));
    s.generate_s += NowS() - g0;
    SIRIUS_RETURN_NOT_OK(load(name, t));
  }
  sirius::ssb::SsbOptions ssb_options;
  ssb_options.sf = kLoadedSf;
  ssb_options.seed = seed;
  for (const std::string& name : sirius::ssb::TableNames()) {
    if (name == "lineorder") continue;
    const double g0 = NowS();
    SIRIUS_ASSIGN_OR_RETURN(TablePtr t,
                            sirius::ssb::GenerateTable(name, ssb_options));
    s.generate_s += NowS() - g0;
    SIRIUS_RETURN_NOT_OK(load(name, t));
  }
  for (int v = 0; v < kVersions; ++v) {
    sirius::ssb::SsbOptions o = ssb_options;
    o.seed = VersionSalt(seed, v);
    const double g0 = NowS();
    SIRIUS_ASSIGN_OR_RETURN(TablePtr t,
                            sirius::ssb::GenerateTable("lineorder", o));
    s.generate_s += NowS() - g0;
    s.lineorder.push_back(std::move(t));
  }

  for (int q : kTpchMix) s.tpch_mix.push_back(Key{0, q});
  for (int q = 1; q <= sirius::ssb::NumQueries(); ++q) {
    s.ssb_mix.push_back(Key{1, q});
  }
  // Reference answers: DuckX CPU path, one per query and version.
  for (const Key& k : s.tpch_mix) {
    SIRIUS_ASSIGN_OR_RETURN(QueryResult r, s.control->Query(Sql(k)));
    s.refs[k].push_back(Reference{r.table, r.timeline.total_seconds() * 1e3});
  }
  for (int v = 0; v < kVersions; ++v) {
    SIRIUS_RETURN_NOT_OK(s.control->CreateTable("lineorder", s.lineorder[v]));
    for (const Key& k : s.ssb_mix) {
      SIRIUS_ASSIGN_OR_RETURN(QueryResult r, s.control->Query(Sql(k)));
      s.refs[k].push_back(Reference{r.table, r.timeline.total_seconds() * 1e3});
    }
  }

  // Engine with default options at modeled SF 1; warm pass under version 0.
  SIRIUS_RETURN_NOT_OK(s.db->CreateTable("lineorder", s.lineorder[0]));
  sirius::engine::SiriusEngine::Options engine_options;
  engine_options.data_scale = kModeledSf / kLoadedSf;
  s.engine = std::make_unique<sirius::engine::SiriusEngine>(s.db.get(),
                                                            engine_options);
  s.db->SetAccelerator(s.engine.get());
  for (const auto* mix : {&s.tpch_mix, &s.ssb_mix}) {
    for (const Key& k : *mix) (void)s.db->Query(Sql(k));
  }
  s.db->SetAccelerator(nullptr);
  s.total_s = NowS() - t0;
  return s;
}

/// One submitted query and what became of it.
struct Record {
  Key key;
  int version = 0;       ///< lineorder version current at submit
  double submit_wall = 0;
  double wall_ms = 0;    ///< submit call to harvest, host wall time
  serve::QueryOutcome outcome;
  bool answered = false;  ///< completed with a result table
  bool ok = false;        ///< equal to the reference of its version
  bool stale = false;     ///< wrong, but equal to another version's answer
};

struct ServeData {
  std::vector<Record> done;   ///< terminal records, in harvest order
  /// Serving wall time: the closed loop and its writes, less the oracle,
  /// the CPU control and the hot-scan probe, which are the benchmark's own
  /// work.
  double wall_s = 0;
  /// Wall time of the CPU control: each answered query once more on
  /// DuckX's CPU path, right after its answer.
  double cpu_s = 0;
  uint64_t shed = 0;
  uint64_t submit_errors = 0;
  uint64_t cache_hits = 0;
};

/// Compares a completed answer with its references.
void CheckAnswer(const Setup& s, Record* r) {
  const std::vector<Reference>& refs = s.refs.at(r->key);
  const size_t v = r->key.family == 0 ? 0 : static_cast<size_t>(r->version);
  const TablePtr& got = r->outcome.table;
  r->answered = got != nullptr;
  if (!r->answered) return;
  r->ok = got->Equals(*refs[v].table);
  for (size_t o = 0; !r->ok && !r->stale && o < refs.size(); ++o) {
    r->stale = o != v && got->Equals(*refs[o].table);
  }
}

/// Completions a run of `seconds` serves.
int Completions(double seconds, int min_completions) {
  return std::max(min_completions,
                  static_cast<int>(std::lround(kAnswersPerSecond * seconds)));
}

/// Closed-loop serve run. Stops submitting once `completions` are
/// harvested, then drains the clients' outstanding queries. `spans` (may be
/// null) turns the traced run on.
Result<ServeData> ServeRun(const Args& args, Setup* s, int completions,
                           SpanLog* spans) {
  ServeData d;
  SIRIUS_RETURN_NOT_OK(s->db->CreateTable("lineorder", s->lineorder[0]));
  serve::ServeOptions options;
  options.execution_threads =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  serve::QueryServer server(s->db.get(), s->engine.get(), options);
  server.RegisterTenant("tpch", 1.0);
  server.RegisterTenant("ssb", 1.0);

  struct Client {
    serve::SessionId session = 0;
    bool tpch = true;
    bool outstanding = false;
    serve::QueryId id = 0;
    double next_s = 0;
    Record record;
    /// Queries still to draw in this round of the tenant's mix.
    std::vector<Key> bag;
  };
  std::vector<Client> clients(kClients);
  for (int i = 0; i < kClients; ++i) {
    Client& c = clients[static_cast<size_t>(i)];
    c.tpch = i % 2 == 0;
    c.session = server.OpenSession(c.tpch ? "tpch" : "ssb");
    c.next_s = server.now_s();
  }
  std::mt19937_64 rng(args.seed);
  std::map<std::string, std::vector<Scan>> scans;  // per SQL text (probe)
  int version = 0;
  int submits = 0;
  bool stopped = false;
  const double start = NowS();
  double excluded_s = 0;  // benchmark work inside the loop
  // Times `fn` and books it as the benchmark's own work.
  auto own_work = [&](auto&& fn) {
    const double t0 = NowS();
    fn();
    excluded_s += NowS() - t0;
  };

  auto harvest = [&]() -> Status {
    // One stamp for every answer harvested here, so none of them is charged
    // the benchmark's own work on the answers before it.
    const double now = NowS();
    for (Client& c : clients) {
      if (!c.outstanding) continue;
      SIRIUS_ASSIGN_OR_RETURN(serve::QueryOutcome out, server.Peek(c.id));
      if (!out.terminal()) continue;
      c.outstanding = false;
      c.next_s = out.finish_s;
      Record r = std::move(c.record);
      r.wall_ms = (now - r.submit_wall) * 1e3;
      r.outcome = std::move(out);
      d.cache_hits += r.outcome.cache_hit ? 1 : 0;
      own_work([&] { CheckAnswer(*s, &r); });
      if (r.answered) {
        // Under the current catalog version, which differs from the
        // submitted one only for the few queries in flight at a write.
        const double c0 = NowS();
        const Status cpu =
            QueryCpuStepwise(*s->db, Sql(r.key), spans, -1, r.outcome.id)
                .status();
        const double dt = NowS() - c0;
        d.cpu_s += dt;
        excluded_s += dt;
        SIRIUS_RETURN_NOT_OK(cpu);
      }
      if (spans != nullptr && r.answered && !r.outcome.cache_hit) {
        // Hot-scan probe: the query's scan columns, requested again.
        own_work([&] {
          const std::string& sql = Sql(r.key);
          auto it = scans.find(sql);
          if (it == scans.end()) {
            auto plan = s->db->PlanSql(sql);
            it = scans.emplace(sql, plan.ok() ? CollectScans(plan.ValueOrDie())
                                              : std::vector<Scan>{}).first;
          }
          ScopedSpan sp(spans, "buffer.hot_scan", -1, r.outcome.id);
          RequestScans(s->engine.get(), *s->db, it->second,
                       /*resident_only=*/true);
        });
      }
      d.done.push_back(std::move(r));
      if (d.done.size() % kWriteEvery == 0) {
        version = (version + 1) % kVersions;
        ScopedSpan sp(spans, "serve.write", -1, 0);
        SIRIUS_RETURN_NOT_OK(s->db->CreateTable(
            "lineorder", s->lineorder[static_cast<size_t>(version)]));
      }
    }
    return Status::OK();
  };

  for (;;) {
    SIRIUS_RETURN_NOT_OK(harvest());
    stopped = stopped || static_cast<int>(d.done.size()) >= completions;
    Client* next = nullptr;
    bool any_outstanding = false;
    for (Client& c : clients) {
      any_outstanding = any_outstanding || c.outstanding;
      if (stopped || c.outstanding) continue;
      if (next == nullptr || c.next_s < next->next_s) next = &c;
    }
    const double next_dispatch = server.NextDispatchTime();
    if (next != nullptr && next->next_s <= next_dispatch) {
      // Each client draws its tenant's mix in seeded rounds (every query
      // once per round, in a seeded order), so the mix a run serves varies
      // little from seed to seed while the sequence does.
      if (next->bag.empty()) {
        const std::vector<Key>& mix = next->tpch ? s->tpch_mix : s->ssb_mix;
        for (int i : Permutation(static_cast<int>(mix.size()), &rng)) {
          next->bag.push_back(mix[static_cast<size_t>(i)]);
        }
      }
      const Key key = next->bag.back();
      next->bag.pop_back();
      serve::SubmitOptions sub;
      sub.arrival_s = next->next_s;
      sub.keep_result = true;
      ++submits;
      Record r;
      r.key = key;
      r.version = version;
      r.submit_wall = NowS();
      Result<serve::QueryId> id = Status::Internal("not submitted");
      {
        ScopedSpan sp(spans, "serve.submit", -1, static_cast<uint64_t>(submits));
        id = server.Submit(next->session, Sql(key), sub);
      }
      if (id.ok()) {
        next->outstanding = true;
        next->id = id.ValueOrDie();
        next->record = std::move(r);
      } else {
        // A refused submit is a failed attempt; the client retries later.
        if (id.status().IsResourceExhausted()) {
          ++d.shed;
        } else {
          ++d.submit_errors;
        }
        next->next_s += std::max(serve::RetryAfterHint(id.status()), 1e-3);
      }
    } else if (std::isfinite(next_dispatch)) {
      ScopedSpan sp(spans, "serve.step", -1, 0);
      SIRIUS_RETURN_NOT_OK(server.Step().status());
    } else if (!any_outstanding && stopped) {
      break;
    }
  }
  d.wall_s = NowS() - start - excluded_s;
  return d;
}

/// User-path tally of the records in [0, end).
Tally Summarize(const ServeData& d, size_t end, uint64_t* unexplained) {
  Tally t;
  for (size_t i = 0; i < end && i < d.done.size(); ++i) {
    const Record& r = d.done[i];
    ++t.attempted;
    if (!r.answered) {
      ++t.errors;
      continue;
    }
    t.ok += r.ok ? 1 : 0;
    t.wrong += r.ok ? 0 : 1;
    if (!r.ok && !r.stale && unexplained != nullptr) ++*unexplained;
    if (!r.outcome.cache_hit) {
      t.accelerated += r.outcome.fell_back ? 0 : 1;
      t.fell_back += r.outcome.fell_back ? 1 : 0;
    }
  }
  return t;
}

/// The simulated-time numbers over the first `n` records.
struct SimNumbers {
  double latency_p50 = 0, latency_p95 = 0, queue_wait_p95 = 0;
  double modeled_geomean = 0, speedup_geomean = 0;
};

SimNumbers Simulated(const Setup& s, const ServeData& d, size_t n) {
  std::vector<double> latency, wait, modeled, speedup;
  for (size_t i = 0; i < n && i < d.done.size(); ++i) {
    const Record& r = d.done[i];
    if (!r.answered) continue;
    latency.push_back(r.outcome.latency_s() * 1e3);
    wait.push_back(r.outcome.queue_wait_s() * 1e3);
    if (!r.outcome.cache_hit && r.outcome.exec_solo_s > 0) {
      const double ms = r.outcome.exec_solo_s * 1e3;
      const size_t v = r.key.family == 0 ? 0 : static_cast<size_t>(r.version);
      modeled.push_back(ms);
      speedup.push_back(s.refs.at(r.key)[v].modeled_ms / ms);
    }
  }
  SimNumbers out;
  out.latency_p50 = Quantile(latency, 0.5);
  out.latency_p95 = Quantile(latency, 0.95);
  out.queue_wait_p95 = Quantile(wait, 0.95);
  out.modeled_geomean = Geomean(modeled);
  out.speedup_geomean = Geomean(speedup);
  return out;
}

/// Lists wrong answers by query and version, with counts.
void PrintWrong(const ServeData& d, const char* run) {
  std::map<std::string, int> counts;
  for (const Record& r : d.done) {
    if (!r.answered || r.ok) continue;
    counts[Name(r.key) + " @v" + std::to_string(r.key.family == 0 ? 0 : r.version) +
           (r.stale ? " (equals another version's answer: stale cache)"
                    : " (matches no version)")]++;
  }
  for (const auto& [what, n] : counts) {
    std::printf("[serve-writes] wrong answer (%s run): %s x%d\n", run,
                what.c_str(), n);
  }
}

/// True when two runs decided the same for each of the first `n` records.
bool SameVerdicts(const ServeData& a, const ServeData& b, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    const Record& x = a.done[i];
    const Record& y = b.done[i];
    if (x.key.family != y.key.family || x.key.query != y.key.query ||
        x.version != y.version || x.ok != y.ok || x.answered != y.answered ||
        x.outcome.cache_hit != y.outcome.cache_hit ||
        x.outcome.fell_back != y.outcome.fell_back) {
      return false;
    }
  }
  return true;
}

}  // namespace

int RunServeWrites(const Args& args, Report* report) {
  Result<Setup> made = SetUp(args.seed);
  if (!made.ok()) {
    std::fprintf(stderr, "setup failed: %s\n",
                 made.status().ToString().c_str());
    return 1;
  }
  Setup s = std::move(made).ValueOrDie();
  std::printf("[serve-writes] setup %.3f s, generate %.3f s\n", s.total_s,
              s.generate_s);
  std::printf("[serve-writes] lineorder version fingerprints:");
  for (const TablePtr& t : s.lineorder) {
    std::printf(" %016llx",
                static_cast<unsigned long long>(TableFingerprint(*t, 256)));
  }
  std::printf("\n");

  if (!args.trace) {
    Result<ServeData> run =
        ServeRun(args, &s, Completions(args.seconds, kMinCompletions), nullptr);
    if (!run.ok()) {
      std::fprintf(stderr, "serve run failed: %s\n",
                   run.status().ToString().c_str());
      return 1;
    }
    const ServeData& d = run.ValueOrDie();
    PrintWrong(d, "untraced");
    uint64_t unexplained = 0;
    const Tally user = Summarize(d, d.done.size(), &unexplained);
    const SimNumbers sim = Simulated(s, d, kMinCompletions);
    std::vector<double> wall;
    for (const Record& r : d.done) {
      if (r.answered) wall.push_back(r.wall_ms);
    }
    const double qps = static_cast<double>(wall.size()) / d.wall_s;
    const uint64_t non_hit = user.attempted - d.cache_hits;
    const double attempted = static_cast<double>(user.attempted + d.shed +
                                                 d.submit_errors);

    report->Set("setup_s", s.total_s, "s");
    report->Set("qps", qps, "1/s");
    report->Set("query_ms_p50", Quantile(wall, 0.5), "ms");
    report->Set("query_ms_p90", Quantile(wall, 0.9), "ms");
    report->Set("cpu_qps", static_cast<double>(wall.size()) / d.cpu_s, "1/s");
    report->Set("gpu_cpu_wall_ratio", d.wall_s / d.cpu_s, "ratio");
    report->Set("ok_share", static_cast<double>(user.ok) / attempted, "share");
    report->Set("accelerated_share",
                Per(static_cast<double>(user.accelerated),
                    static_cast<double>(non_hit)),
                "share");
    report->Set("peak_rss_mb", PeakRssMb(), "MB");
    report->Set("modeled_gpu_ms_geomean", sim.modeled_geomean, "sim_ms");
    report->Set("modeled_speedup_geomean", sim.speedup_geomean, "x");
    report->Set("sim_latency_ms_p50", sim.latency_p50, "sim_ms");
    report->Set("sim_latency_ms_p95", sim.latency_p95, "sim_ms");
    report->attempted = static_cast<uint64_t>(attempted);
    report->failed = user.failed() + d.shed + d.submit_errors;
    report->correct = unexplained == 0;
    std::printf("[serve-writes] %zu answered in %.3f s, %llu cache hits, %llu "
                "wrong (%llu matching no version), %llu shed; the same "
                "queries took %.3f s on the CPU path\n",
                wall.size(), d.wall_s,
                static_cast<unsigned long long>(d.cache_hits),
                static_cast<unsigned long long>(user.wrong),
                static_cast<unsigned long long>(unexplained),
                static_cast<unsigned long long>(d.shed), d.cpu_s);
    const Tally prefix = Summarize(d, kMinCompletions, nullptr);
    std::printf("DETERMINISM {\"workload\": \"serve-writes\", \"seed\": %llu, "
                "\"first_queries\": [",
                static_cast<unsigned long long>(args.seed));
    for (size_t i = 0; i < 16 && i < d.done.size(); ++i) {
      std::printf("%s\"%s@v%d\"", i ? ", " : "", Name(d.done[i].key).c_str(),
                  d.done[i].version);
    }
    std::printf("], \"modeled_gpu_ms_geomean\": %.17g, "
                "\"modeled_speedup_geomean\": %.17g, \"sim_latency_ms_p50\": "
                "%.17g, \"sim_latency_ms_p95\": %.17g, \"queue_wait_ms_p95\": "
                "%.17g, \"ok\": %llu, \"wrong\": %llu, \"accelerated\": %llu}\n",
                sim.modeled_geomean, sim.speedup_geomean, sim.latency_p50,
                sim.latency_p95, sim.queue_wait_p95,
                static_cast<unsigned long long>(prefix.ok),
                static_cast<unsigned long long>(prefix.wrong),
                static_cast<unsigned long long>(prefix.accelerated));
    return 0;
  }

  // Traced mode: half the work untraced (overhead baseline and reference
  // verdicts), half traced, both from the same seed and a fresh server.
  ZeroPerLayer(report);
  const int half = Completions(args.seconds / 2, kMinCompletions / 2);
  SpanLog spans;
  Result<ServeData> plain_run = ServeRun(args, &s, half, nullptr);
  s.engine->ResetStats();
  const uint64_t evictions0 = s.engine->buffer_manager().eviction_count();
  Result<ServeData> traced_run = ServeRun(args, &s, half, &spans);
  if (!plain_run.ok() || !traced_run.ok()) {
    std::fprintf(stderr, "serve run failed: %s\n",
                 (plain_run.ok() ? traced_run.status() : plain_run.status())
                     .ToString()
                     .c_str());
    return 1;
  }
  const ServeData& plain = plain_run.ValueOrDie();
  const ServeData& d = traced_run.ValueOrDie();
  PrintWrong(d, "traced");
  const bool same = plain.done.size() == d.done.size() &&
                    SameVerdicts(plain, d, d.done.size());
  std::printf("[serve-writes] traced vs untraced verdicts over %zu and %zu "
              "completions: %s\n",
              plain.done.size(), d.done.size(), same ? "equal" : "DIFFERENT");
  uint64_t unexplained = 0;
  const Tally user = Summarize(d, d.done.size(), &unexplained);
  uint64_t fell_back = 0;
  FallbackLog failures;
  for (const Record& r : d.done) {
    fell_back += r.outcome.fell_back ? 1 : 0;
    if (!r.answered) failures.Add(r.outcome.status);
  }
  std::printf("[serve-writes] engine refusals (QueryServer falls back on "
              "UnsupportedOnDevice): %llu\n",
              static_cast<unsigned long long>(fell_back));
  failures.Print("serve-writes failures");

  report->Set("dbgen.generate_s", s.generate_s, "s");
  SetSpanMetrics(spans, report);
  SetEngineMetrics(s.engine.get(), static_cast<double>(s.engine->stats().queries),
                   evictions0, report);
  report->Set("engine.fallback_other", fell_back, "count");
  report->Set("serve.result_cache_hit_share",
              Per(d.cache_hits, static_cast<double>(d.done.size())), "share");
  report->Set("serve.queue_wait_ms_p95",
              Simulated(s, d, d.done.size()).queue_wait_p95, "sim_ms");
  report->Set("serve.shed", d.shed, "count");
  report->Set("serve.wrong_answers", user.wrong, "count");
  report->Set("trace.queries", d.done.size(), "count");
  const double plain_qps = plain.done.size() / plain.wall_s;
  const double traced_qps = d.done.size() / d.wall_s;
  report->Set("trace.overhead_share", 1 - traced_qps / plain_qps, "share");

  // Cold path, last because it empties the cache: load the scan working
  // set of the whole mix from the host tables.
  std::vector<Scan> working_set;
  for (const auto* mix : {&s.tpch_mix, &s.ssb_mix}) {
    for (const Key& k : *mix) {
      auto plan = s.db->PlanSql(Sql(k));
      if (!plan.ok()) continue;
      for (Scan& scan : CollectScans(plan.ValueOrDie())) {
        working_set.push_back(std::move(scan));
      }
    }
  }
  ColdLoad(s.engine.get(), *s.db, working_set, &spans, report);

  const Tally plain_user = Summarize(plain, plain.done.size(), &unexplained);
  report->attempted = plain_user.attempted + user.attempted + plain.shed +
                      d.shed + plain.submit_errors + d.submit_errors;
  report->failed = plain_user.failed() + user.failed() + plain.shed + d.shed +
                   plain.submit_errors + d.submit_errors;
  report->correct = same && unexplained == 0;
  if (!args.spans_out.empty()) {
    Status w = spans.Write(args.spans_out);
    if (!w.ok()) std::printf("%s\n", w.ToString().c_str());
  }
  return 0;
}

}  // namespace wallbench
