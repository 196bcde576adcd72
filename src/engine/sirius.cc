#include "engine/sirius.h"

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <unordered_set>

#include "gdf/asof.h"
#include "gdf/bloom.h"
#include "gdf/compute.h"
#include "gdf/copying.h"
#include "gdf/filter.h"
#include "gdf/groupby.h"
#include "gdf/join.h"
#include "gdf/selection.h"
#include "gdf/sort.h"
#include "host/cpu_executor.h"
#include "plan/substrait.h"

namespace sirius::engine {

using format::ColumnPtr;
using format::TablePtr;
using plan::PlanNode;
using plan::PlanPtr;

// Device-memory fault site: a firing check models an allocation failing in
// the processing region (the paper's GPU OOM, §3.4).
SIRIUS_FAULT_DEFINE_SITE(kSiteReserve, "engine.reserve");

SiriusEngine::SiriusEngine(host::Database* host_db, Options options)
    : host_db_(host_db),
      options_(options),
      tiers_(options.tier, options.injector != nullptr
                               ? options.injector
                               : fault::FaultInjector::Global()),
      buffer_manager_([&] {
        BufferManager::Options bm;
        bm.device_capacity_bytes = static_cast<uint64_t>(
            options.device.mem_capacity_gib * (1ull << 30));
        bm.cache_fraction = options.cache_fraction;
        bm.host_link = options.host_link;
        bm.processing_override = options.processing_override;
        bm.tiers = &tiers_;
        return bm;
      }()),
      task_pool_(static_cast<size_t>(options.num_task_threads)) {
  counters_.queries = metrics_.GetCounter("engine.queries");
  counters_.oom_events = metrics_.GetCounter("engine.oom_events");
  counters_.evictions_under_pressure =
      metrics_.GetCounter("engine.evictions_under_pressure");
  counters_.pipeline_retries = metrics_.GetCounter("engine.pipeline_retries");
  counters_.spill_events = metrics_.GetCounter("engine.spill_events");
  counters_.spill_host = metrics_.GetCounter("engine.spill.host");
  counters_.spill_nvme = metrics_.GetCounter("engine.spill.nvme");
  counters_.tier_loss_retries = metrics_.GetCounter("engine.tier_loss_retries");
  counters_.race_violations = metrics_.GetCounter("engine.race_violations");
  counters_.deadline_cancels = metrics_.GetCounter("engine.deadline_cancels");
  counters_.fused_stages = metrics_.GetCounter("engine.fused_stages");
  if (options_.use_custom_kernels) {
    // Hand-tuned kernel variants: modestly better join/group-by efficiency
    // than the stock libcudf-class implementations.
    options_.profile.join_eff *= 1.15;
    options_.profile.groupby_eff *= 1.2;
  }
  // A replaced table's cached columns go at the write, so they neither hold
  // modeled capacity nor report the old version resident.
  write_listener_ = host_db_->catalog().AddWriteListener(
      [this](const std::string& name) { buffer_manager_.DropTable(name); });
}

SiriusEngine::~SiriusEngine() {
  host_db_->catalog().RemoveWriteListener(write_listener_);
}

namespace {

/// Executes one compiled pipeline set against the device.
/// Hazard-tracker resource ids for materialized pipeline results live in a
/// namespace disjoint from LifetimeTracker generations (cache entries).
constexpr uint64_t kPipelineResourceBase = 1ull << 32;

uint64_t PipelineResource(int id) {
  return kPipelineResourceBase + static_cast<uint64_t>(id);
}

/// Plan join type -> gdf hash-join type (cross and ASOF joins run their own
/// kernels).
Result<gdf::JoinType> HashJoinType(plan::JoinType type) {
  switch (type) {
    case plan::JoinType::kInner:
      return gdf::JoinType::kInner;
    case plan::JoinType::kLeft:
      return gdf::JoinType::kLeft;
    case plan::JoinType::kSemi:
      return gdf::JoinType::kSemi;
    case plan::JoinType::kAnti:
      return gdf::JoinType::kAnti;
    case plan::JoinType::kCross:
    case plan::JoinType::kAsof:
      break;
  }
  return Status::Internal(std::string("no hash join for join type ") +
                          plan::JoinTypeName(type));
}

/// Round-trips GDF indices through the engine's row ids: Sirius keeps uint64
/// row ids, GDF (libcudf) gathers take int32, and both conversions are real
/// copies (§3.2.3's stated conversion boundary).
Status CrossIndexBoundary(std::vector<gdf::index_t>* indices,
                          const sim::SimContext& sim) {
  const std::vector<uint64_t> engine_rows =
      BufferManager::FromGdfIndices(*indices, sim);
  SIRIUS_ASSIGN_OR_RETURN(*indices,
                          BufferManager::ToGdfIndices(engine_rows, sim));
  return Status::OK();
}

/// An aggregate sink's output key names and gdf aggregate requests.
struct AggregateSpec {
  std::vector<std::string> key_names;
  std::vector<gdf::AggRequest> aggs;
};

AggregateSpec MakeAggregateSpec(const PlanNode& node) {
  AggregateSpec spec;
  for (size_t k = 0; k < node.group_by.size(); ++k) {
    spec.key_names.push_back(node.output_schema.field(k).name);
  }
  for (size_t a = 0; a < node.aggregates.size(); ++a) {
    gdf::AggRequest req;
    req.kind = host::ToGdfAgg(node.aggregates[a].func);
    req.column = node.aggregates[a].arg_column;
    req.name = node.output_schema.field(node.group_by.size() + a).name;
    spec.aggs.push_back(std::move(req));
  }
  return spec;
}

class PipelineRunner {
 public:
  /// Per-tier spill counters bumped alongside the `spill_events` aggregate.
  struct SpillCounters {
    obs::Counter* host = nullptr;
    obs::Counter* nvme = nullptr;
    obs::Counter* aggregate = nullptr;
  };

  PipelineRunner(const SiriusEngine::Options& options, BufferManager* bm,
                 host::Database* host_db, ThreadPool* pool,
                 fault::FaultInjector* injector, mem::TierManager* tiers,
                 SpillCounters spill_counters, obs::Counter* race_violations,
                 obs::TraceRecorder* trace, const ExecLimits* limits = nullptr,
                 obs::Counter* deadline_cancels = nullptr,
                 obs::Counter* fused_stages = nullptr)
      : options_(options),
        bm_(bm),
        host_db_(host_db),
        pool_(pool),
        injector_(injector),
        tiers_(tiers),
        spill_counters_(spill_counters),
        race_violations_(race_violations),
        trace_(trace),
        limits_(limits),
        deadline_cancels_(deadline_cancels),
        fused_stages_(fused_stages) {}

  /// True when the last Run failed (or degraded) because a spill tier was
  /// lost mid-spill; tells the evict-and-retry path apart from other
  /// Unavailable errors (which must not trigger a retry).
  bool tier_loss_seen() const {
    return spill_ != nullptr && spill_->tier_loss_seen();
  }

  /// `trace_base_s` places this run on the query-global simulated time
  /// axis (after the fixed query overhead; retries start after the failed
  /// run's charged time).
  Result<TablePtr> Run(const std::vector<Pipeline>& pipelines,
                       const std::vector<FusedStage>& stages, int result_id,
                       sim::Timeline* timeline, sim::KernelStats* kernels,
                       double trace_base_s = 0.0) {
    const size_t n = pipelines.size();
    stages_ = &stages;
    // Fresh spill state per run: a retry starts with empty lanes and no
    // residual tier-loss flag from the failed attempt.
    spill_ = std::make_unique<mem::SpillSession>(tiers_);
    results_.assign(n, nullptr);
    timelines_.assign(n, sim::Timeline());
    kstats_.assign(n, sim::KernelStats());
    remaining_deps_.assign(n, 0);
    dependents_.assign(n, {});
    start_s_.assign(n, trace_base_s);
    end_s_.assign(n, trace_base_s);
    run_base_s_ = trace_base_s;
    inflight_ = 0;
    error_ = Status::OK();
    if (trace_ != nullptr) {
      track_ids_.resize(n);
      for (size_t i = 0; i < n; ++i) {
        // Each pipeline executes as one simulated stream; RegisterTrack
        // dedups by name, so a retry run reuses the same lanes.
        track_ids_[i] = trace_->RegisterTrack("stream-" + std::to_string(i));
      }
    }

    if (options_.race_check) {
      // Each pipeline executes as one simulated stream; the dependency edges
      // of the pipeline DAG become recorded/awaited events. The tracker then
      // proves every cross-pipeline access is ordered — deterministically,
      // whatever the host thread pool's actual interleaving was.
      tracker_ = std::make_unique<sim::HazardTracker>();
      tracker_->set_enabled(true);
      tracker_->set_abort_on_violation(options_.race_check_abort);
      stream_ids_.resize(n);
      for (size_t i = 0; i < n; ++i) {
        stream_ids_[i] =
            tracker_->CreateStream("pipeline-" + std::to_string(i));
      }
      completion_events_.assign(n, -1);
    }

    for (const auto& p : pipelines) {
      remaining_deps_[p.id] = static_cast<int>(p.dependencies.size());
      for (int d : p.dependencies) dependents_[d].push_back(p.id);
    }
    // Enqueue initially-ready pipelines into the global task queue; idle
    // worker threads pull and execute them (paper §3.2.2).
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const auto& p : pipelines) {
        if (remaining_deps_[p.id] == 0) Enqueue(pipelines, p.id);
      }
    }
    {
      std::unique_lock<std::mutex> lock(mu_);
      done_cv_.wait(lock, [&] { return inflight_ == 0; });
      if (tracker_ != nullptr && race_violations_ != nullptr) {
        race_violations_->Add(tracker_->violation_count());
      }
      SIRIUS_RETURN_NOT_OK(error_);
      if (tracker_ != nullptr && tracker_->violation_count() > 0) {
        const auto v = tracker_->violations().front();
        return Status::ExecutionError(
            std::string("race check: ") +
            sim::HazardViolationKindName(v.kind) + " on resource " +
            std::to_string(v.resource) + ": " + v.detail);
      }
    }

    // Merge per-pipeline timelines deterministically (id order). Simulated
    // time models a single saturated device: work adds up.
    for (size_t i = 0; i < n; ++i) timeline->Append(timelines_[i]);
    if (kernels != nullptr) {
      for (size_t i = 0; i < n; ++i) kernels->Append(kstats_[i]);
    }
    if (results_[result_id] == nullptr) {
      return Status::Internal("result pipeline did not materialize");
    }
    return results_[result_id];
  }

 private:
  /// Caller holds mu_.
  void Enqueue(const std::vector<Pipeline>& pipelines, int id) {
    ++inflight_;
    // All dependencies have completed, so this pipeline's position on the
    // simulated time axis is decided: it starts when its last dependency
    // ends (dependency-driven start, concurrent with unrelated pipelines).
    start_s_[id] = run_base_s_;
    for (int dep : pipelines[id].dependencies) {
      start_s_[id] = std::max(start_s_[id], end_s_[dep]);
    }
    pool_->Submit([this, &pipelines, id] {
      WaitForDependencies(pipelines[id]);
      auto result = ExecutePipeline(pipelines[id]);
      std::lock_guard<std::mutex> lock(mu_);
      end_s_[id] = start_s_[id] + timelines_[id].total_seconds();
      if (result.ok()) {
        results_[id] = std::move(result).ValueOrDie();
        if (tracker_ != nullptr) {
          // Materializing the result is a write on this pipeline's stream;
          // the completion event is the edge dependents must wait on.
          tracker_->OnWrite(stream_ids_[id], PipelineResource(id),
                            "materialize pipeline " + std::to_string(id));
          completion_events_[id] = tracker_->RecordEvent(stream_ids_[id]);
        }
        if (error_.ok()) {
          for (int dep : dependents_[id]) {
            if (--remaining_deps_[dep] == 0) Enqueue(pipelines, dep);
          }
        }
      } else if (error_.ok()) {
        error_ = result.status();  // first error wins; no new tasks start
      }
      --inflight_;
      done_cv_.notify_all();
    });
  }

  /// Replays the pipeline's dependency edges as stream-event waits; after
  /// this, every access the dependency materialized happens-before us.
  void WaitForDependencies(const Pipeline& p) {
    if (tracker_ == nullptr) return;
    std::lock_guard<std::mutex> lock(mu_);
    for (int dep : p.dependencies) {
      if (completion_events_[dep] >= 0) {
        tracker_->StreamWaitEvent(stream_ids_[p.id], completion_events_[dep]);
      }
    }
  }

  sim::SimContext MakeSim(int id) {
    sim::SimContext sim;
    sim.device = options_.device;
    sim.engine = options_.profile;
    sim.timeline = &timelines_[id];
    sim.kernel_stats = &kstats_[id];
    sim.data_scale = options_.data_scale;
    if (tracker_ != nullptr) {
      sim.stream = stream_ids_[id];
      sim.hazards = tracker_.get();
    }
    if (trace_ != nullptr) {
      sim.trace = trace_;
      sim.track = track_ids_[id];
      sim.trace_base = start_s_[id];
    }
    return sim;
  }

  /// Deadline / cancel-flag poll, called between units of charged work. The
  /// deadline compares the pipeline's position on the query-global simulated
  /// axis, so a trip is deterministic for a given plan and cache state and
  /// the partial work stays charged (cancellation costs simulated time).
  Status CheckLimits(const Pipeline& p) {
    if (limits_ == nullptr) return Status::OK();
    if (limits_->cancel != nullptr &&
        limits_->cancel->load(std::memory_order_relaxed)) {
      if (deadline_cancels_ != nullptr) deadline_cancels_->Add();
      return Status::Timeout("query cancelled mid-pipeline (pipeline " +
                             std::to_string(p.id) + ")");
    }
    if (limits_->deadline_s > 0) {
      const double elapsed_s =
          start_s_[p.id] + timelines_[p.id].total_seconds();
      if (elapsed_s > limits_->deadline_s) {
        if (deadline_cancels_ != nullptr) deadline_cancels_->Add();
        return Status::Timeout(
            "deadline of " + std::to_string(limits_->deadline_s) +
            "s (simulated) exceeded mid-pipeline (pipeline " +
            std::to_string(p.id) + ")");
      }
    }
    return Status::OK();
  }

  Result<TablePtr> ExecutePipeline(const Pipeline& p) {
    SIRIUS_RETURN_NOT_OK(CheckLimits(p));
    gdf::Context ctx;
    ctx.mr = bm_->processing_resource();
    ctx.sim = MakeSim(p.id);
    obs::Span pipeline_span(trace_,
                            trace_ != nullptr ? track_ids_[p.id] : 0,
                            "pipeline-" + std::to_string(p.id), "pipeline",
                            ctx.sim.TraceClock());

    TablePtr current;
    if (p.source_scan != nullptr) {
      SIRIUS_ASSIGN_OR_RETURN(current, RunScan(p, ctx));
    } else if (p.source_pipeline >= 0) {
      current = results_[p.source_pipeline];
      if (current == nullptr) {
        return Status::Internal("source pipeline did not materialize");
      }
      ctx.sim.NoteRead(PipelineResource(p.source_pipeline),
                       "source of pipeline " + std::to_string(p.id));
      SIRIUS_ASSIGN_OR_RETURN(
          current, RunChain(p, std::move(current), /*scanned=*/false,
                            /*batch=*/false, ctx));
    } else {
      return Status::Internal("pipeline without source");
    }
    SIRIUS_RETURN_NOT_OK(DrainSpill(p, ctx));
    return current;
  }

  /// Pipeline-end barrier on the spill lane: every outstanding prefetch must
  /// land before the result is final. Compute pays only the remaining drain
  /// (transfers overlapped with the steps that ran since the round trip);
  /// a tier lost mid-spill surfaces here as Unavailable.
  Status DrainSpill(const Pipeline& p, const gdf::Context& ctx) {
    if (spill_ == nullptr) return Status::OK();
    const double now = start_s_[p.id] + timelines_[p.id].total_seconds();
    SIRIUS_ASSIGN_OR_RETURN(const double drain, spill_->Join(p.id, now));
    if (drain > 0) {
      const double t0 = ctx.sim.TraceNow();
      ctx.sim.ChargeSeconds(sim::OpCategory::kOther, drain);
      if (trace_ != nullptr) {
        trace_->AddComplete(track_ids_[p.id], "spill-drain", "mem", t0,
                            t0 + drain);
      }
    }
    return Status::OK();
  }

  /// True when `p` runs as one fused pass (this run's stage decision).
  bool Fused(const Pipeline& p) const {
    return (*stages_)[p.id].exec == StageExec::kFused;
  }

  /// Scan source, including the §3.4 out-of-core batch mode: inputs that do
  /// not fit the caching region stream from host memory in batches, each
  /// charged its host-link transfer and pushed through the chain up to the
  /// morsel boundary; the concatenated batches then go through the sink.
  Result<TablePtr> RunScan(const Pipeline& p, const gdf::Context& ctx) {
    const PlanNode& scan = *p.source_scan;
    SIRIUS_ASSIGN_OR_RETURN(TablePtr host_table,
                            host_db_->catalog().GetTable(scan.table_name));
    uint64_t scanned_raw = 0;
    for (int c : scan.scan_columns) {
      scanned_raw += host_table->column(c)->MemoryUsage();
    }
    const uint64_t modeled_bytes =
        static_cast<uint64_t>(static_cast<double>(scanned_raw) *
                              ctx.sim.data_scale);
    const uint64_t compressed_bytes = static_cast<uint64_t>(
        static_cast<double>(modeled_bytes) / bm_->compression_ratio());

    if (compressed_bytes <= bm_->cache_capacity_bytes() ||
        !options_.out_of_core) {
      // The buffer manager charges the scan read (compressed bytes + decode).
      SIRIUS_ASSIGN_OR_RETURN(
          TablePtr current,
          bm_->GetOrCacheColumns(scan.table_name, host_table,
                                 scan.scan_columns, ctx.sim));
      return RunChain(p, std::move(current), /*scanned=*/true,
                      /*batch=*/false, ctx);
    }

    // Batch execution: split the input so each modeled batch fits in half
    // of the caching region, stream each batch over the host link.
    const uint64_t budget = bm_->cache_capacity_bytes() / 2;
    const size_t num_batches = static_cast<size_t>(
        (modeled_bytes + budget - 1) / budget);
    const size_t rows_per_batch =
        (host_table->num_rows() + num_batches - 1) / num_batches;
    std::vector<TablePtr> outputs;
    for (size_t offset = 0; offset < host_table->num_rows();
         offset += rows_per_batch) {
      SIRIUS_ASSIGN_OR_RETURN(
          TablePtr batch,
          gdf::SliceTable(ctx, host_table, offset, rows_per_batch));
      SIRIUS_ASSIGN_OR_RETURN(batch, batch->SelectColumns(scan.scan_columns));
      ctx.sim.ChargeSeconds(sim::OpCategory::kScan,
                            options_.host_link.TransferSeconds(
                                batch->MemoryUsage(), ctx.sim.data_scale));
      SIRIUS_ASSIGN_OR_RETURN(
          batch, RunChain(p, std::move(batch), /*scanned=*/true,
                          /*batch=*/true, ctx));
      outputs.push_back(std::move(batch));
    }
    TablePtr all;
    if (outputs.size() == 1) {
      all = outputs[0];
    } else {
      SIRIUS_ASSIGN_OR_RETURN(all, gdf::ConcatTables(ctx, outputs));
      SIRIUS_RETURN_NOT_OK(CheckProcessingFit(all, p, ctx));
    }
    return RunSink(p, std::move(all), ctx);
  }

  /// The one runner body: pushes `input` through the pipeline's steps and
  /// sink, either as one fused pass (selection vectors between the steps,
  /// the sink the only materialization point) or step at a time (each step
  /// gathers its full output). An out-of-core `batch` stops at the morsel
  /// boundary, a real materialization; the caller sinks the concatenation.
  /// `scanned` input was just read by the scan (or transferred on-device),
  /// so a fused pass starts with its columns register-resident.
  Result<TablePtr> RunChain(const Pipeline& p, TablePtr input, bool scanned,
                            bool batch, const gdf::Context& ctx) {
    if (!Fused(p)) {
      SIRIUS_ASSIGN_OR_RETURN(input, RunSteps(p, std::move(input), ctx));
      if (batch) return input;
      return RunSink(p, std::move(input), ctx);
    }
    gdf::SelectionView view = gdf::SelectionView::FromTable(input);
    // One register-residency scope for the chain + its sink: every input
    // column is charged once for the whole fused kernel.
    std::unordered_set<const format::Column*> resident;
    if (scanned) {
      for (const auto& c : input->columns()) resident.insert(c.get());
    }
    gdf::Context fctx = ctx;
    fctx.fused_reads = &resident;
    SIRIUS_RETURN_NOT_OK(FusedPass(p, &view, fctx));
    if (batch) return MaterializeFused(p, view, fctx);
    return RunSinkFused(p, view, fctx);
  }

  /// Schema of the fused chain's logical output (the last step's node).
  /// Fused stages always have steps (the compiler refuses empty chains).
  static const format::Schema& StepOutputSchema(const Pipeline& p) {
    return p.steps.back().node->output_schema;
  }

  /// Gathers a fused chain's view into a table. This is a real
  /// materialization point (an out-of-core morsel boundary or the sink
  /// gather): the table must fit the processing region like any
  /// materialized intermediate, and overflows take the same tiered spill
  /// round trip (§3.4).
  Result<TablePtr> MaterializeFused(const Pipeline& p,
                                    const gdf::SelectionView& view,
                                    const gdf::Context& ctx) {
    SIRIUS_ASSIGN_OR_RETURN(
        TablePtr t, gdf::MaterializeView(ctx, view, StepOutputSchema(p),
                                         sim::OpCategory::kOther));
    SIRIUS_RETURN_NOT_OK(CheckProcessingFit(t, p, ctx));
    return t;
  }

  /// One fused pass over the chain: selection vectors flow between the
  /// operators, nothing gathers until the sink. The whole chain is one
  /// kernel for launch accounting; the per-op kernel spans are suppressed
  /// and replaced by a single "fused-stage" span carrying `fused_ops`.
  Status FusedPass(const Pipeline& p, gdf::SelectionView* view,
                   const gdf::Context& ctx) {
    const double t0 = ctx.sim.TraceNow();
    gdf::Context inner = ctx;
    inner.sim.trace = nullptr;
    sim::KernelCost launch;
    launch.ops_per_row = 0;
    launch.launches = 1;
    inner.sim.Charge(sim::OpCategory::kOther, launch);

    for (const auto& step : p.steps) {
      switch (step.kind) {
        case StepKind::kFilter: {
          SIRIUS_ASSIGN_OR_RETURN(
              ColumnPtr mask,
              gdf::ComputeColumnView(inner, *step.node->predicate, *view,
                                     sim::OpCategory::kFilter));
          SIRIUS_ASSIGN_OR_RETURN(std::vector<gdf::index_t> sel,
                                  gdf::MaskToSelection(inner, mask));
          // The selection refines the view instead of gathering.
          SIRIUS_RETURN_NOT_OK(CrossIndexBoundary(&sel, inner.sim));
          SIRIUS_RETURN_NOT_OK(
              gdf::RefineView(inner, view, sel, sim::OpCategory::kFilter));
          break;
        }
        case StepKind::kProject: {
          std::vector<ColumnPtr> cols;
          for (const auto& e : step.node->projections) {
            SIRIUS_ASSIGN_OR_RETURN(
                ColumnPtr c, gdf::ComputeColumnView(inner, *e, *view,
                                                    sim::OpCategory::kProject));
            cols.push_back(std::move(c));
          }
          SIRIUS_ASSIGN_OR_RETURN(
              TablePtr t,
              format::Table::Make(step.node->output_schema, std::move(cols)));
          // Computed columns are already compact; the view restarts dense.
          view->ResetToTable(std::move(t));
          break;
        }
        case StepKind::kProbeJoin: {
          SIRIUS_RETURN_NOT_OK(ProbeFused(p, step, view, inner));
          break;
        }
        case StepKind::kCrossJoin:
          return Status::Internal("cross join cannot run fused");
      }
      SIRIUS_RETURN_NOT_OK(
          CheckProcessingFitBytes(view->SelectionBytes(), p, inner));
      SIRIUS_RETURN_NOT_OK(CheckLimits(p));
    }
    if (trace_ != nullptr) {
      const double charged = ctx.sim.TraceNow() - t0;
      trace_->AddComplete(
          track_ids_[p.id], "fused-stage", "kernel", t0, t0 + charged,
          {{"fused_ops", static_cast<double>(p.steps.size())},
           {"charged_s", charged},
           {"predicted_s", charged}});
    }
    if (fused_stages_ != nullptr) fused_stages_->Add();
    return Status::OK();
  }

  /// Fused join probe: gathers only the probe-side key columns through the
  /// view, hash-joins against the materialized build side, and composes the
  /// pair lists back into the view (probe side refined, build side appended
  /// as a new segment) — the full-width gathers the materialized path pays
  /// are deferred to the sink.
  Status ProbeFused(const Pipeline& p, const Step& step,
                    gdf::SelectionView* view, const gdf::Context& ctx) {
    const PlanNode& node = *step.node;
    TablePtr build = results_[step.build_pipeline];
    if (build == nullptr) {
      return Status::Internal("build side not materialized");
    }
    ctx.sim.NoteRead(PipelineResource(step.build_pipeline),
                     "build side probed by pipeline " + std::to_string(p.id));
    std::vector<ColumnPtr> lkeys, rkeys;
    for (int k : node.left_keys) {
      SIRIUS_ASSIGN_OR_RETURN(
          ColumnPtr c,
          gdf::GatherViewColumn(ctx, *view, k, sim::OpCategory::kJoin));
      lkeys.push_back(std::move(c));
    }
    for (int k : node.right_keys) rkeys.push_back(build->column(k));

    // Predicate transfer stays selection-shaped in a fused pass: the Bloom
    // test emits a selection that refines the view; no gathered probe table.
    if (options_.predicate_transfer &&
        node.join_type == plan::JoinType::kInner && node.left_keys.size() == 1 &&
        build->num_rows() * 2 < view->num_rows()) {
      SIRIUS_ASSIGN_OR_RETURN(
          std::vector<gdf::index_t> keep,
          gdf::BloomPrefilterSelection(ctx, lkeys[0], rkeys[0]));
      if (keep.size() < view->num_rows()) {
        SIRIUS_RETURN_NOT_OK(
            gdf::RefineView(ctx, view, keep, sim::OpCategory::kJoin));
        // Compact the gathered key alongside the view; the Bloom charge
        // already covered writing the surviving keys.
        SIRIUS_ASSIGN_OR_RETURN(
            lkeys[0], gdf::GatherColumnUncharged(ctx, lkeys[0], keep));
      }
    }

    gdf::JoinOptions joptions;
    SIRIUS_ASSIGN_OR_RETURN(joptions.type, HashJoinType(node.join_type));
    SIRIUS_ASSIGN_OR_RETURN(gdf::JoinResult pairs,
                            gdf::HashJoin(ctx, lkeys, rkeys, joptions));
    SIRIUS_RETURN_NOT_OK(CrossIndexBoundary(&pairs.left_indices, ctx.sim));
    const bool emits_right = node.join_type == plan::JoinType::kInner ||
                             node.join_type == plan::JoinType::kLeft;
    return gdf::ApplyJoinToView(
        ctx, view, pairs, build, emits_right,
        /*nullable_right=*/node.join_type == plan::JoinType::kLeft,
        sim::OpCategory::kJoin);
  }

  /// Sink of a fused stage: the view's one materialization point. Aggregates
  /// consume the view directly (only referenced columns gather); limits
  /// refine the selection before gathering; everything else materializes the
  /// view and delegates to the existing sink kernel.
  Result<TablePtr> RunSinkFused(const Pipeline& p,
                                const gdf::SelectionView& view,
                                const gdf::Context& ctx) {
    switch (p.sink) {
      case SinkKind::kAggregate: {
        const PlanNode& node = *p.sink_node;
        const AggregateSpec spec = MakeAggregateSpec(node);
        return gdf::GroupByAggregateView(ctx, view, node.group_by,
                                         spec.key_names, spec.aggs);
      }
      case SinkKind::kLimit: {
        // The limit refines the selection before the chain's single gather,
        // so only the surviving rows ever materialize.
        const PlanNode& node = *p.sink_node;
        const size_t start =
            std::min(static_cast<size_t>(node.offset), view.num_rows());
        const size_t count =
            node.limit < 0 ? view.num_rows() - start
                           : std::min(static_cast<size_t>(node.limit),
                                      view.num_rows() - start);
        std::vector<gdf::index_t> sel(count);
        for (size_t i = 0; i < count; ++i) {
          sel[i] = static_cast<gdf::index_t>(start + i);
        }
        gdf::SelectionView sliced = view;
        SIRIUS_RETURN_NOT_OK(
            gdf::RefineView(ctx, &sliced, sel, sim::OpCategory::kOther));
        return gdf::MaterializeView(ctx, sliced, StepOutputSchema(p),
                                    sim::OpCategory::kOther);
      }
      default: {
        SIRIUS_ASSIGN_OR_RETURN(TablePtr t, MaterializeFused(p, view, ctx));
        return RunSink(p, std::move(t), ctx);
      }
    }
  }

  Result<TablePtr> RunSteps(const Pipeline& p, TablePtr current,
                            const gdf::Context& ctx) {
    for (const auto& step : p.steps) {
      switch (step.kind) {
        case StepKind::kFilter: {
          SIRIUS_ASSIGN_OR_RETURN(
              ColumnPtr mask,
              gdf::ComputeColumn(ctx, *step.node->predicate, current,
                                 sim::OpCategory::kFilter));
          SIRIUS_ASSIGN_OR_RETURN(std::vector<gdf::index_t> sel,
                                  gdf::MaskToIndices(ctx, mask));
          SIRIUS_RETURN_NOT_OK(CrossIndexBoundary(&sel, ctx.sim));
          SIRIUS_ASSIGN_OR_RETURN(
              current,
              gdf::GatherTable(ctx, current, sel, sim::OpCategory::kFilter));
          break;
        }
        case StepKind::kProject: {
          std::vector<ColumnPtr> cols;
          for (const auto& e : step.node->projections) {
            SIRIUS_ASSIGN_OR_RETURN(
                ColumnPtr c, gdf::ComputeColumn(ctx, *e, current,
                                                sim::OpCategory::kProject));
            cols.push_back(std::move(c));
          }
          SIRIUS_ASSIGN_OR_RETURN(
              current,
              format::Table::Make(step.node->output_schema, std::move(cols)));
          break;
        }
        case StepKind::kProbeJoin:
        case StepKind::kCrossJoin: {
          TablePtr build = results_[step.build_pipeline];
          if (build == nullptr) {
            return Status::Internal("build side not materialized");
          }
          ctx.sim.NoteRead(PipelineResource(step.build_pipeline),
                           "build side probed by pipeline " +
                               std::to_string(p.id));
          SIRIUS_ASSIGN_OR_RETURN(current,
                                  Probe(*step.node, current, build, ctx));
          break;
        }
      }
      SIRIUS_RETURN_NOT_OK(CheckProcessingFit(current, p, ctx));
      SIRIUS_RETURN_NOT_OK(CheckLimits(p));
    }
    return current;
  }

  Result<TablePtr> Probe(const PlanNode& node, TablePtr left, TablePtr right,
                         const gdf::Context& ctx) {
    // Predicate transfer (§3.4, [29, 30]): when the build side is selective,
    // a Bloom filter on its key cheaply pre-filters the probe input. False
    // positives are harmless — the hash join re-checks exactly.
    if (options_.predicate_transfer && node.join_type == plan::JoinType::kInner &&
        node.left_keys.size() == 1 &&
        right->num_rows() * 2 < left->num_rows()) {
      SIRIUS_ASSIGN_OR_RETURN(
          left, gdf::BloomPrefilter(ctx, left, node.left_keys,
                                    right->column(node.right_keys[0])));
    }
    gdf::JoinResult pairs;
    if (node.join_type == plan::JoinType::kCross) {
      SIRIUS_ASSIGN_OR_RETURN(
          pairs, gdf::CrossJoin(ctx, left->num_rows(), right->num_rows()));
    } else if (node.join_type == plan::JoinType::kAsof) {
      std::vector<ColumnPtr> lby, rby;
      for (int k : node.left_keys) lby.push_back(left->column(k));
      for (int k : node.right_keys) rby.push_back(right->column(k));
      SIRIUS_ASSIGN_OR_RETURN(
          pairs, gdf::AsofJoin(ctx, left->column(node.asof_left_on),
                               right->column(node.asof_right_on), lby, rby));
    } else {
      std::vector<ColumnPtr> lkeys, rkeys;
      for (int k : node.left_keys) lkeys.push_back(left->column(k));
      for (int k : node.right_keys) rkeys.push_back(right->column(k));
      gdf::JoinOptions options;
      SIRIUS_ASSIGN_OR_RETURN(options.type, HashJoinType(node.join_type));
      if (node.residual != nullptr) {
        options.residual = node.residual.get();
        options.left_table = left;
        options.right_table = right;
      }
      SIRIUS_ASSIGN_OR_RETURN(pairs, gdf::HashJoin(ctx, lkeys, rkeys, options));
    }
    SIRIUS_RETURN_NOT_OK(CrossIndexBoundary(&pairs.left_indices, ctx.sim));

    const bool emits_right = node.join_type == plan::JoinType::kInner ||
                             node.join_type == plan::JoinType::kLeft ||
                             node.join_type == plan::JoinType::kCross ||
                             node.join_type == plan::JoinType::kAsof;
    SIRIUS_ASSIGN_OR_RETURN(
        TablePtr lg, gdf::GatherTable(ctx, left, pairs.left_indices,
                                      sim::OpCategory::kJoin));
    std::vector<ColumnPtr> cols = lg->columns();
    if (emits_right) {
      SIRIUS_ASSIGN_OR_RETURN(
          TablePtr rg,
          gdf::GatherTable(ctx, right, pairs.right_indices, sim::OpCategory::kJoin,
                           /*nulls_for_negative=*/node.join_type ==
                                   plan::JoinType::kLeft ||
                               node.join_type == plan::JoinType::kAsof));
      for (const auto& c : rg->columns()) cols.push_back(c);
    }
    return format::Table::Make(node.output_schema, std::move(cols));
  }

  Result<TablePtr> RunSink(const Pipeline& p, TablePtr current,
                           const gdf::Context& ctx) {
    switch (p.sink) {
      case SinkKind::kMaterialize:
        return current;
      case SinkKind::kAggregate: {
        const PlanNode& node = *p.sink_node;
        std::vector<ColumnPtr> keys;
        for (int k : node.group_by) keys.push_back(current->column(k));
        const AggregateSpec spec = MakeAggregateSpec(node);
        return gdf::GroupByAggregate(ctx, keys, spec.key_names, current,
                                     spec.aggs);
      }
      case SinkKind::kSort: {
        const PlanNode& node = *p.sink_node;
        std::vector<int> cols;
        std::vector<bool> desc;
        for (const auto& k : node.sort_keys) {
          cols.push_back(k.column);
          desc.push_back(k.descending);
        }
        return gdf::SortTable(ctx, current, cols, desc);
      }
      case SinkKind::kDistinct: {
        if (current->num_columns() == 0) return current;
        SIRIUS_ASSIGN_OR_RETURN(std::vector<gdf::index_t> indices,
                                gdf::DistinctIndices(ctx, current->columns()));
        return gdf::GatherTable(ctx, current, indices,
                                sim::OpCategory::kGroupBy);
      }
      case SinkKind::kLimit: {
        const PlanNode& node = *p.sink_node;
        size_t limit = node.limit < 0 ? current->num_rows()
                                      : static_cast<size_t>(node.limit);
        return gdf::SliceTable(ctx, current, static_cast<size_t>(node.offset),
                               limit);
      }
      case SinkKind::kExchange:
        // Single-node deployments bypass the exchange layer (§3.2.4).
        return current;
    }
    return Status::Internal("unknown sink");
  }

  Status CheckProcessingFit(const TablePtr& t, const Pipeline& p,
                            const gdf::Context& ctx) const {
    return CheckProcessingFitBytes(t->MemoryUsage(), p, ctx);
  }

  /// Bytes-based fit check shared by both execution modes: materialized
  /// stages check the gathered intermediate, fused stages check the live
  /// selection-vector state (their only per-step allocation).
  Status CheckProcessingFitBytes(uint64_t raw_bytes, const Pipeline& p,
                                 const gdf::Context& ctx) const {
    const uint64_t modeled = static_cast<uint64_t>(
        static_cast<double>(raw_bytes) * ctx.sim.data_scale);
    // The injector models an allocation failing under pressure even when
    // the capacity pre-check would pass.
    Status st = injector_->Check(kSiteReserve);
    if (st.ok()) st = bm_->ReserveProcessing(modeled);
    if (st.ok() && limits_ != nullptr && limits_->reservation != nullptr) {
      // Per-query accounting: intermediates beyond the admission-time
      // estimate grow the query's reservation; refusal means the serving
      // layer's budget is exhausted, not the device.
      std::lock_guard<std::mutex> lock(reservation_mu_);
      st = limits_->reservation->EnsureAtLeast(modeled);
    }
    if (!st.ok() && st.IsOutOfMemory() && options_.out_of_core) {
      // §3.4 spilling, tiered: the overflow is staged on the first surviving
      // tier with room (pinned host, then NVMe) as an asynchronous round
      // trip on this pipeline's spill lane. Compute pays backpressure when
      // the lane is still busy, not the transfer itself; the remaining
      // drain is charged at pipeline end (DrainSpill). Each byte is charged
      // to the tenant's spill quota, and tier exhaustion is a diagnosable
      // ResourceExhausted instead of unbounded host growth.
      const uint64_t overflow = modeled > bm_->processing_capacity_bytes()
                                    ? modeled - bm_->processing_capacity_bytes()
                                    : modeled;
      const double now = start_s_[p.id] + timelines_[p.id].total_seconds();
      Result<mem::SpillSession::Ticket> trip = spill_->RoundTrip(
          p.id, overflow, now, limits_ != nullptr ? limits_->spill : nullptr,
          ctx.sim.hazards, ctx.sim.stream);
      if (!trip.ok()) return trip.status();
      const mem::SpillSession::Ticket& tk = trip.ValueOrDie();
      if (tk.stall_s > 0) {
        ctx.sim.ChargeSeconds(sim::OpCategory::kOther, tk.stall_s);
      }
      if (spill_counters_.aggregate != nullptr) spill_counters_.aggregate->Add();
      obs::Counter* per_tier = tk.tier == mem::Tier::kHost
                                   ? spill_counters_.host
                                   : spill_counters_.nvme;
      if (per_tier != nullptr) per_tier->Add();
      if (trace_ != nullptr) {
        trace_->AddCounter("engine.spill_events");
        trace_->AddCounter(std::string("engine.spill.") +
                           mem::TierName(tk.tier));
      }
      return Status::OK();
    }
    return st;
  }

  const SiriusEngine::Options& options_;
  BufferManager* bm_;
  host::Database* host_db_;
  ThreadPool* pool_;
  fault::FaultInjector* injector_;
  mem::TierManager* tiers_;
  SpillCounters spill_counters_;
  /// Per-run spill state; lanes are per-pipeline, so concurrent pipelines
  /// never share an overlap horizon (determinism).
  std::unique_ptr<mem::SpillSession> spill_;
  obs::Counter* race_violations_;
  obs::TraceRecorder* trace_;
  const ExecLimits* limits_;
  obs::Counter* deadline_cancels_;
  obs::Counter* fused_stages_;
  /// Per-pipeline fused-stage decisions for the current Run (not owned).
  const std::vector<FusedStage>* stages_ = nullptr;
  /// Reservation growth is cross-pipeline (the Reservation is per-query,
  /// not per-stream); serialize it independently of the scheduler lock.
  mutable std::mutex reservation_mu_;

  std::mutex mu_;
  std::condition_variable done_cv_;
  std::vector<TablePtr> results_;
  std::vector<sim::Timeline> timelines_;
  std::vector<sim::KernelStats> kstats_;
  std::vector<int> remaining_deps_;
  std::vector<std::vector<int>> dependents_;
  /// Trace layout: lane per pipeline, dependency-driven start/end offsets
  /// on the query-global simulated time axis.
  std::vector<obs::TrackId> track_ids_;
  std::vector<double> start_s_;
  std::vector<double> end_s_;
  double run_base_s_ = 0.0;
  size_t inflight_ = 0;
  Status error_;

  /// Race-check state (race_check option); null when checking is off.
  std::unique_ptr<sim::HazardTracker> tracker_;
  std::vector<sim::StreamId> stream_ids_;
  std::vector<sim::EventId> completion_events_;
};

/// Re-materializes `t` into default host memory. Result tables can outlive
/// the engine (and its processing pool), so they must not alias pool-backed
/// buffers. Untimed: the copy-out is not part of the modeled query.
Result<TablePtr> CopyOutResult(const TablePtr& t) {
  if (t->num_rows() > static_cast<size_t>(INT32_MAX)) return t;
  gdf::Context ctx;  // default resource, no timeline
  std::vector<gdf::index_t> idx(t->num_rows());
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = static_cast<gdf::index_t>(i);
  return gdf::GatherTable(ctx, t, idx, sim::OpCategory::kOther);
}

}  // namespace

Result<host::QueryResult> SiriusEngine::ExecuteSubstrait(
    const std::string& plan_text) {
  auto resolver = [this](const std::string& name) {
    return host_db_->catalog().GetTableSchema(name);
  };
  SIRIUS_ASSIGN_OR_RETURN(PlanPtr plan,
                          plan::DeserializePlan(plan_text, resolver));
  return ExecutePlan(plan);
}

Result<host::QueryResult> SiriusEngine::ExecutePlan(const PlanPtr& plan) {
  return ExecutePlan(plan, ExecLimits{});
}

Result<host::QueryResult> SiriusEngine::ExecutePlan(const PlanPtr& plan,
                                                    const ExecLimits& limits) {
  SIRIUS_RETURN_NOT_OK(options_.capabilities.Check(*plan));
  std::vector<Pipeline> pipelines;
  SIRIUS_ASSIGN_OR_RETURN(int result_id,
                          PipelineCompiler::Compile(plan, &pipelines));

  counters_.queries->Add();
  host::QueryResult result;
  result.optimized_plan = plan;
  result.timeline.Charge(sim::OpCategory::kOther,
                         options_.profile.fixed_query_overhead_s);

  std::shared_ptr<obs::TraceRecorder> recorder;
  if (options_.tracing) {
    obs::TraceRecorder::Options topt;
    topt.capacity = options_.trace_capacity;
    topt.unbounded = options_.detailed_trace;
    recorder = std::make_shared<obs::TraceRecorder>(topt);
    const obs::TrackId engine_track = recorder->RegisterTrack("engine");
    recorder->AddComplete(engine_track, "query-overhead", "engine", 0.0,
                          options_.profile.fixed_query_overhead_s);
  }

  const std::vector<FusedStage> stages =
      FusedStageCompiler::Compile(pipelines, options_.fusion);

  PipelineRunner::SpillCounters spill_counters;
  spill_counters.host = counters_.spill_host;
  spill_counters.nvme = counters_.spill_nvme;
  spill_counters.aggregate = counters_.spill_events;
  PipelineRunner runner(options_, &buffer_manager_, host_db_, &task_pool_,
                        injector(), &tiers_, spill_counters,
                        counters_.race_violations, recorder.get(),
                        limits.any() ? &limits : nullptr,
                        counters_.deadline_cancels, counters_.fused_stages);
  auto run = [&] {
    return runner.Run(pipelines, stages, result_id, &result.timeline,
                      &result.kernels, result.timeline.total_seconds());
  };
  // One more run after dropping the caching region (base columns re-load
  // from the host), marked in the trace by `counter` and an `instant`.
  auto evict_and_rerun = [&](const char* counter, const char* instant) {
    counters_.evictions_under_pressure->Add(buffer_manager_.EvictAll());
    counters_.pipeline_retries->Add();
    if (recorder != nullptr) {
      recorder->AddCounter(counter);
      recorder->AddInstant(recorder->RegisterTrack("engine"), instant,
                           "engine", result.timeline.total_seconds());
    }
    return run();
  };
  Result<TablePtr> table = run();
  if (!table.ok() && table.status().IsOutOfMemory()) {
    counters_.oom_events->Add();
    // Device-memory pressure recovery: one more chance before the host
    // falls back to its CPU engine (§3.4).
    if (options_.retry_after_evict) {
      table = evict_and_rerun("engine.pipeline_retries", "oom-evict-retry");
    }
  } else if (!table.ok() && table.status().IsUnavailable() &&
             runner.tier_loss_seen() && options_.retry_after_evict) {
    // Mid-spill tier loss: revive the lost tiers (a transient loss heals;
    // a persistent fault re-fires on the next placement), drop the cache,
    // and re-run once on the survivors — the same one-retry contract as the
    // OOM path. A second loss propagates, so the serving layer can re-admit
    // the query or the host can fall back to its CPU engine.
    tiers_.ReviveLostTiers();
    counters_.tier_loss_retries->Add();
    table = evict_and_rerun("engine.tier_loss_retries", "tier-loss-retry");
  }
  tiers_.PublishGauges(&metrics_);
  SIRIUS_ASSIGN_OR_RETURN(result.table, std::move(table));
  SIRIUS_ASSIGN_OR_RETURN(result.table, CopyOutResult(result.table));
  result.accelerated = true;
  if (recorder != nullptr) {
    recorder->AddComplete(recorder->RegisterTrack("engine"), "query", "engine",
                          0.0, result.timeline.total_seconds());
    result.profile =
        std::make_shared<obs::QueryProfile>(recorder->Finish());
  }
  return result;
}

SiriusEngine::Stats SiriusEngine::stats() const {
  const auto snap = metrics_.Snapshot();
  auto get = [&snap](const char* name) -> uint64_t {
    auto it = snap.find(name);
    return it == snap.end() ? 0 : it->second;
  };
  Stats s;
  s.queries = get("engine.queries");
  s.oom_events = get("engine.oom_events");
  s.evictions_under_pressure = get("engine.evictions_under_pressure");
  s.pipeline_retries = get("engine.pipeline_retries");
  s.spill_events = get("engine.spill_events");
  s.spill_host = get("engine.spill.host");
  s.spill_nvme = get("engine.spill.nvme");
  s.tier_loss_retries = get("engine.tier_loss_retries");
  s.race_violations = get("engine.race_violations");
  s.deadline_cancels = get("engine.deadline_cancels");
  s.fused_stages = get("engine.fused_stages");
  return s;
}

void SiriusEngine::ResetStats() { metrics_.Reset(); }

Result<format::TablePtr> SiriusEngine::VectorSearch(
    const std::string& table_name, const std::string& embedding_column,
    const std::vector<double>& query, size_t k, gdf::Metric metric,
    sim::Timeline* timeline) {
  SIRIUS_ASSIGN_OR_RETURN(format::TablePtr host_table,
                          host_db_->catalog().GetTable(table_name));
  const int emb_idx = host_table->schema().IndexOf(embedding_column);
  if (emb_idx < 0) {
    return Status::KeyError("no column '" + embedding_column + "' in '" +
                            table_name + "'");
  }
  gdf::Context ctx;
  ctx.mr = buffer_manager_.processing_resource();
  ctx.sim.device = options_.device;
  ctx.sim.engine = options_.profile;
  ctx.sim.timeline = timeline;
  ctx.sim.data_scale = options_.data_scale;

  // All columns participate in the result; cache them like a scan would.
  std::vector<int> all_columns;
  for (size_t c = 0; c < host_table->num_columns(); ++c) {
    all_columns.push_back(static_cast<int>(c));
  }
  SIRIUS_ASSIGN_OR_RETURN(
      format::TablePtr device_table,
      buffer_manager_.GetOrCacheColumns(table_name, host_table, all_columns,
                                        ctx.sim));
  SIRIUS_ASSIGN_OR_RETURN(
      gdf::TopKResult top,
      gdf::VectorTopK(ctx, device_table->column(emb_idx), query, k, metric));
  SIRIUS_ASSIGN_OR_RETURN(
      format::TablePtr rows,
      gdf::GatherTable(ctx, device_table, top.indices, sim::OpCategory::kOther));
  // Append the similarity scores.
  format::Schema schema = rows->schema();
  schema.AddField({"__score", format::Float64()});
  std::vector<format::ColumnPtr> cols = rows->columns();
  cols.push_back(format::Column::FromDouble(top.scores));
  SIRIUS_ASSIGN_OR_RETURN(
      format::TablePtr out,
      format::Table::Make(std::move(schema), std::move(cols)));
  return CopyOutResult(out);
}

Result<std::string> SiriusEngine::ExplainPipelines(const PlanPtr& plan) const {
  std::vector<Pipeline> pipelines;
  SIRIUS_RETURN_NOT_OK(PipelineCompiler::Compile(plan, &pipelines).status());
  return PipelinesToString(
      pipelines, FusedStageCompiler::Compile(pipelines, options_.fusion));
}

}  // namespace sirius::engine
