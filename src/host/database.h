// DuckX: the embedded analytical host database (DuckDB stand-in).
//
// Owns the catalog, SQL front-end (parse -> bind -> optimize), the CPU
// execution engine, and the Substrait export used for drop-in acceleration:
// when an Accelerator is attached, optimized plans are serialized and routed
// to it instead of the CPU engine, with graceful fallback (paper §3.2.2).

#pragma once

#include <memory>
#include <string>

#include "common/result.h"
#include "host/catalog.h"
#include "obs/trace.h"
#include "host/cpu_executor.h"
#include "opt/optimizer.h"
#include "plan/substrait.h"
#include "sim/cost_model.h"

namespace sirius::host {

/// \brief Result of one query: the rows plus the simulated-time account.
struct QueryResult {
  format::TablePtr table;
  sim::Timeline timeline;
  plan::PlanPtr optimized_plan;
  /// True when the query ran on the attached accelerator (GPU path).
  bool accelerated = false;
  /// True when the accelerator rejected the plan and the CPU engine ran it.
  bool fell_back = false;
  /// Why the accelerator rejected the plan (its status code and message)
  /// when `fell_back`; OK otherwise.
  Status fallback_reason;
  /// Per-query trace snapshot (span tree + metrics over simulated time).
  /// Null when the engine ran with tracing off or the CPU path executed.
  std::shared_ptr<obs::QueryProfile> profile;
  /// Device activity behind `timeline`: kernel launches and HBM traffic.
  /// Zero on the CPU path (only the accelerator counts kernels).
  sim::KernelStats kernels;
};

/// \brief Drop-in execution engine interface (implemented by Sirius).
///
/// Receives the serialized plan exactly as it crosses the host-DB boundary
/// in the paper (§3.1). Returning a non-OK status (typically
/// UnsupportedOnDevice) triggers host-side fallback.
class Accelerator {
 public:
  virtual ~Accelerator() = default;
  virtual Result<QueryResult> ExecuteSubstrait(const std::string& plan_text) = 0;
  virtual std::string name() const = 0;
};

/// \brief The embedded host database.
class Database {
 public:
  struct Options {
    sim::DeviceProfile device = sim::M7i16xlarge();
    sim::EngineProfile engine = sim::DuckDbProfile();
    /// Cost-model multiplier: modeled scale factor / loaded scale factor.
    double data_scale = 1.0;
  };

  Database() : Database(Options{}) {}
  explicit Database(Options options);

  Catalog& catalog() { return catalog_; }
  const Options& options() const { return options_; }

  Status CreateTable(const std::string& name, format::TablePtr table) {
    return catalog_.CreateTable(name, std::move(table));
  }

  /// Parse + bind + optimize (join reordering honors the engine profile).
  Result<plan::PlanPtr> PlanSql(const std::string& sql);

  /// The drop-in boundary: the optimized plan in wire format.
  Result<std::string> ExportSubstrait(const std::string& sql);

  /// EXPLAIN: the optimized plan rendered with cardinality estimates.
  Result<std::string> Explain(const std::string& sql);

  /// Runs a SQL query: on the accelerator when attached (with graceful
  /// fallback), otherwise on the CPU engine.
  Result<QueryResult> Query(const std::string& sql);

  /// Executes an already-optimized plan on the CPU engine.
  Result<QueryResult> ExecutePlanCpu(const plan::PlanPtr& plan);

  /// Executes an already-optimized plan through the normal routing: the
  /// attached accelerator when present (with graceful fallback), otherwise
  /// the CPU engine. The path every front-end (SQL, DataFrame) funnels into.
  Result<QueryResult> ExecutePlanRouted(const plan::PlanPtr& plan);

  /// Attaches/detaches the drop-in accelerator (not owned).
  void SetAccelerator(Accelerator* accelerator) { accelerator_ = accelerator; }

 private:
  Options options_;
  Catalog catalog_;
  Accelerator* accelerator_ = nullptr;
};

}  // namespace sirius::host
