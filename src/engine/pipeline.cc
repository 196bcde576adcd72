#include "engine/pipeline.h"

#include <sstream>

namespace sirius::engine {

using plan::PlanKind;
using plan::PlanNode;
using plan::PlanPtr;

namespace {

/// The sink a pipeline-breaker node becomes; false for streaming nodes.
bool BreakerSink(PlanKind kind, SinkKind* sink) {
  switch (kind) {
    case PlanKind::kAggregate:
      *sink = SinkKind::kAggregate;
      return true;
    case PlanKind::kSort:
      *sink = SinkKind::kSort;
      return true;
    case PlanKind::kDistinct:
      *sink = SinkKind::kDistinct;
      return true;
    case PlanKind::kLimit:
      *sink = SinkKind::kLimit;
      return true;
    case PlanKind::kExchange:
      *sink = SinkKind::kExchange;
      return true;
    default:
      return false;
  }
}

class Compiler {
 public:
  explicit Compiler(std::vector<Pipeline>* out) : out_(out) {}

  /// Returns the id of a pipeline that materializes `node`'s output.
  Result<int> Materialize(const PlanNode* node) {
    Pipeline p;
    p.id = static_cast<int>(out_->size());
    out_->push_back(std::move(p));
    const int id = out_->back().id;

    // A breaker is the sink over its child's chain; any other node is
    // materialized as the pipeline's plain output.
    SinkKind sink = SinkKind::kMaterialize;
    const bool breaker = BreakerSink(node->kind, &sink);
    SIRIUS_RETURN_NOT_OK(
        BuildInto(breaker ? node->children[0].get() : node, id));
    (*out_)[id].sink = sink;
    (*out_)[id].sink_node = node;
    return id;
  }

 private:
  /// Appends `node`'s streaming chain into pipeline `pid` (recursing into
  /// the streaming child first; breakers/scans terminate the walk).
  Status BuildInto(const PlanNode* node, int pid) {
    switch (node->kind) {
      case PlanKind::kTableScan:
        (*out_)[pid].source_scan = node;
        return Status::OK();
      case PlanKind::kFilter: {
        SIRIUS_RETURN_NOT_OK(BuildInto(node->children[0].get(), pid));
        (*out_)[pid].steps.push_back({StepKind::kFilter, node, -1});
        return Status::OK();
      }
      case PlanKind::kProject: {
        SIRIUS_RETURN_NOT_OK(BuildInto(node->children[0].get(), pid));
        (*out_)[pid].steps.push_back({StepKind::kProject, node, -1});
        return Status::OK();
      }
      case PlanKind::kJoin: {
        // The build (right) side becomes its own pipeline; the probe side
        // continues the current one.
        SIRIUS_ASSIGN_OR_RETURN(int build, Materialize(node->children[1].get()));
        SIRIUS_RETURN_NOT_OK(BuildInto(node->children[0].get(), pid));
        Pipeline& p = (*out_)[pid];
        p.steps.push_back({node->join_type == plan::JoinType::kCross
                               ? StepKind::kCrossJoin
                               : StepKind::kProbeJoin,
                           node, build});
        p.dependencies.push_back(build);
        return Status::OK();
      }
      default: {
        // Breaker in the middle of a chain: it becomes this pipeline's
        // source.
        SIRIUS_ASSIGN_OR_RETURN(int src, Materialize(node));
        Pipeline& p = (*out_)[pid];
        p.source_pipeline = src;
        p.dependencies.push_back(src);
        return Status::OK();
      }
    }
  }

  std::vector<Pipeline>* out_;
};

}  // namespace

Result<int> PipelineCompiler::Compile(const PlanPtr& plan,
                                      std::vector<Pipeline>* out) {
  Compiler compiler(out);
  return compiler.Materialize(plan.get());
}

std::vector<FusedStage> FusedStageCompiler::Compile(
    const std::vector<Pipeline>& pipelines, bool fusion_enabled) {
  std::vector<FusedStage> out(pipelines.size());
  for (const auto& p : pipelines) {
    FusedStage& stage = out[p.id];
    if (!fusion_enabled) {
      stage.reason = "fusion disabled";
      continue;
    }
    if (p.steps.empty()) {
      stage.reason = "no streaming steps";
      continue;
    }
    // Exclusions: chains the selection-vector flow cannot express.
    for (const auto& s : p.steps) {
      if (s.kind == StepKind::kCrossJoin) {
        stage.reason = "cross join";
      } else if (s.kind == StepKind::kProbeJoin &&
                 s.node->join_type == plan::JoinType::kAsof) {
        stage.reason = "asof join";
      } else if (s.kind == StepKind::kProbeJoin && s.node->residual != nullptr) {
        stage.reason = "residual join predicate";
      }
      if (!stage.reason.empty()) break;
    }
    if (!stage.reason.empty()) continue;
    stage.exec = StageExec::kFused;
    stage.fused_ops = static_cast<int>(p.steps.size());
  }
  return out;
}

std::string PipelinesToString(const std::vector<Pipeline>& pipelines,
                              const std::vector<FusedStage>& stages) {
  std::ostringstream os;
  for (const auto& p : pipelines) {
    os << "pipeline " << p.id << ": ";
    if (p.source_scan != nullptr) {
      os << "scan(" << p.source_scan->table_name << ")";
    } else if (p.source_pipeline >= 0) {
      os << "from(p" << p.source_pipeline << ")";
    } else {
      os << "<no source>";
    }
    for (const auto& s : p.steps) {
      switch (s.kind) {
        case StepKind::kFilter:
          os << " -> filter";
          break;
        case StepKind::kProject:
          os << " -> project";
          break;
        case StepKind::kProbeJoin:
          os << " -> probe(p" << s.build_pipeline << ", "
             << plan::JoinTypeName(s.node->join_type) << ")";
          break;
        case StepKind::kCrossJoin:
          os << " -> cross(p" << s.build_pipeline << ")";
          break;
      }
    }
    switch (p.sink) {
      case SinkKind::kMaterialize:
        os << " => materialize";
        break;
      case SinkKind::kAggregate:
        os << " => aggregate";
        break;
      case SinkKind::kSort:
        os << " => sort";
        break;
      case SinkKind::kDistinct:
        os << " => distinct";
        break;
      case SinkKind::kLimit:
        os << " => limit";
        break;
      case SinkKind::kExchange:
        os << " => exchange";
        break;
    }
    const FusedStage& st = stages[p.id];
    if (st.exec == StageExec::kFused) {
      os << "  [fused ops=" << st.fused_ops << "]";
    } else {
      os << "  [materialized: " << st.reason << "]";
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace sirius::engine
