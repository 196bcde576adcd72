// Integration tests for the Sirius GPU engine: drop-in acceleration via the
// Substrait boundary, cross-engine result agreement on all 22 TPC-H
// queries, graceful fallback, buffer-manager behaviour, pipelines.

#include <gtest/gtest.h>

#include "engine/sirius.h"
#include "tpch/queries.h"

namespace sirius {
namespace {

constexpr double kSf = 0.01;
// Model SF100 on SF0.01 data (the paper's evaluation scale, §4.1).
constexpr double kDataScale = 100.0 / kSf;

host::Database* SharedDb() {
  static host::Database* db = [] {
    host::Database::Options options;
    options.data_scale = kDataScale;
    auto* d = new host::Database(options);  // sirius-lint: allow(raw-new-delete): leaked singleton
    SIRIUS_CHECK_OK(tpch::LoadTpch(d, kSf));
    return d;
  }();
  return db;
}

engine::SiriusEngine* SharedEngine() {
  static engine::SiriusEngine* eng = [] {
    engine::SiriusEngine::Options options;
    options.data_scale = kDataScale;
    return new engine::SiriusEngine(SharedDb(), options);  // sirius-lint: allow(raw-new-delete): leaked singleton
  }();
  return eng;
}

class CrossEngineTest : public ::testing::TestWithParam<int> {};

TEST_P(CrossEngineTest, SiriusMatchesCpuEngine) {
  const int q = GetParam();
  host::Database* db = SharedDb();

  // CPU path.
  db->SetAccelerator(nullptr);
  auto cpu = db->Query(tpch::Query(q));
  ASSERT_TRUE(cpu.ok()) << "Q" << q << " cpu: " << cpu.status().ToString();

  // GPU path through the Substrait drop-in boundary.
  db->SetAccelerator(SharedEngine());
  auto gpu = db->Query(tpch::Query(q));
  db->SetAccelerator(nullptr);
  ASSERT_TRUE(gpu.ok()) << "Q" << q << " gpu: " << gpu.status().ToString();
  EXPECT_TRUE(gpu.ValueOrDie().accelerated) << "Q" << q;
  EXPECT_FALSE(gpu.ValueOrDie().fell_back) << "Q" << q;

  const auto& ct = *cpu.ValueOrDie().table;
  const auto& gt = *gpu.ValueOrDie().table;
  EXPECT_TRUE(ct.Equals(gt) || ct.EqualsUnordered(gt))
      << "Q" << q << " results differ.\nCPU:\n"
      << ct.ToString(8) << "\nGPU:\n"
      << gt.ToString(8);
}

INSTANTIATE_TEST_SUITE_P(AllQueries, CrossEngineTest, ::testing::Range(1, 23),
                         [](const auto& info) {
                           return "Q" + std::to_string(info.param);
                         });

TEST(SiriusEngineTest, GpuIsFasterThanCpuOnModeledTime) {
  host::Database* db = SharedDb();
  db->SetAccelerator(nullptr);
  auto cpu = db->Query(tpch::Query(1)).ValueOrDie();
  db->SetAccelerator(SharedEngine());
  (void)db->Query(tpch::Query(1));  // cold run populates the cache
  auto gpu = db->Query(tpch::Query(1)).ValueOrDie();
  db->SetAccelerator(nullptr);
  // Hot-run GPU execution should beat the CPU engine in simulated time.
  EXPECT_LT(gpu.timeline.total_seconds(), cpu.timeline.total_seconds());
}

TEST(SiriusEngineTest, GracefulFallbackOnUnsupportedFeature) {
  host::Database* db = SharedDb();
  engine::SiriusEngine::Options options;
  options.capabilities.avg = false;  // distributed-mode restriction (§3.4)
  engine::SiriusEngine limited(db, options);
  db->SetAccelerator(&limited);
  auto r = db->Query(tpch::Query(1));  // Q1 uses avg
  db->SetAccelerator(nullptr);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r.ValueOrDie().fell_back);
  EXPECT_FALSE(r.ValueOrDie().accelerated);
  // The fallback result still matches the CPU engine.
  auto cpu = db->Query(tpch::Query(1)).ValueOrDie();
  EXPECT_TRUE(cpu.table->Equals(*r.ValueOrDie().table));
}

/// An accelerator that declines every plan with one fixed status.
class DecliningAccelerator : public host::Accelerator {
 public:
  Result<host::QueryResult> ExecuteSubstrait(const std::string&) override {
    return Status::UnsupportedOnDevice("no device kernel for this plan");
  }
  std::string name() const override { return "declining"; }
};

TEST(SiriusEngineTest, FallbackReasonCarriesTheDeclineStatus) {
  host::Database* db = SharedDb();
  DecliningAccelerator declining;
  db->SetAccelerator(&declining);
  auto r = db->Query(tpch::Query(6));
  db->SetAccelerator(nullptr);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r.ValueOrDie().fell_back);
  const Status& reason = r.ValueOrDie().fallback_reason;
  EXPECT_EQ(reason.code(), StatusCode::kUnsupportedOnDevice);
  EXPECT_EQ(reason.message(), "no device kernel for this plan");

  // A capability gate reports its own reason; an accelerated run reports none.
  engine::SiriusEngine::Options options;
  options.capabilities.avg = false;
  engine::SiriusEngine limited(db, options);
  db->SetAccelerator(&limited);
  auto gated = db->Query(tpch::Query(1));  // Q1 uses avg
  db->SetAccelerator(SharedEngine());
  auto accelerated = db->Query(tpch::Query(6));
  db->SetAccelerator(nullptr);
  ASSERT_TRUE(gated.ok()) << gated.status().ToString();
  EXPECT_EQ(gated.ValueOrDie().fallback_reason.code(),
            StatusCode::kUnsupportedOnDevice);
  EXPECT_NE(gated.ValueOrDie().fallback_reason.message().find("avg"),
            std::string::npos)
      << gated.ValueOrDie().fallback_reason.ToString();
  ASSERT_TRUE(accelerated.ok()) << accelerated.status().ToString();
  EXPECT_TRUE(accelerated.ValueOrDie().fallback_reason.ok());
}

TEST(SiriusEngineTest, FallbackNotTriggeredWhenSupported) {
  host::Database* db = SharedDb();
  db->SetAccelerator(SharedEngine());
  auto r = db->Query(tpch::Query(6)).ValueOrDie();
  db->SetAccelerator(nullptr);
  EXPECT_TRUE(r.accelerated);
  EXPECT_FALSE(r.fell_back);
}

TEST(SiriusEngineTest, HotRunIsCheaperThanColdRun) {
  host::Database* db = SharedDb();
  engine::SiriusEngine::Options options;
  engine::SiriusEngine eng(db, options);
  db->SetAccelerator(&eng);
  auto cold = db->Query(tpch::Query(6)).ValueOrDie();
  auto hot = db->Query(tpch::Query(6)).ValueOrDie();
  db->SetAccelerator(nullptr);
  EXPECT_TRUE(eng.buffer_manager().IsCached("lineitem", 10));
  EXPECT_LT(hot.timeline.total_seconds(), cold.timeline.total_seconds());
}

TEST(SiriusEngineTest, EvictAllForcesColdLoad) {
  host::Database* db = SharedDb();
  engine::SiriusEngine::Options options;
  engine::SiriusEngine eng(db, options);
  db->SetAccelerator(&eng);
  (void)db->Query(tpch::Query(6));
  EXPECT_TRUE(eng.buffer_manager().IsCached("lineitem", 10));
  eng.buffer_manager().EvictAll();
  EXPECT_FALSE(eng.buffer_manager().IsCached("lineitem", 10));
  EXPECT_EQ(eng.buffer_manager().cached_modeled_bytes(), 0u);
  db->SetAccelerator(nullptr);
}

TEST(SiriusEngineTest, CachingRegionOverflowReportsOom) {
  host::Database* db = SharedDb();
  engine::SiriusEngine::Options options;
  // Model SF100 on a tiny device: nothing fits, no out-of-core.
  options.data_scale = 10000.0;
  options.device.mem_capacity_gib = 1.0;
  options.out_of_core = false;
  engine::SiriusEngine eng(db, options);
  db->SetAccelerator(&eng);
  auto r = db->Query(tpch::Query(6)).ValueOrDie();
  db->SetAccelerator(nullptr);
  // Graceful fallback: the query still succeeds, on the CPU.
  EXPECT_TRUE(r.fell_back);
}

TEST(SiriusEngineTest, OutOfCoreBatchModeProducesSameResults) {
  host::Database* db = SharedDb();
  engine::SiriusEngine::Options options;
  options.data_scale = 10000.0;  // model SF100 on...
  options.device.mem_capacity_gib = 1.0;  // ...a 1 GiB device
  options.out_of_core = true;    // §3.4 extension
  engine::SiriusEngine eng(db, options);
  db->SetAccelerator(&eng);
  auto r = db->Query(tpch::Query(6));
  db->SetAccelerator(nullptr);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r.ValueOrDie().accelerated);
  auto cpu = db->Query(tpch::Query(6)).ValueOrDie();
  EXPECT_TRUE(cpu.table->Equals(*r.ValueOrDie().table));
}

TEST(SiriusEngineTest, IntermediateSpillingKeepsGpuPathAlive) {
  // §3.4 spilling: a join intermediate larger than the processing region
  // fails without out_of_core and spills to pinned memory with it.
  host::Database* db = SharedDb();
  engine::SiriusEngine::Options options;
  options.data_scale = 5.0e6;             // giant modeled intermediates
  options.device.mem_capacity_gib = 2.0;  // tiny device
  options.out_of_core = false;
  engine::SiriusEngine strict(db, options);
  db->SetAccelerator(&strict);
  auto failed = db->Query(tpch::Query(3)).ValueOrDie();
  EXPECT_TRUE(failed.fell_back);  // OOM -> graceful host fallback

  options.out_of_core = true;
  engine::SiriusEngine spilling(db, options);
  db->SetAccelerator(&spilling);
  auto spilled = db->Query(tpch::Query(3));
  db->SetAccelerator(nullptr);
  ASSERT_TRUE(spilled.ok()) << spilled.status().ToString();
  EXPECT_TRUE(spilled.ValueOrDie().accelerated);
  EXPECT_TRUE(failed.table->Equals(*spilled.ValueOrDie().table) ||
              failed.table->EqualsUnordered(*spilled.ValueOrDie().table));
}

TEST(SiriusEngineTest, PipelineBreakdownMatchesPushModel) {
  host::Database* db = SharedDb();
  auto plan = db->PlanSql(tpch::Query(3)).ValueOrDie();
  auto explained = SharedEngine()->ExplainPipelines(plan).ValueOrDie();
  // Q3 = customer/orders/lineitem joins + aggregate + sort + limit:
  // several pipelines with probe steps and breaker sinks.
  EXPECT_NE(explained.find("probe"), std::string::npos) << explained;
  EXPECT_NE(explained.find("aggregate"), std::string::npos) << explained;
  EXPECT_NE(explained.find("limit"), std::string::npos) << explained;
}

TEST(BufferManagerTest, IndexConversionRoundTrip) {
  sim::SimContext sim;
  std::vector<uint64_t> rows = {0, 5, 17, 1000000};
  auto gdf_idx = engine::BufferManager::ToGdfIndices(rows, sim).ValueOrDie();
  EXPECT_EQ(gdf_idx.size(), 4u);
  EXPECT_EQ(gdf_idx[3], 1000000);
  auto back = engine::BufferManager::FromGdfIndices(gdf_idx, sim);
  EXPECT_EQ(back, rows);
}

TEST(BufferManagerTest, IndexConversionRejectsOverflow) {
  sim::SimContext sim;
  std::vector<uint64_t> rows = {uint64_t{1} << 40};
  EXPECT_FALSE(engine::BufferManager::ToGdfIndices(rows, sim).ok());
}

TEST(CapabilitiesTest, DetectsUnsupportedAvg) {
  host::Database* db = SharedDb();
  auto plan = db->PlanSql(tpch::Query(1)).ValueOrDie();
  engine::Capabilities caps;
  EXPECT_TRUE(caps.Check(*plan).ok());
  caps.avg = false;
  Status st = caps.Check(*plan);
  EXPECT_TRUE(st.IsUnsupportedOnDevice()) << st.ToString();
}

TEST(CapabilitiesTest, DetectsStringsAndLike) {
  host::Database* db = SharedDb();
  auto plan = db->PlanSql(tpch::Query(13)).ValueOrDie();  // uses NOT LIKE
  engine::Capabilities caps;
  caps.like = false;
  EXPECT_TRUE(caps.Check(*plan).IsUnsupportedOnDevice());
  caps.like = true;
  caps.strings = false;
  EXPECT_TRUE(caps.Check(*plan).IsUnsupportedOnDevice());
}

}  // namespace
}  // namespace sirius
