// Tests for sirius_analyze (tools/sirius_analyze): parser/CFG extraction
// plus the four flow rules, each exercised with a seeded violation AND the
// matching clean idiom the repo actually uses (future joins under the serve
// mutex, pool-submitted lambdas that relock, RETURN_NOT_OK acquire guards).

#include "analyze.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace sirius::analyze {
namespace {

using analysis::Finding;

std::vector<Finding> RunAnalyze(AnalyzerInput in,
                         std::vector<Finding>* suppressed = nullptr) {
  return Analyze(in, suppressed);
}

bool Has(const std::vector<Finding>& fs, const std::string& rule,
         const std::string& needle) {
  for (const Finding& f : fs) {
    if (f.rule == rule && f.message.find(needle) != std::string::npos) {
      return true;
    }
  }
  return false;
}

int CountRule(const std::vector<Finding>& fs, const std::string& rule) {
  int n = 0;
  for (const Finding& f : fs) n += f.rule == rule ? 1 : 0;
  return n;
}

// ---------------------------------------------------------------------------
// Parser / CFG extraction
// ---------------------------------------------------------------------------

TEST(ParseFunctionsTest, ExtractsMethodsFreeFunctionsAndLambdas) {
  const std::string src = R"cc(
namespace sirius {
class Widget {
 public:
  int Get() const { return v_; }
 private:
  int v_ = 0;
};
Status Widget::Apply(int x) {
  if (x < 0) return Status::Invalid("x");
  pool_->Submit([this] {
    std::lock_guard<std::mutex> g(mu_);
    v_ += 1;
  });
  return Status::OK();
}
static void Helper() { Touch(); }
}  // namespace sirius
)cc";
  auto fns = ParseFunctions("src/w.cc", analysis::Scrub(src));
  ASSERT_EQ(fns.size(), 4u);  // Get, the lambda, Apply, Helper
  int lambdas = 0;
  bool saw_apply = false, saw_get = false;
  for (const FunctionDef& f : fns) {
    if (f.is_lambda) {
      ++lambdas;
      EXPECT_EQ(f.cls, "Widget");  // [this] capture context survives
    }
    if (f.name == "Apply") {
      saw_apply = true;
      EXPECT_EQ(f.cls, "Widget");
    }
    if (f.name == "Get") saw_get = true;
  }
  EXPECT_EQ(lambdas, 1);
  EXPECT_TRUE(saw_apply);
  EXPECT_TRUE(saw_get);
}

TEST(BuildCfgTest, EarlyReturnsReachTheExitBlock) {
  const std::string src = R"cc(
Status F(int x) {
  if (x < 0) return Status::Invalid("x");
  SIRIUS_RETURN_NOT_OK(Step(x));
  while (x > 0) {
    if (x == 3) break;
    --x;
  }
  return Status::OK();
}
)cc";
  auto fns = ParseFunctions("src/f.cc", analysis::Scrub(src));
  ASSERT_EQ(fns.size(), 1u);
  const Cfg cfg = BuildCfg(fns[0]);
  // Exit must have several predecessors: the early return, the
  // RETURN_NOT_OK edge, and the final return.
  int exit_preds = 0;
  for (const Cfg::Block& b : cfg.blocks) {
    for (int s : b.succ) exit_preds += s == cfg.exit ? 1 : 0;
  }
  EXPECT_GE(exit_preds, 3);
  bool has_cond_exit = false;
  for (const Cfg::Block& b : cfg.blocks) {
    has_cond_exit |= b.cond_exit_succ >= 0;
  }
  EXPECT_TRUE(has_cond_exit);
}

// ---------------------------------------------------------------------------
// lock-order
// ---------------------------------------------------------------------------

constexpr char kAbba[] = R"cc(
#include <mutex>
class Pair {
 public:
  void A() {
    std::lock_guard<std::mutex> g(mu_a_);
    std::lock_guard<std::mutex> h(mu_b_);
  }
  void B() {
    std::lock_guard<std::mutex> g(mu_b_);
    std::lock_guard<std::mutex> h(mu_a_);
  }
 private:
  std::mutex mu_a_, mu_b_;
};
)cc";

TEST(LockOrderTest, AbbaCycleReported) {
  AnalyzerInput in;
  in.files["src/pair.cc"] = kAbba;
  const auto fs = RunAnalyze(in);
  EXPECT_TRUE(Has(fs, kRuleLockOrder, "ABBA"));
  EXPECT_TRUE(Has(fs, kRuleLockOrder, "Pair::mu_a_"));
  EXPECT_TRUE(Has(fs, kRuleLockOrder, "Pair::mu_b_"));
}

TEST(LockOrderTest, ConsistentOrderIsClean) {
  AnalyzerInput in;
  in.files["src/pair.cc"] = R"cc(
#include <mutex>
class Pair {
 public:
  void A() {
    std::lock_guard<std::mutex> g(mu_a_);
    std::lock_guard<std::mutex> h(mu_b_);
  }
  void B() {
    std::lock_guard<std::mutex> g(mu_a_);
    std::lock_guard<std::mutex> h(mu_b_);
  }
 private:
  std::mutex mu_a_, mu_b_;
};
)cc";
  EXPECT_EQ(CountRule(RunAnalyze(in), kRuleLockOrder), 0);
}

TEST(LockOrderTest, CycleThroughCalleeReported) {
  AnalyzerInput in;
  in.files["src/split.cc"] = R"cc(
#include <mutex>
class Split {
 public:
  void TakeB() { std::lock_guard<std::mutex> g(mu_b_); }
  void A() {
    std::lock_guard<std::mutex> g(mu_a_);
    TakeB();
  }
  void B() {
    std::lock_guard<std::mutex> g(mu_b_);
    std::lock_guard<std::mutex> h(mu_a_);
  }
 private:
  std::mutex mu_a_, mu_b_;
};
)cc";
  EXPECT_TRUE(Has(RunAnalyze(in), kRuleLockOrder, "ABBA"));
}

TEST(LockOrderTest, PoolSubmittedLambdaIsNotTheEnclosingScope) {
  // The engine's Enqueue pattern: the submitting function holds mu_ only to
  // update state; the lambda it hands to the pool relocks mu_ later, on a
  // worker thread. That is NOT a self-deadlock.
  AnalyzerInput in;
  in.files["src/engine_like.cc"] = R"cc(
#include <mutex>
void Engine::Enqueue(Part p) {
  {
    std::lock_guard<std::mutex> g(mu_);
    pending_.push_back(p);
  }
  pool_->Submit([this, p] {
    std::lock_guard<std::mutex> g(mu_);
    Advance(p);
  });
}
)cc";
  EXPECT_EQ(CountRule(RunAnalyze(in), kRuleLockOrder), 0);
}

// ---------------------------------------------------------------------------
// blocking-under-lock
// ---------------------------------------------------------------------------

TEST(BlockingUnderLockTest, StreamSyncUnderGuardReported) {
  AnalyzerInput in;
  in.files["src/dev.cc"] = R"cc(
#include <mutex>
void Device::Flush() {
  std::lock_guard<std::mutex> g(mu_);
  stream_->Sync();
}
)cc";
  const auto fs = RunAnalyze(in);
  EXPECT_TRUE(Has(fs, kRuleBlockingUnderLock, "Sync()"));
  EXPECT_TRUE(Has(fs, kRuleBlockingUnderLock, "Device::mu_"));
}

TEST(BlockingUnderLockTest, TransitiveBlockingReported) {
  AnalyzerInput in;
  in.files["src/dev.cc"] = R"cc(
#include <mutex>
void Device::DrainStream() { stream_->Sync(); }
void Device::Flush() {
  std::lock_guard<std::mutex> g(mu_);
  DrainStream();
}
)cc";
  EXPECT_TRUE(Has(RunAnalyze(in), kRuleBlockingUnderLock, "DrainStream()"));
}

TEST(BlockingUnderLockTest, FutureJoinUnderLockIsTheServeProtocol) {
  // serve.cc joins engine futures while holding mu_ — the discrete-event
  // dispatch protocol. future.get()/wait() must stay out of the rule.
  AnalyzerInput in;
  in.files["src/serve_like.cc"] = R"cc(
#include <mutex>
void Server::Pump() {
  std::lock_guard<std::mutex> g(mu_);
  for (auto& e : entries_) {
    e.future.get();
    cv_.notify_all();
  }
}
)cc";
  EXPECT_EQ(CountRule(RunAnalyze(in), kRuleBlockingUnderLock), 0);
}

TEST(BlockingUnderLockTest, SyncOutsideGuardScopeIsClean) {
  AnalyzerInput in;
  in.files["src/dev.cc"] = R"cc(
#include <mutex>
void Device::Flush() {
  {
    std::lock_guard<std::mutex> g(mu_);
    dirty_ = false;
  }
  stream_->Sync();
}
)cc";
  EXPECT_EQ(CountRule(RunAnalyze(in), kRuleBlockingUnderLock), 0);
}

// ---------------------------------------------------------------------------
// ledger-balance
// ---------------------------------------------------------------------------

TEST(LedgerBalanceTest, GrowLeakedByEarlyReturnReported) {
  AnalyzerInput in;
  in.files["src/spill.cc"] = R"cc(
Status Charge(Reservation* r, bool flaky) {
  SIRIUS_RETURN_NOT_OK(r->Grow(64));
  if (flaky) return Status::Internal("mid-spill fault");
  r->Release();
  return Status::OK();
}
)cc";
  EXPECT_TRUE(
      Has(RunAnalyze(in), kRuleLedgerBalance, "not released on every exit path"));
}

TEST(LedgerBalanceTest, FailedGrowEarlyReturnIsBalanced) {
  // RETURN_NOT_OK(Grow) exiting means the grow granted nothing; the
  // success path releases. All paths balance.
  AnalyzerInput in;
  in.files["src/spill.cc"] = R"cc(
Status Charge(Reservation* r) {
  SIRIUS_RETURN_NOT_OK(r->Grow(64));
  Consume();
  r->Release();
  return Status::OK();
}
)cc";
  EXPECT_EQ(CountRule(RunAnalyze(in), kRuleLedgerBalance), 0);
}

TEST(LedgerBalanceTest, CheckedStatusVarGuardIsBalanced) {
  AnalyzerInput in;
  in.files["src/spill.cc"] = R"cc(
Status Charge(Reservation* r) {
  Status st = r->Grow(64);
  if (!st.ok()) return st;
  Consume();
  r->Release();
  return Status::OK();
}
)cc";
  EXPECT_EQ(CountRule(RunAnalyze(in), kRuleLedgerBalance), 0);
}

TEST(LedgerBalanceTest, TryReserveConditionOnlyChargesTheTakenBranch) {
  AnalyzerInput in;
  in.files["src/admit.cc"] = R"cc(
bool Admit(ReservationPool* pool, uint64_t bytes) {
  if (!pool->TryReserve(bytes)) return false;
  RunQuery();
  pool->Release(bytes);
  return true;
}
)cc";
  EXPECT_EQ(CountRule(RunAnalyze(in), kRuleLedgerBalance), 0);
}

TEST(LedgerBalanceTest, OwnershipTransferIsOutOfScope) {
  // Acquire-only functions hand the reservation to the caller (RAII); only
  // functions with both sides in view are checked.
  AnalyzerInput in;
  in.files["src/take.cc"] = R"cc(
Status Reserve(Reservation* r) {
  SIRIUS_RETURN_NOT_OK(r->Grow(64));
  return Status::OK();
}
)cc";
  EXPECT_EQ(CountRule(RunAnalyze(in), kRuleLedgerBalance), 0);
}

TEST(LedgerBalanceTest, PinnedHostPairLeakReported) {
  AnalyzerInput in;
  in.files["src/host.cc"] = R"cc(
Status Stage(size_t n, bool fail) {
  void* p = PinnedHostAlloc(n);
  if (fail) return Status::Internal("staging fault");
  PinnedHostFree(p);
  return Status::OK();
}
)cc";
  EXPECT_TRUE(Has(RunAnalyze(in), kRuleLedgerBalance, "PinnedHostAlloc"));
}

// ---------------------------------------------------------------------------
// fault-site-coverage
// ---------------------------------------------------------------------------

TEST(FaultSiteTest, UnregisteredSiteInKnownFamilyReported) {
  AnalyzerInput in;
  in.files["src/mem/spill.cc"] = R"cc(
SIRIUS_FAULT_DEFINE_SITE(kWrite, "mem.spill.write");
Status WriteBack(FaultInjector* inj) {
  SIRIUS_RETURN_NOT_OK(inj->Check(kWrite));
  SIRIUS_RETURN_NOT_OK(inj->Check("mem.spill.wrte"));
  return Status::OK();
}
)cc";
  in.files["tests/spill_test.cc"] = R"cc(
TEST(A, B) { inj.Arm("mem.spill.write", spec); }
)cc";
  const auto fs = RunAnalyze(in);
  EXPECT_TRUE(Has(fs, kRuleFaultSiteCoverage, "mem.spill.wrte"));
  EXPECT_TRUE(Has(fs, kRuleFaultSiteCoverage, "not registered"));
}

TEST(FaultSiteTest, SyntheticUnitTestFamiliesIgnored) {
  AnalyzerInput in;
  in.files["src/mem/spill.cc"] = R"cc(
SIRIUS_FAULT_DEFINE_SITE(kWrite, "mem.spill.write");
)cc";
  in.files["tests/fault_test.cc"] = R"cc(
TEST(A, B) {
  inj.Arm("some.site", spec);
  inj.Arm("mem.spill.write", spec);
}
)cc";
  EXPECT_EQ(CountRule(RunAnalyze(in), kRuleFaultSiteCoverage), 0);
}

TEST(FaultSiteTest, RegisteredSiteWithoutTestSweepReported) {
  AnalyzerInput in;
  in.files["src/mem/spill.cc"] = R"cc(
SIRIUS_FAULT_DEFINE_SITE(kWrite, "mem.spill.write");
SIRIUS_FAULT_DEFINE_SITE(kRead, "mem.spill.read");
)cc";
  in.files["tests/spill_test.cc"] = R"cc(
TEST(A, B) { inj.Arm("mem.spill.write", spec); }
)cc";
  const auto fs = RunAnalyze(in);
  EXPECT_TRUE(Has(fs, kRuleFaultSiteCoverage, "mem.spill.read"));
  EXPECT_TRUE(Has(fs, kRuleFaultSiteCoverage, "no test coverage"));
  EXPECT_FALSE(Has(fs, kRuleFaultSiteCoverage, "\"mem.spill.write\""));
}

TEST(FaultSiteTest, UndocumentedSiteReported) {
  AnalyzerInput in;
  in.files["src/mem/spill.cc"] = R"cc(
SIRIUS_FAULT_DEFINE_SITE(kWrite, "mem.spill.write");
)cc";
  in.files["tests/spill_test.cc"] = R"cc(
TEST(A, B) { inj.Arm("mem.spill.write", spec); }
)cc";
  in.design_md = "## Fault injection\nSites: mem.spill.read only.\n";
  EXPECT_TRUE(Has(RunAnalyze(in), kRuleFaultSiteCoverage, "DESIGN.md"));
}

// ---------------------------------------------------------------------------
// suppression + clean composite
// ---------------------------------------------------------------------------

TEST(SuppressionTest, AllowCommentMovesFindingAside) {
  AnalyzerInput in;
  in.files["src/dev.cc"] = R"cc(
#include <mutex>
void Device::Flush() {
  std::lock_guard<std::mutex> g(mu_);
  // sirius-analyze: allow(blocking-under-lock)
  stream_->Sync();
}
)cc";
  std::vector<Finding> suppressed;
  const auto fs = RunAnalyze(in, &suppressed);
  EXPECT_EQ(CountRule(fs, kRuleBlockingUnderLock), 0);
  ASSERT_EQ(suppressed.size(), 1u);
  EXPECT_EQ(suppressed[0].rule, kRuleBlockingUnderLock);
}

TEST(SuppressionTest, OtherToolsTagIsNotHonoured) {
  AnalyzerInput in;
  in.files["src/dev.cc"] = R"cc(
#include <mutex>
void Device::Flush() {
  std::lock_guard<std::mutex> g(mu_);
  // sirius-lint: allow(blocking-under-lock)
  stream_->Sync();
}
)cc";
  EXPECT_EQ(CountRule(RunAnalyze(in), kRuleBlockingUnderLock), 1);
}

TEST(AnalyzeTest, CleanRepoIdiomsProduceNoFindings) {
  // A miniature of the real tree's patterns: consistent lock order,
  // condition-variable waits, balanced reservations, registered + swept +
  // documented fault sites.
  AnalyzerInput in;
  in.files["src/serve/mini.cc"] = R"cc(
#include <mutex>
SIRIUS_FAULT_DEFINE_SITE(kAdmit, "serve.admit");
Status Server::Submit(Query q, FaultInjector* inj) {
  std::unique_lock<std::mutex> lk(mu_);
  SIRIUS_RETURN_NOT_OK(inj->Check(kAdmit));
  if (!pool_.TryReserve(q.bytes)) {
    return Status::ResourceExhausted("over budget");
  }
  queue_.push_back(q);
  cv_.wait(lk, [this] { return !queue_.empty(); });
  pool_.Release(q.bytes);
  return Status::OK();
}
)cc";
  in.files["tests/mini_test.cc"] = R"cc(
TEST(Mini, Sweep) { inj.Arm("serve.admit", spec); }
)cc";
  in.design_md = "fault sites: serve.admit\n";
  const auto fs = RunAnalyze(in);
  EXPECT_TRUE(fs.empty()) << (fs.empty() ? "" : fs[0].message);
}

// ---------------------------------------------------------------------------
// Workload-family directories: src/ssb/ gets the full flow rules
// ---------------------------------------------------------------------------

TEST(AnalyzeTest, SsbDirectoryGetsLedgerRule) {
  // Seeded violation under a src/ssb/ path: the generator directory is part
  // of src/ and must be analyzed with the full rule set, not an
  // examples-style portable subset.
  AnalyzerInput in;
  in.files["src/ssb/gen_fixture.cc"] = R"cc(
Status ChargeGeneration(Reservation* r, bool fail_mid_table) {
  SIRIUS_RETURN_NOT_OK(r->Grow(1024));
  if (fail_mid_table) return Status::Internal("mid-generation fault");
  r->Release();
  return Status::OK();
}
)cc";
  EXPECT_TRUE(Has(RunAnalyze(in), kRuleLedgerBalance,
                  "not released on every exit path"));
}

TEST(AnalyzeTest, SsbDirectoryGetsLockOrderRule) {
  AnalyzerInput in;
  in.files["src/ssb/cache_fixture.cc"] = R"cc(
#include <mutex>
class VariantCache {
 public:
  void Fill() {
    std::lock_guard<std::mutex> g(mu_tables_);
    std::lock_guard<std::mutex> h(mu_stats_);
  }
  void Invalidate() {
    std::lock_guard<std::mutex> g(mu_stats_);
    std::lock_guard<std::mutex> h(mu_tables_);
  }
 private:
  std::mutex mu_tables_, mu_stats_;
};
)cc";
  const auto fs = RunAnalyze(in);
  EXPECT_TRUE(Has(fs, kRuleLockOrder, "ABBA"));
  EXPECT_TRUE(Has(fs, kRuleLockOrder, "VariantCache::mu_tables_"));
}

// ---------------------------------------------------------------------------
// Federated serving tier: src/cluster/ gets the full flow rules and its
// fault-site family ("cluster.*") is audited like serve's
// ---------------------------------------------------------------------------

TEST(AnalyzeTest, ClusterDirectoryGetsLedgerRule) {
  // Seeded violation under src/cluster/: the federation tier is first-class
  // src/ code with the same no-leniency policy as src/serve/.
  AnalyzerInput in;
  in.files["src/cluster/route_fixture.cc"] = R"cc(
Status ChargeRoute(Reservation* r, bool all_shed) {
  SIRIUS_RETURN_NOT_OK(r->Grow(512));
  if (all_shed) return Status::ResourceExhausted("all replicas shed");
  r->Release();
  return Status::OK();
}
)cc";
  EXPECT_TRUE(Has(RunAnalyze(in), kRuleLedgerBalance,
                  "not released on every exit path"));
}

TEST(AnalyzeTest, ClusterDirectoryGetsLockOrderRule) {
  AnalyzerInput in;
  in.files["src/cluster/replica_fixture.cc"] = R"cc(
#include <mutex>
class ReplicaMap {
 public:
  void Fill() {
    std::lock_guard<std::mutex> g(mu_entries_);
    std::lock_guard<std::mutex> h(mu_loads_);
  }
  void Invalidate() {
    std::lock_guard<std::mutex> g(mu_loads_);
    std::lock_guard<std::mutex> h(mu_entries_);
  }
 private:
  std::mutex mu_entries_, mu_loads_;
};
)cc";
  const auto fs = RunAnalyze(in);
  EXPECT_TRUE(Has(fs, kRuleLockOrder, "ABBA"));
  EXPECT_TRUE(Has(fs, kRuleLockOrder, "ReplicaMap::mu_entries_"));
}

TEST(FaultSiteTest, ClusterFamilyIsAudited) {
  // Registering any "cluster.*" site activates the family audit: a typo'd
  // literal against the injector is flagged, an unswept registration is
  // flagged, and a fully-covered site stays clean.
  AnalyzerInput in;
  in.files["src/cluster/mini.cc"] = R"cc(
SIRIUS_FAULT_DEFINE_SITE(kRoute, "cluster.route");
SIRIUS_FAULT_DEFINE_SITE(kFill, "cluster.fill");
Status Cluster::Route(FaultInjector* inj) {
  SIRIUS_RETURN_NOT_OK(inj->Check("cluster.rote"));
  return Status::OK();
}
)cc";
  in.files["tests/mini_cluster_test.cc"] = R"cc(
TEST(Cluster, RouteFault) { inj.Arm("cluster.route", spec); }
)cc";
  in.design_md = "fault sites: cluster.route, cluster.fill\n";
  const auto fs = RunAnalyze(in);
  EXPECT_TRUE(Has(fs, kRuleFaultSiteCoverage, "cluster.rote"));
  EXPECT_TRUE(Has(fs, kRuleFaultSiteCoverage, "no test coverage"));
  EXPECT_FALSE(Has(fs, kRuleFaultSiteCoverage, "\"cluster.route\" has no"));
}

TEST(FaultSiteTest, EngineFuseFamilyIsAudited) {
  // Synthetic "engine.fuse.*" sites audit like any "engine.*" family: a
  // typo'd literal against the injector is flagged, an unswept registration
  // is flagged, and the fully-covered engine.fuse.stage site stays clean.
  AnalyzerInput in;
  in.files["src/engine/mini.cc"] = R"cc(
SIRIUS_FAULT_DEFINE_SITE(kFuseStage, "engine.fuse.stage");
SIRIUS_FAULT_DEFINE_SITE(kFusePlan, "engine.fuse.plan");
Status Engine::Compile(FaultInjector* inj) {
  SIRIUS_RETURN_NOT_OK(inj->Check("engine.fuse.stag"));
  return Status::OK();
}
)cc";
  in.files["tests/mini_fusion_test.cc"] = R"cc(
TEST(Fusion, StageFaultFallsBack) { inj.Arm("engine.fuse.stage", spec); }
)cc";
  in.design_md = "fault sites: engine.fuse.stage, engine.fuse.plan\n";
  const auto fs = RunAnalyze(in);
  EXPECT_TRUE(Has(fs, kRuleFaultSiteCoverage, "engine.fuse.stag"));
  EXPECT_TRUE(Has(fs, kRuleFaultSiteCoverage, "no test coverage"));
  EXPECT_FALSE(Has(fs, kRuleFaultSiteCoverage, "\"engine.fuse.stage\" has no"));
}

TEST(SuppressionTest, EngineSuppressionIsStillCollected) {
  // src/engine/ joined the driver's no-suppression zones with the fused
  // execution paths; the library half of that contract is that allow()'d
  // findings are always moved aside for the driver to refuse.
  AnalyzerInput in;
  in.files["src/engine/fused.cc"] = R"cc(
#include <mutex>
void SiriusEngine::RunFusedPass() {
  std::lock_guard<std::mutex> g(mu_);
  // sirius-analyze: allow(blocking-under-lock)
  spill_->Join(0, now_);
}
)cc";
  std::vector<Finding> suppressed;
  const auto fs = RunAnalyze(in, &suppressed);
  EXPECT_EQ(CountRule(fs, kRuleBlockingUnderLock), 0);
  ASSERT_EQ(suppressed.size(), 1u);
  EXPECT_EQ(suppressed[0].file, "src/engine/fused.cc");
}

TEST(SuppressionTest, ClusterSuppressionIsStillCollected) {
  // The analyze library always moves allow()'d findings aside; the driver
  // then refuses them inside src/cluster/ (the serve/mem no-suppress
  // policy). This pins the library half of that contract for cluster paths.
  AnalyzerInput in;
  in.files["src/cluster/flush.cc"] = R"cc(
#include <mutex>
void ServeCluster::Flush() {
  std::lock_guard<std::mutex> g(mu_);
  // sirius-analyze: allow(blocking-under-lock)
  node_->Sync();
}
)cc";
  std::vector<Finding> suppressed;
  const auto fs = RunAnalyze(in, &suppressed);
  EXPECT_EQ(CountRule(fs, kRuleBlockingUnderLock), 0);
  ASSERT_EQ(suppressed.size(), 1u);
  EXPECT_EQ(suppressed[0].file, "src/cluster/flush.cc");
}

}  // namespace
}  // namespace sirius::analyze
