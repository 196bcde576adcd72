// The device column cache decodes once and serves what was loaded: a cached
// column keeps its decoded form and is valid only for the host column it was
// loaded from.
//
//  - BufferManager: hot scans return the stored column and charge the same
//    decode scan as decoding on access; eviction (EvictAll and pressure)
//    drops the decoded column and retires its generation; a replaced table's
//    entries go at the catalog write; a request for another version of a
//    table never serves the cached one.
//  - Stale-cache regression: every SSB query, answered on the device across
//    lineorder versions replaced through Database::CreateTable, equals the
//    CPU answer for its version — serially, and on a QueryServer with four
//    execution threads and writes interleaved.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "engine/sirius.h"
#include "mem/buffer.h"
#include "serve/serve.h"
#include "ssb/dbgen.h"
#include "ssb/queries.h"
#include "tpch/dbgen.h"

namespace sirius {
namespace {

using engine::BufferManager;
using format::TablePtr;
using mem::LifetimeTracker;

// ---------------------------------------------------------------------------
// BufferManager
// ---------------------------------------------------------------------------

TablePtr Orders() {
  static TablePtr table = tpch::GenerateTable("orders", 0.01).ValueOrDie();
  return table;
}

sim::SimContext Sim(sim::Timeline* timeline) {
  sim::SimContext sim;
  sim.device = sim::Gh200Gpu();
  sim.engine = sim::SiriusProfile();
  sim.timeline = timeline;
  return sim;
}

/// Requests `cols` of `table` under `name`; returns the served table and,
/// through `timeline`, what the request charged.
TablePtr Scan(BufferManager* bm, const std::string& name, const TablePtr& table,
              const std::vector<int>& cols, sim::Timeline* timeline) {
  auto served = bm->GetOrCacheColumns(name, table, cols, Sim(timeline));
  EXPECT_TRUE(served.ok()) << served.status().ToString();
  return served.ok() ? served.ValueOrDie() : nullptr;
}

class BufferCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    LifetimeTracker::Global().set_abort_on_violation(false);
    LifetimeTracker::Global().set_enabled(true);
    LifetimeTracker::Global().Reset();
  }
  void TearDown() override {
    LifetimeTracker::Global().Reset();
    LifetimeTracker::Global().set_enabled(false);
    LifetimeTracker::Global().set_abort_on_violation(true);
  }
};

TEST_F(BufferCacheTest, HotScansReturnTheStoredColumn) {
  BufferManager bm{BufferManager::Options{}};
  sim::Timeline t0, t1, t2;
  const TablePtr cold = Scan(&bm, "orders", Orders(), {0, 5}, &t0);
  const TablePtr hot1 = Scan(&bm, "orders", Orders(), {0, 5}, &t1);
  const TablePtr hot2 = Scan(&bm, "orders", Orders(), {0, 5}, &t2);
  ASSERT_NE(hot1, nullptr);
  ASSERT_NE(hot2, nullptr);
  for (size_t c = 0; c < 2; ++c) {
    EXPECT_EQ(hot1->column(c), hot2->column(c)) << "column " << c;
    EXPECT_EQ(cold->column(c), hot1->column(c)) << "column " << c;
  }
  // The stored column is the decoded copy, equal to the host column.
  EXPECT_TRUE(hot1->column(0)->Equals(*Orders()->column(0)));
  EXPECT_TRUE(hot1->column(1)->Equals(*Orders()->column(5)));
}

// A hot scan charges the decode scan (compressed + decoded bytes, two ops a
// value) exactly as decoding on every access did; the values are pinned from
// that implementation, at a data scale where the bytes dominate the launch.
TEST_F(BufferCacheTest, HotScanChargesThePinnedDecodeScan) {
  BufferManager bm{BufferManager::Options{}};
  auto scan_seconds = [&bm](const std::vector<int>& cols) {
    sim::Timeline timeline;
    sim::SimContext sim = Sim(&timeline);
    sim.data_scale = 1000;
    EXPECT_TRUE(bm.GetOrCacheColumns("orders", Orders(), cols, sim).ok());
    EXPECT_EQ(timeline.seconds(sim::OpCategory::kOther) > 0, cols.size() == 2);
    return timeline.seconds(sim::OpCategory::kScan);
  };
  scan_seconds({0, 5});  // cold: loads both
  EXPECT_DOUBLE_EQ(scan_seconds({0}), 9.6000000000000002e-05);  // o_orderkey
  EXPECT_DOUBLE_EQ(scan_seconds({5}),
                   0.00013007066666666667);  // o_orderpriority
}

TEST_F(BufferCacheTest, EvictAllDropsTheDecodedColumn) {
  BufferManager bm{BufferManager::Options{}};
  sim::Timeline t0, t1;
  const TablePtr before = Scan(&bm, "orders", Orders(), {0}, &t0);
  auto handle = bm.HandleFor("orders", 0);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();

  EXPECT_EQ(bm.EvictAll(), 1u);
  EXPECT_EQ(bm.cached_modeled_bytes(), 0u);
  const TablePtr after = Scan(&bm, "orders", Orders(), {0}, &t1);
  EXPECT_NE(before->column(0), after->column(0));
  // The next scan is a cold load: same transfer and decode charges again.
  EXPECT_GT(t1.seconds(sim::OpCategory::kOther), 0.0);
  EXPECT_DOUBLE_EQ(t1.total_seconds(), t0.total_seconds());

  const Status stale = bm.ValidateHandle(handle.ValueOrDie());
  EXPECT_EQ(stale.code(), StatusCode::kExecutionError) << stale.ToString();
  EXPECT_NE(stale.message().find("use-after-evict"), std::string::npos);
  ASSERT_GE(LifetimeTracker::Global().violation_count(), 1u);
  EXPECT_EQ(LifetimeTracker::Global().violations()[0].kind,
            LifetimeTracker::ViolationKind::kUseAfterFree);
}

TEST_F(BufferCacheTest, PressureEvictionDropsTheDecodedColumn) {
  // Size the caching region to fit either column alone but not both.
  auto encoded_bytes = [](int c) {
    return format::Encode(Orders()->column(c)).ValueOrDie().CompressedBytes();
  };
  const uint64_t col0 = encoded_bytes(0);
  const uint64_t col1 = encoded_bytes(1);
  BufferManager::Options options;
  options.device_capacity_bytes = 2 * (col0 + col1 - 1);
  options.cache_fraction = 0.5;
  BufferManager bm{options};
  ASSERT_GE(bm.cache_capacity_bytes(), std::max(col0, col1));
  ASSERT_LT(bm.cache_capacity_bytes(), col0 + col1);

  sim::Timeline t0, t1, t2;
  const TablePtr before = Scan(&bm, "orders", Orders(), {0}, &t0);
  auto handle = bm.HandleFor("orders", 0).ValueOrDie();
  Scan(&bm, "orders", Orders(), {1}, &t1);  // evicts column 0
  EXPECT_EQ(bm.eviction_count(), 1u);
  EXPECT_FALSE(bm.IsCached("orders", 0));

  const TablePtr after = Scan(&bm, "orders", Orders(), {0}, &t2);
  EXPECT_NE(before->column(0), after->column(0));
  EXPECT_DOUBLE_EQ(t2.total_seconds(), t0.total_seconds());
  const Status stale = bm.ValidateHandle(handle);
  EXPECT_EQ(stale.code(), StatusCode::kExecutionError) << stale.ToString();
  EXPECT_NE(stale.message().find("use-after-evict"), std::string::npos);
}

/// Two versions of one table whose column 1 differs.
TablePtr Version(int v) {
  static const std::vector<TablePtr> versions = [] {
    std::vector<TablePtr> out;
    for (uint64_t seed : {1, 2}) {
      ssb::SsbOptions o;
      o.seed = seed;
      out.push_back(ssb::GenerateTable("lineorder", o).ValueOrDie());
    }
    return out;
  }();
  return versions[static_cast<size_t>(v)];
}

TEST_F(BufferCacheTest, AnotherVersionOfTheTableIsNeverServed) {
  ASSERT_FALSE(Version(0)->column(1)->Equals(*Version(1)->column(1)));
  BufferManager bm{BufferManager::Options{}};
  sim::Timeline t0, t1, t2, t3;
  Scan(&bm, "lineorder", Version(0), {1}, &t0);
  // The new version reloads instead of serving the cached old one...
  const TablePtr new_served = Scan(&bm, "lineorder", Version(1), {1}, &t1);
  EXPECT_TRUE(new_served->column(0)->Equals(*Version(1)->column(1)));
  EXPECT_GT(t1.seconds(sim::OpCategory::kOther), 0.0);
  // ...and the reverse: a query still on the old version gets the old one.
  const TablePtr old_again = Scan(&bm, "lineorder", Version(0), {1}, &t2);
  EXPECT_TRUE(old_again->column(0)->Equals(*Version(0)->column(1)));
  EXPECT_NE(old_again->column(0), new_served->column(0));
  EXPECT_GT(t2.seconds(sim::OpCategory::kOther), 0.0);
  // One entry per column: the superseded one holds no capacity.
  const TablePtr hot = Scan(&bm, "lineorder", Version(0), {1}, &t3);
  EXPECT_EQ(hot->column(0), old_again->column(0));
  EXPECT_EQ(t3.seconds(sim::OpCategory::kOther), 0.0);
  EXPECT_EQ(bm.cached_modeled_bytes(),
            format::Encode(Version(0)->column(1)).ValueOrDie().CompressedBytes());
  EXPECT_EQ(bm.eviction_count(), 0u);
}

TEST_F(BufferCacheTest, CatalogWriteDropsTheReplacedTableAtOnce) {
  host::Database db;
  ASSERT_TRUE(db.CreateTable("lineorder", Version(0)).ok());
  ASSERT_TRUE(db.CreateTable("orders", Orders()).ok());
  engine::SiriusEngine eng(&db, {});
  BufferManager& bm = eng.buffer_manager();
  sim::Timeline timeline;
  Scan(&bm, "lineorder", Version(0), {0, 1, 2}, &timeline);
  Scan(&bm, "orders", Orders(), {0}, &timeline);
  const uint64_t both = bm.cached_modeled_bytes();
  const uint64_t orders_only =
      format::Encode(Orders()->column(0)).ValueOrDie().CompressedBytes();
  ASSERT_GT(both, orders_only);

  ASSERT_TRUE(db.CreateTable("lineorder", Version(1)).ok());
  for (int c : {0, 1, 2}) EXPECT_FALSE(bm.IsCached("lineorder", c)) << c;
  EXPECT_TRUE(bm.IsCached("orders", 0));
  EXPECT_EQ(bm.cached_modeled_bytes(), orders_only);
  // A drop at a write is not a pressure eviction.
  EXPECT_EQ(bm.eviction_count(), 0u);
}

TEST_F(BufferCacheTest, EngineStopsListeningWhenDestroyed) {
  host::Database db;
  ASSERT_TRUE(db.CreateTable("lineorder", Version(0)).ok());
  {
    engine::SiriusEngine eng(&db, {});
  }
  // Would call into the destroyed engine's buffer manager if still
  // listening (a use-after-free that the AddressSanitizer build reports).
  EXPECT_TRUE(db.CreateTable("lineorder", Version(1)).ok());
}

// ---------------------------------------------------------------------------
// Stale-cache regression: SSB across lineorder versions
// ---------------------------------------------------------------------------

constexpr int kVersions = 3;

/// An SSB database at SF 0.01 plus three seeded lineorder versions, with the
/// CPU answer to every SSB query on every version.
struct SsbVersions {
  host::Database db;
  std::vector<TablePtr> lineorder;
  std::vector<std::vector<TablePtr>> answers;  ///< [version][query - 1]

  SsbVersions() {
    SIRIUS_CHECK_OK(ssb::LoadSsb(&db, ssb::SsbOptions{}));
    for (int v = 0; v < kVersions; ++v) {
      ssb::SsbOptions o;
      o.seed = 100 + static_cast<uint64_t>(v);
      lineorder.push_back(ssb::GenerateTable("lineorder", o).ValueOrDie());
      SIRIUS_CHECK_OK(db.CreateTable("lineorder", lineorder.back()));
      answers.emplace_back();
      for (int q = 1; q <= ssb::NumQueries(); ++q) {
        auto plan = db.PlanSql(ssb::Query(q)).ValueOrDie();
        answers.back().push_back(db.ExecutePlanCpu(plan).ValueOrDie().table);
      }
    }
  }
};

bool SameAnswer(const TablePtr& a, const TablePtr& b) {
  return a->Equals(*b) || a->EqualsUnordered(*b);
}

TEST(StaleCacheTest, EverySsbQueryFollowsEveryLineorderVersion) {
  SsbVersions s;
  engine::SiriusEngine eng(&s.db, {});
  s.db.SetAccelerator(&eng);
  // Back to version 0 at the end: the same host table object as the first
  // pass, after two other versions were cached in between.
  for (int v : {0, 1, 2, 0}) {
    ASSERT_TRUE(s.db.CreateTable("lineorder", s.lineorder[v]).ok());
    // Twice per version: the second pass is served from the cache.
    for (int pass = 0; pass < 2; ++pass) {
      for (int q = 1; q <= ssb::NumQueries(); ++q) {
        const std::string label = "version " + std::to_string(v) + " " +
                                  ssb::QueryName(q) + " pass " +
                                  std::to_string(pass);
        auto r = s.db.Query(ssb::Query(q));
        ASSERT_TRUE(r.ok()) << label << ": " << r.status().ToString();
        EXPECT_TRUE(r.ValueOrDie().accelerated) << label;
        EXPECT_TRUE(SameAnswer(r.ValueOrDie().table, s.answers[v][q - 1]))
            << label << "\ndevice:\n"
            << r.ValueOrDie().table->ToString(8) << "\nCPU:\n"
            << s.answers[v][q - 1]->ToString(8);
      }
    }
  }
  s.db.SetAccelerator(nullptr);
}

/// Submits every SSB query to `server` and drains it; returns the outcomes
/// in query order.
std::vector<serve::QueryOutcome> ServeAllSsb(serve::QueryServer* server,
                                             serve::SessionId session) {
  serve::SubmitOptions submit;
  submit.keep_result = true;
  submit.bypass_cache = true;
  std::vector<serve::QueryId> ids;
  for (int q = 1; q <= ssb::NumQueries(); ++q) {
    auto id = server->Submit(session, ssb::Query(q), submit);
    EXPECT_TRUE(id.ok()) << ssb::QueryName(q) << ": " << id.status().ToString();
    if (id.ok()) ids.push_back(id.ValueOrDie());
  }
  std::vector<serve::QueryOutcome> outcomes;
  for (serve::QueryId id : ids) {
    auto outcome = server->Resolve(id);
    EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
    if (outcome.ok()) outcomes.push_back(outcome.ValueOrDie());
  }
  return outcomes;
}

serve::ServeOptions FourThreads() {
  serve::ServeOptions options;
  options.execution_threads = 4;
  return options;
}

TEST(StaleCacheServeTest, QueryServerFollowsInterleavedWrites) {
  SsbVersions s;
  engine::SiriusEngine eng(&s.db, {});
  serve::QueryServer server(&s.db, &eng, FourThreads());
  const serve::SessionId session = server.OpenSession("ssb");
  for (int v : {0, 1, 2, 0, 2}) {
    ASSERT_TRUE(s.db.CreateTable("lineorder", s.lineorder[v]).ok());
    const std::vector<serve::QueryOutcome> outcomes =
        ServeAllSsb(&server, session);
    ASSERT_EQ(outcomes.size(), static_cast<size_t>(ssb::NumQueries()));
    for (int q = 1; q <= ssb::NumQueries(); ++q) {
      const serve::QueryOutcome& o = outcomes[q - 1];
      const std::string label =
          "version " + std::to_string(v) + " " + ssb::QueryName(q);
      ASSERT_EQ(o.state, serve::QueryState::kCompleted)
          << label << ": " << o.status.ToString();
      EXPECT_FALSE(o.fell_back) << label;
      EXPECT_TRUE(SameAnswer(o.table, s.answers[v][q - 1])) << label;
    }
  }
}

// Writes race the queries: a writer thread replaces lineorder while the
// server's four execution threads scan it, so catalog write listeners run
// concurrently with cache loads and hits (the ThreadSanitizer target).
// Answers taken mid-write may mix versions; every query must still complete,
// and once the writer stops the cache serves the final version only.
TEST(StaleCacheServeTest, WritesRacingQueriesLeaveNoStaleColumns) {
  SsbVersions s;
  engine::SiriusEngine eng(&s.db, {});
  serve::QueryServer server(&s.db, &eng, FourThreads());
  const serve::SessionId session = server.OpenSession("ssb");

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (int i = 0; !stop.load(); ++i) {
      SIRIUS_CHECK_OK(s.db.CreateTable("lineorder", s.lineorder[i % kVersions]));
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  });
  for (int round = 0; round < 3; ++round) {
    for (const serve::QueryOutcome& o : ServeAllSsb(&server, session)) {
      EXPECT_EQ(o.state, serve::QueryState::kCompleted) << o.status.ToString();
    }
  }
  stop.store(true);
  writer.join();

  ASSERT_TRUE(s.db.CreateTable("lineorder", s.lineorder[1]).ok());
  const std::vector<serve::QueryOutcome> outcomes = ServeAllSsb(&server, session);
  ASSERT_EQ(outcomes.size(), static_cast<size_t>(ssb::NumQueries()));
  for (int q = 1; q <= ssb::NumQueries(); ++q) {
    const serve::QueryOutcome& o = outcomes[q - 1];
    ASSERT_EQ(o.state, serve::QueryState::kCompleted) << o.status.ToString();
    EXPECT_TRUE(SameAnswer(o.table, s.answers[1][q - 1])) << ssb::QueryName(q);
  }
}

}  // namespace
}  // namespace sirius
