// Snapshot persistence & crash recovery.
//
// The contract under test: AqpEngine::Save captures *complete* operational
// state — archive layout, sampler contents, RNG streams, index structures
// shape-exact — so that (a) a restored engine answers bit-identically, and
// (b) restoring a snapshot and replaying the broker-stream tail from the
// recorded offsets reproduces an uninterrupted run exactly. Plus the
// format-hardening negatives: wrong magic, truncated files, flipped bits and
// cross-engine snapshots all fail with persist::PersistError, never a crash.

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/config.h"
#include "api/driver.h"
#include "api/engine.h"
#include "api/registry.h"
#include "data/column_store.h"
#include "data/generators.h"
#include "index/dynamic_kd_tree.h"
#include "index/order_stat_tree.h"
#include "persist/common.h"
#include "persist/snapshot.h"
#include "stream/broker.h"
#include "tests/test_seed.h"
#include "util/rng.h"

namespace janus {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// ---------------------------------------------------------------------------
// Serde primitives.
// ---------------------------------------------------------------------------

TEST(SerdeTest, PrimitivesRoundTripBitExactly) {
  persist::Writer w;
  w.U8(7);
  w.U32(0xDEADBEEFu);
  w.U64(0x0123456789ABCDEFull);
  w.I32(-42);
  w.I64(-1234567890123ll);
  w.Bool(true);
  w.Bool(false);
  w.F64(0.1);
  w.F64(-0.0);
  w.F64(std::numeric_limits<double>::infinity());
  w.F64(std::numeric_limits<double>::quiet_NaN());
  w.Str("hello");
  w.Str("");
  w.F64Vec({1.5, -2.5});
  w.IntVec({});

  persist::Reader r(w.buffer());
  EXPECT_EQ(r.U8(), 7);
  EXPECT_EQ(r.U32(), 0xDEADBEEFu);
  EXPECT_EQ(r.U64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.I32(), -42);
  EXPECT_EQ(r.I64(), -1234567890123ll);
  EXPECT_TRUE(r.Bool());
  EXPECT_FALSE(r.Bool());
  EXPECT_EQ(r.F64(), 0.1);
  const double neg_zero = r.F64();
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero));
  EXPECT_EQ(r.F64(), std::numeric_limits<double>::infinity());
  EXPECT_TRUE(std::isnan(r.F64()));
  EXPECT_EQ(r.Str(), "hello");
  EXPECT_EQ(r.Str(), "");
  EXPECT_EQ(r.F64Vec(), (std::vector<double>{1.5, -2.5}));
  EXPECT_TRUE(r.IntVec().empty());
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerdeTest, ReadPastEndThrowsCleanly) {
  persist::Writer w;
  w.U32(1);
  persist::Reader r(w.buffer());
  EXPECT_EQ(r.U32(), 1u);
  EXPECT_THROW(r.U64(), persist::PersistError);
}

TEST(SerdeTest, HostileLengthPrefixIsRejected) {
  persist::Writer w;
  w.U64(1ull << 60);  // a "length" far past any real payload
  persist::Reader r(w.buffer());
  EXPECT_THROW(r.Size(), persist::PersistError);
}

// ---------------------------------------------------------------------------
// State-carrier round trips: RNG, columnar store, index trees.
// ---------------------------------------------------------------------------

TEST(PersistStateTest, RngStreamContinuesBitIdentically) {
  Rng a(TestSeed());
  for (int i = 0; i < 100; ++i) a.Normal(0, 1);  // populate the cached normal
  persist::Writer w;
  a.SaveTo(&w);
  Rng b(999);  // different seed; LoadFrom must fully overwrite
  persist::Reader r(w.buffer());
  b.LoadFrom(&r);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.Next(), b.Next()) << i;
  }
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.Normal(3, 2), b.Normal(3, 2)) << i;
  }
}

TEST(PersistStateTest, ColumnStorePreservesPhysicalLayout) {
  Schema schema;
  schema.column_names = {"k", "v", "w"};
  ColumnStore store(schema);
  Rng rng(TestSeed() + 1);
  for (uint64_t id = 0; id < 500; ++id) {
    Tuple t;
    t.id = id;
    t[0] = rng.NextDouble();
    t[1] = rng.Normal(0, 1);
    t[2] = rng.Uniform(-5, 5);
    store.Insert(t);
  }
  for (uint64_t id = 0; id < 500; id += 3) store.Delete(id);  // swap-removes

  persist::Writer w;
  store.SaveTo(&w);
  ColumnStore restored(schema);
  persist::Reader r(w.buffer());
  restored.LoadFrom(&r);

  // A store configured under a different schema must refuse the snapshot
  // (column indexes would silently change meaning otherwise).
  {
    ColumnStore mismatched(Schema{});
    persist::Reader r2(w.buffer());
    EXPECT_THROW(mismatched.LoadFrom(&r2), persist::PersistError);
  }

  ASSERT_EQ(restored.size(), store.size());
  EXPECT_EQ(restored.schema().column_names, store.schema().column_names);
  EXPECT_EQ(restored.num_columns(), store.num_columns());
  // Physical position order is part of the state (samplers draw positions).
  EXPECT_EQ(restored.ids(), store.ids());
  for (size_t pos = 0; pos < store.size(); ++pos) {
    for (int c = 0; c < store.num_columns(); ++c) {
      ASSERT_EQ(restored.value(pos, c), store.value(pos, c));
    }
  }
  // The rebuilt id index answers identically.
  EXPECT_TRUE(restored.Contains(1));
  EXPECT_FALSE(restored.Contains(0));
  // Position-based sampling replays identically.
  Rng ra(TestSeed() + 2), rb(TestSeed() + 2);
  const auto sa = store.SampleUniform(&ra, 50);
  const auto sb = restored.SampleUniform(&rb, 50);
  ASSERT_EQ(sa.size(), sb.size());
  for (size_t i = 0; i < sa.size(); ++i) ASSERT_EQ(sa[i].id, sb[i].id);
}

TEST(PersistStateTest, OrderStatTreeRoundTripsAndKeepsEvolvingIdentically) {
  OrderStatTree a;
  Rng rng(TestSeed() + 3);
  std::vector<std::pair<double, double>> pts;
  for (int i = 0; i < 400; ++i) {
    const double k = rng.NextDouble();
    const double v = rng.Normal(0, 3);
    pts.emplace_back(k, v);
    a.Insert(k, v);
  }
  for (int i = 0; i < 150; ++i) {
    const auto& [k, v] = pts[static_cast<size_t>(rng.NextUint64(pts.size()))];
    a.Delete(k, v);
  }

  persist::Writer w;
  a.SaveTo(&w);
  OrderStatTree b;
  persist::Reader r(w.buffer());
  b.LoadFrom(&r);

  ASSERT_EQ(b.size(), a.size());
  std::vector<std::pair<double, double>> da, db;
  a.Dump(&da);
  b.Dump(&db);
  EXPECT_EQ(da, db);
  for (size_t rank = 0; rank <= a.size(); rank += 7) {
    const TreeAgg pa = a.PrefixAggregate(rank);
    const TreeAgg pb = b.PrefixAggregate(rank);
    ASSERT_EQ(pa.count, pb.count);
    ASSERT_EQ(pa.sum, pb.sum);
    ASSERT_EQ(pa.sumsq, pb.sumsq);
  }
  // The priority RNG round-trips too: identical structure after identical
  // further inserts (future rebalances depend on future priorities).
  for (int i = 0; i < 200; ++i) {
    const double k = 2.0 + i * 0.001;
    a.Insert(k, k);
    b.Insert(k, k);
  }
  da.clear();
  db.clear();
  a.Dump(&da);
  b.Dump(&db);
  EXPECT_EQ(da, db);
  const TreeAgg ta = a.KeyRangeAggregate(0.25, 2.1);
  const TreeAgg tb = b.KeyRangeAggregate(0.25, 2.1);
  EXPECT_EQ(ta.sum, tb.sum);
  EXPECT_EQ(ta.sumsq, tb.sumsq);
}

TEST(PersistStateTest, KdTreeRoundTripsCachesAndReportOrderExactly) {
  DynamicKdTree a(2);
  Rng rng(TestSeed() + 4);
  std::vector<KdPoint> pts;
  for (uint64_t id = 0; id < 600; ++id) {
    KdPoint p;
    p.x[0] = rng.NextDouble();
    p.x[1] = rng.NextDouble();
    p.a = rng.Normal(10, 2);
    p.id = id;
    pts.push_back(p);
  }
  a.Build(std::vector<KdPoint>(pts.begin(), pts.begin() + 300));
  // Incremental history: the caches now hold x + a - b style sums that a
  // fresh rebuild would not reproduce — they must serialize verbatim.
  for (size_t i = 300; i < pts.size(); ++i) a.Insert(pts[i]);
  for (size_t i = 0; i < 200; ++i) a.Delete(pts[i].x.data(), pts[i].id);

  persist::Writer w;
  a.SaveTo(&w);
  DynamicKdTree b(2);
  persist::Reader r(w.buffer());
  b.LoadFrom(&r);

  ASSERT_EQ(b.size(), a.size());
  for (int trial = 0; trial < 50; ++trial) {
    const double lo0 = rng.NextDouble() * 0.8;
    const double lo1 = rng.NextDouble() * 0.8;
    const Rectangle rect({lo0, lo1}, {lo0 + 0.3, lo1 + 0.3});
    const TreeAgg aa = a.RangeAggregate(rect);
    const TreeAgg ab = b.RangeAggregate(rect);
    ASSERT_EQ(aa.count, ab.count);
    ASSERT_EQ(aa.sum, ab.sum);
    ASSERT_EQ(aa.sumsq, ab.sumsq);
    // Report order is load-bearing (query code sums in report order).
    std::vector<KdPoint> oa, ob;
    a.Report(rect, &oa);
    b.Report(rect, &ob);
    ASSERT_EQ(oa.size(), ob.size());
    for (size_t i = 0; i < oa.size(); ++i) {
      ASSERT_EQ(oa[i].id, ob[i].id);
      ASSERT_EQ(oa[i].a, ob[i].a);
    }
    const TreeAgg ca = a.MaxSumsqCell(rect, 16);
    const TreeAgg cb = b.MaxSumsqCell(rect, 16);
    ASSERT_EQ(ca.sumsq, cb.sumsq);
  }
}

// ---------------------------------------------------------------------------
// Format hardening: corrupt files fail cleanly.
// ---------------------------------------------------------------------------

class SnapshotFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TempPath("persist_format.snap");
    EngineConfig cfg;
    cfg.seed = TestSeed();
    engine_ = EngineRegistry::Create("rs", cfg);
    auto ds = GenerateUniform(2000, 1, TestSeed() + 5);
    engine_->LoadInitial(ds.rows);
    engine_->Initialize();
    engine_->Save(path_);
  }

  void TearDown() override { std::remove(path_.c_str()); }

  std::vector<uint8_t> ReadRaw() {
    std::FILE* f = std::fopen(path_.c_str(), "rb");
    EXPECT_NE(f, nullptr);
    std::vector<uint8_t> bytes;
    uint8_t chunk[4096];
    size_t n;
    while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
      bytes.insert(bytes.end(), chunk, chunk + n);
    }
    std::fclose(f);
    return bytes;
  }

  void WriteRaw(const std::vector<uint8_t>& bytes) {
    std::FILE* f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
  }

  std::string path_;
  std::unique_ptr<AqpEngine> engine_;
};

TEST_F(SnapshotFileTest, ValidFileLoads) {
  EngineConfig cfg;
  cfg.seed = TestSeed();
  auto fresh = EngineRegistry::Create("rs", cfg);
  EXPECT_NO_THROW(fresh->Load(path_));
}

TEST_F(SnapshotFileTest, MissingFileThrows) {
  EXPECT_THROW(engine_->Load(TempPath("no_such_file.snap")),
               persist::PersistError);
}

TEST_F(SnapshotFileTest, WrongMagicThrows) {
  auto bytes = ReadRaw();
  bytes[0] ^= 0xFF;
  WriteRaw(bytes);
  EXPECT_THROW(engine_->Load(path_), persist::PersistError);
}

TEST_F(SnapshotFileTest, UnsupportedVersionThrows) {
  auto bytes = ReadRaw();
  bytes[4] = 99;  // version field
  WriteRaw(bytes);
  EXPECT_THROW(engine_->Load(path_), persist::PersistError);
}

TEST_F(SnapshotFileTest, VersionOneFileIsRejected) {
  // Version 2 changed multi's payload, so no version-1 payload is decoded.
  auto bytes = ReadRaw();
  ASSERT_EQ(bytes[4], persist::kSnapshotVersion);
  bytes[4] = 1;
  WriteRaw(bytes);
  try {
    engine_->Load(path_);
    ADD_FAILURE() << "a version-1 snapshot was loaded";
  } catch (const persist::PersistError& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported snapshot format "
                                         "version 1"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(SnapshotFileTest, TruncatedFileThrows) {
  auto bytes = ReadRaw();
  ASSERT_GT(bytes.size(), 100u);
  bytes.resize(bytes.size() / 2);
  WriteRaw(bytes);
  EXPECT_THROW(engine_->Load(path_), persist::PersistError);
  // Truncated inside the header too.
  bytes.resize(10);
  WriteRaw(bytes);
  EXPECT_THROW(engine_->Load(path_), persist::PersistError);
  bytes.clear();
  WriteRaw(bytes);
  EXPECT_THROW(engine_->Load(path_), persist::PersistError);
}

TEST_F(SnapshotFileTest, FlippedPayloadBitFailsChecksum) {
  auto bytes = ReadRaw();
  bytes[bytes.size() / 2] ^= 0x01;
  WriteRaw(bytes);
  EXPECT_THROW(engine_->Load(path_), persist::PersistError);
}

TEST_F(SnapshotFileTest, EngineIsStillUsableAfterFailedLoad) {
  auto bytes = ReadRaw();
  bytes[0] ^= 0xFF;
  WriteRaw(bytes);
  EXPECT_THROW(engine_->Load(path_), persist::PersistError);
  // The failed load never touched engine state: it still answers.
  AggQuery q;
  q.func = AggFunc::kCount;
  q.agg_column = 1;
  q.predicate_columns = {0};
  q.rect = Rectangle({0.0}, {1.0});
  EXPECT_GT(engine_->Query(q).estimate, 0.0);
}

// ---------------------------------------------------------------------------
// Randomized crash recovery: snapshot at a random stream prefix, replay the
// tail, and the recovered engine must be indistinguishable from a run that
// never stopped — answers and stats bit-identical.
// ---------------------------------------------------------------------------

bool SameResult(const QueryResult& a, const QueryResult& b) {
  return a.estimate == b.estimate && a.ci_half_width == b.ci_half_width &&
         a.variance_catchup == b.variance_catchup &&
         a.variance_sample == b.variance_sample &&
         a.covered_nodes == b.covered_nodes &&
         a.partial_leaves == b.partial_leaves && a.exact == b.exact;
}

AggQuery TemplateQuery(AggFunc f, double lo, double hi) {
  AggQuery q;
  q.func = f;
  q.agg_column = 1;
  q.predicate_columns = {0};
  q.rect = Rectangle({lo}, {hi});
  return q;
}

/// `discover_before_crash` puts a query over a second predicate set (the
/// aggregate column) first in the query stream and every 7th after it, so
/// multi builds that template before the crash point and must restore it.
void RunCrashRecoveryScenario(const std::string& engine_name, uint64_t seed,
                              bool with_catchup_steps,
                              bool discover_before_crash = false) {
  SCOPED_TRACE(engine_name + " seed=" + std::to_string(seed));
  EngineConfig cfg;
  cfg.engine = engine_name;
  cfg.num_leaves = 16;
  cfg.sample_rate = 0.02;
  cfg.num_shards = 2;
  cfg.seed = seed;
  // Default trigger settings stay on for janus: recovery must survive
  // re-partitions firing mid-stream.

  auto ds = GenerateUniform(5000, 1, seed + 100);
  auto engine_a = EngineRegistry::Create(engine_name, cfg);
  engine_a->LoadInitial(ds.rows);
  engine_a->Initialize();

  // The stream: inserts, deletes and queries through the broker.
  Broker broker;
  broker.insert_topic()->set_poll_overhead_ns(0);
  broker.delete_topic()->set_poll_overhead_ns(0);
  Rng rng(seed + 200);
  std::vector<Tuple> inserts;
  for (int i = 0; i < 1500; ++i) {
    Tuple t;
    t.id = 600000 + static_cast<uint64_t>(i);
    t[0] = rng.NextDouble();
    t[1] = rng.Normal(10, 2);
    inserts.push_back(t);
  }
  broker.insert_topic()->AppendBatch(inserts);
  std::vector<Tuple> dels;
  for (int i = 0; i < 400; ++i) {
    Tuple t;
    t.id = rng.NextUint64(5000);  // some repeat: deletes of dead ids no-op
    dels.push_back(t);
  }
  broker.delete_topic()->AppendBatch(dels);
  // Enough queries that the request stream spans several pump rounds, so
  // random crash points land both between and mid-way through the answered
  // prefix.
  for (int i = 0; i < 300; ++i) {
    const double lo = 0.045 * (i % 13);
    if (discover_before_crash && i % 7 == 0) {
      AggQuery q;
      q.func = AggFunc::kSum;
      q.agg_column = 1;
      q.predicate_columns = {1};
      q.rect = Rectangle({8.0 + lo}, {11.5 + lo});
      broker.query_topic()->Append(q);
      continue;
    }
    broker.query_topic()->Append(TemplateQuery(AggFunc::kSum, lo, lo + 0.35));
  }

  EngineDriverOptions dopts;
  dopts.poll_batch = 97;  // several pump rounds over the stream
  if (with_catchup_steps) dopts.catchup_step = 64;
  EngineDriver driver_a(engine_a.get(), &broker, dopts);

  // Consume a random prefix (whole pump rounds), then snapshot — this is the
  // "crash point".
  const size_t rounds_before_crash = 1 + rng.NextUint64(12);
  for (size_t i = 0; i < rounds_before_crash; ++i) driver_a.PumpOnce();
  const std::string path =
      TempPath("crash_" + std::to_string(seed) + "_" +
               [&] {
                 std::string s = engine_name;
                 for (char& c : s) {
                   if (c == ':') c = '_';
                 }
                 return s;
               }());
  driver_a.SaveSnapshot(path);
  (void)driver_a.TakeResults();  // answers from before the crash point
  const int templates_at_crash = engine_a->Stats().num_templates;
  if (discover_before_crash) {
    EXPECT_EQ(templates_at_crash, 2);
  }

  // The uninterrupted run continues to the end of the stream.
  driver_a.Drain();
  const std::vector<QueryResult> tail_a = driver_a.TakeResults();

  // The recovery: a fresh engine from the same config, restored from the
  // snapshot, replays the tail from the recorded offsets.
  auto engine_b = EngineRegistry::Create(engine_name, cfg);
  EngineDriver driver_b(engine_b.get(), &broker, dopts);
  driver_b.LoadSnapshot(path);
  EXPECT_GT(driver_b.insert_offset() + driver_b.delete_offset(), 0u);
  EXPECT_EQ(engine_b->Stats().num_templates, templates_at_crash);
  driver_b.Drain();
  const std::vector<QueryResult> tail_b = driver_b.TakeResults();

  // Replayed query answers match the uninterrupted run's, bitwise.
  ASSERT_EQ(tail_a.size(), tail_b.size());
  for (size_t i = 0; i < tail_b.size(); ++i) {
    EXPECT_TRUE(SameResult(tail_a[i], tail_b[i])) << "replayed query " << i;
  }

  // Exact answers to a fresh workload match bitwise, every aggregate.
  for (AggFunc f : {AggFunc::kSum, AggFunc::kCount, AggFunc::kAvg,
                    AggFunc::kMin, AggFunc::kMax}) {
    for (int i = 0; i < 6; ++i) {
      const AggQuery q = TemplateQuery(f, 0.13 * i, 0.13 * i + 0.3);
      EXPECT_TRUE(SameResult(engine_a->Query(q), engine_b->Query(q)))
          << AggFuncName(f) << " window " << i;
    }
  }
  // Queries off the template match bitwise too: a predicate on the
  // aggregate column, and an aggregate of the predicate column. All but the
  // template-predicate COUNT answer from the pooled sample alone.
  for (AggFunc f : {AggFunc::kSum, AggFunc::kCount, AggFunc::kAvg}) {
    AggQuery q;
    q.func = f;
    q.agg_column = 1;
    q.predicate_columns = {1};
    q.rect = Rectangle({8.0}, {11.5});
    EXPECT_TRUE(SameResult(engine_a->Query(q), engine_b->Query(q)))
        << AggFuncName(f) << " over a predicate on the aggregate column";
    q.agg_column = 0;
    q.predicate_columns = {0};
    q.rect = Rectangle({0.2}, {0.9});
    EXPECT_TRUE(SameResult(engine_a->Query(q), engine_b->Query(q)))
        << AggFuncName(f) << " of the predicate column";
  }

  // Stats converge to the same counters and footprints.
  const EngineStats sa = engine_a->Stats();
  const EngineStats sb = engine_b->Stats();
  EXPECT_EQ(sa.rows, sb.rows);
  EXPECT_EQ(sa.sample_size, sb.sample_size);
  EXPECT_EQ(sa.inserts, sb.inserts);
  EXPECT_EQ(sa.deletes, sb.deletes);
  EXPECT_EQ(sa.repartitions, sb.repartitions);
  EXPECT_EQ(sa.trigger_checks, sb.trigger_checks);
  EXPECT_EQ(sa.trigger_fires, sb.trigger_fires);
  EXPECT_EQ(sa.reservoir_resamples, sb.reservoir_resamples);
  // Byte footprints are computed from container *capacities*, which reflect
  // allocator growth history rather than logical state — a freshly restored
  // engine is typically tighter. Same ballpark (within the 2x growth slack of vector doubling), not bitwise.
  EXPECT_GT(sb.archive_bytes, 0u);
  EXPECT_LE(sa.archive_bytes, 3 * sb.archive_bytes);
  EXPECT_LE(sb.archive_bytes, 3 * sa.archive_bytes);
  EXPECT_LE(sa.synopsis_bytes, 3 * sb.synopsis_bytes + 1024);
  EXPECT_LE(sb.synopsis_bytes, 3 * sa.synopsis_bytes + 1024);

  std::remove(path.c_str());
}

TEST(CrashRecoveryTest, JanusRecoversExactlyAcrossRandomCrashPoints) {
  for (uint64_t s = 0; s < 3; ++s) {
    RunCrashRecoveryScenario("janus", TestSeed() + s, /*with_catchup_steps=*/
                             s % 2 == 0);
  }
}

TEST(CrashRecoveryTest, BaselinesRecoverExactly) {
  RunCrashRecoveryScenario("rs", TestSeed() + 11, false);
  RunCrashRecoveryScenario("srs", TestSeed() + 12, false);
  RunCrashRecoveryScenario("spn", TestSeed() + 13, false);
  RunCrashRecoveryScenario("spt", TestSeed() + 14, false);
  RunCrashRecoveryScenario("multi", TestSeed() + 15, true);
}

TEST(CrashRecoveryTest, MultiRecoversTemplatesDiscoveredBeforeTheCrash) {
  RunCrashRecoveryScenario("multi", TestSeed() + 16, true,
                           /*discover_before_crash=*/true);
  RunCrashRecoveryScenario("sharded:multi", TestSeed() + 23, false,
                           /*discover_before_crash=*/true);
}

TEST(CrashRecoveryTest, ShardedEnginesRecoverExactly) {
  RunCrashRecoveryScenario("sharded:janus", TestSeed() + 21, false);
  RunCrashRecoveryScenario("sharded:rs", TestSeed() + 22, false);
}

// ---------------------------------------------------------------------------
// Driver-level snapshotting knobs.
// ---------------------------------------------------------------------------

TEST(EngineDriverPersistTest, AutomaticSnapshotEveryNRecords) {
  EngineConfig cfg;
  cfg.seed = TestSeed();
  cfg.snapshot_path = TempPath("auto_snapshot.snap");
  cfg.snapshot_every = 500;
  auto engine = EngineRegistry::Create("rs", cfg);
  auto ds = GenerateUniform(3000, 1, TestSeed() + 30);
  engine->LoadInitial(ds.rows);
  engine->Initialize();

  Broker broker;
  Rng rng(TestSeed() + 31);
  for (int i = 0; i < 1200; ++i) {
    Tuple t;
    t.id = 700000 + static_cast<uint64_t>(i);
    t[0] = rng.NextDouble();
    t[1] = rng.Normal(10, 2);
    broker.insert_topic()->Append(t);
  }

  EngineDriverOptions dopts = EngineDriverOptions::FromConfig(cfg);
  dopts.poll_batch = 256;
  EngineDriver driver(engine.get(), &broker, dopts);
  driver.Drain();

  // A snapshot was written and restores to the recorded offsets.
  auto restored = EngineRegistry::Create("rs", cfg);
  EngineDriver rdriver(restored.get(), &broker, dopts);
  rdriver.LoadSnapshot(cfg.snapshot_path);
  EXPECT_GE(rdriver.insert_offset(), 500u);
  EXPECT_LE(rdriver.insert_offset(), 1200u);
  // Replay catches the restored engine up to the full stream.
  rdriver.Drain();
  EXPECT_EQ(restored->table()->size(), engine->table()->size());

  std::remove(cfg.snapshot_path.c_str());
}

TEST(EngineConfigPersistTest, SnapshotKnobsParseAndRoundTrip) {
  const char* argv[] = {"prog", "snapshot_path=/tmp/x.snap",
                        "snapshot_every=2048"};
  const EngineConfig cfg =
      EngineConfig::FromArgs(ArgMap(3, const_cast<char**>(argv)));
  EXPECT_EQ(cfg.snapshot_path, "/tmp/x.snap");
  EXPECT_EQ(cfg.snapshot_every, 2048u);
  const std::string line = cfg.ToString();
  EXPECT_NE(line.find("snapshot_path=/tmp/x.snap"), std::string::npos);
  EXPECT_NE(line.find("snapshot_every=2048"), std::string::npos);
  const EngineDriverOptions dopts = EngineDriverOptions::FromConfig(cfg);
  EXPECT_EQ(dopts.snapshot_path, "/tmp/x.snap");
  EXPECT_EQ(dopts.snapshot_every, 2048u);
}

}  // namespace
}  // namespace janus
