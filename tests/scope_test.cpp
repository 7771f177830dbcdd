// Observability subsystem tests (src/scope): region-map recovery from scope
// labels, exact cycle attribution, event-tracer ring + Chrome trace JSON
// round-trip, and streaming-metrics merge semantics.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/aft/aft.h"
#include "src/apps/app_sources.h"
#include "src/common/binio.h"
#include "src/os/os.h"
#include "src/scope/firmware_map.h"
#include "src/scope/json.h"
#include "src/scope/metrics.h"
#include "src/scope/profiler.h"
#include "src/scope/region_map.h"
#include "src/scope/tracer.h"

namespace amulet {
namespace {

// ---------------------------------------------------------------------------
// Region map

TEST(RegionMapTest, MnemonicsRoundTrip) {
  EXPECT_EQ(RegionTagForMnemonic("cklo"), RegionTag::kCheckLow);
  EXPECT_EQ(RegionTagForMnemonic("ckhi"), RegionTag::kCheckHigh);
  EXPECT_EQ(RegionTagForMnemonic("ckix"), RegionTag::kCheckIndex);
  EXPECT_EQ(RegionTagForMnemonic("ckret"), RegionTag::kCheckRet);
  EXPECT_EQ(RegionTagForMnemonic("mpur"), RegionTag::kMpuReconfig);
  EXPECT_EQ(RegionTagForMnemonic("gate"), RegionTag::kGate);
  EXPECT_EQ(RegionTagForMnemonic("disp"), RegionTag::kDispatch);
  EXPECT_EQ(RegionTagForMnemonic("rt"), RegionTag::kRuntime);
  EXPECT_EQ(RegionTagForMnemonic("bogus"), RegionTag::kOther);
}

TEST(RegionMapTest, ParsesPairedLabelsAndSkipsStrays) {
  std::map<std::string, uint16_t> symbols = {
      {"__scope_b_cklo_f_S0", 0x4400},
      {"__scope_e_cklo_f_S0", 0x4410},
      {"__scope_b_mpur_g0", 0x5000},
      {"__scope_e_mpur_g0", 0x5020},
      {"__scope_b_gate_orphan", 0x6000},   // no matching end: skipped
      {"__scope_e_disp_orphan2", 0x6100},  // no matching begin: skipped
      {"__scope_b_zzz_x", 0x7000},         // unknown mnemonic: skipped
      {"__scope_e_zzz_x", 0x7010},
      {"unrelated_symbol", 0x4000},
  };
  std::vector<ScopeSpan> spans = ParseScopeSpans(symbols);
  ASSERT_EQ(spans.size(), 2u);
  bool saw_check = false;
  bool saw_mpur = false;
  for (const ScopeSpan& span : spans) {
    if (span.tag == RegionTag::kCheckLow) {
      saw_check = true;
      EXPECT_EQ(span.lo, 0x4400);
      EXPECT_EQ(span.hi, 0x4410);
      EXPECT_EQ(span.id, "f_S0");
    }
    if (span.tag == RegionTag::kMpuReconfig) {
      saw_mpur = true;
    }
  }
  EXPECT_TRUE(saw_check);
  EXPECT_TRUE(saw_mpur);
}

TEST(RegionMapTest, FinestSpanWinsRegardlessOfInputOrder) {
  // A check span nested inside a gate span: the check tag must win for its
  // bytes whichever order the spans arrive in.
  std::vector<ScopeSpan> forward = {
      {RegionTag::kGate, "gate", "g", 0x5000, 0x5100},
      {RegionTag::kCheckLow, "cklo", "c", 0x5040, 0x5050},
  };
  std::vector<ScopeSpan> reversed = {forward[1], forward[0]};
  for (const auto& spans : {forward, reversed}) {
    RegionMap map;
    PaintScopeSpans(spans, &map);
    EXPECT_EQ(map.At(0x5000), RegionTag::kGate);
    EXPECT_EQ(map.At(0x5045), RegionTag::kCheckLow);
    EXPECT_EQ(map.At(0x50FF), RegionTag::kGate);
    EXPECT_EQ(map.At(0x5100), RegionTag::kOther);
  }
}

TEST(RegionMapTest, FirmwareMapTagsChecksGatesAndApps) {
  AftOptions options;
  options.model = MemoryModel::kSoftwareOnly;
  // The synthetic app's masked accesses are provably safe, so the phase-2.5
  // optimizer would delete every check; this test maps the checked pipeline.
  options.optimize_checks = false;
  const AppSpec& app = SyntheticApp();
  auto fw = BuildFirmware({{app.name, app.source}}, options);
  ASSERT_TRUE(fw.ok()) << fw.status().ToString();
  RegionMap map = BuildRegionMap(*fw);
  EXPECT_GT(map.TaggedBytes(RegionTag::kApp), 0u);
  EXPECT_GT(map.TaggedBytes(RegionTag::kGate), 0u);
  EXPECT_GT(map.TaggedBytes(RegionTag::kDispatch), 0u);
  EXPECT_GT(map.TaggedBytes(RegionTag::kCheckLow), 0u);
  EXPECT_GT(map.TaggedBytes(RegionTag::kCheckHigh), 0u);  // SW: dual compares
  // SoftwareOnly firmware programs no MPU at gate time.
  EXPECT_EQ(map.TaggedBytes(RegionTag::kMpuReconfig), 0u);
}

// ---------------------------------------------------------------------------
// Profiler

TEST(ProfilerTest, BucketsCyclesByRegionTag) {
  RegionMap map;
  map.Paint(0x4000, 0x4100, RegionTag::kApp);
  map.Paint(0x4100, 0x4110, RegionTag::kCheckLow);
  CycleProfiler profiler(std::move(map));
  profiler.Attribute(0x4000, 3);
  profiler.Attribute(0x4105, 4);
  profiler.Attribute(0x9000, 1);  // unpainted
  EXPECT_EQ(profiler.cycles(RegionTag::kApp), 3u);
  EXPECT_EQ(profiler.cycles(RegionTag::kCheckLow), 4u);
  EXPECT_EQ(profiler.cycles(RegionTag::kOther), 1u);
  EXPECT_EQ(profiler.retired(RegionTag::kApp), 1u);
  EXPECT_EQ(profiler.total_cycles(), 8u);
  EXPECT_EQ(profiler.check_cycles(), 4u);
  profiler.Reset();
  EXPECT_EQ(profiler.total_cycles(), 0u);
}

#ifdef AMULET_SCOPE_ENABLED
TEST(ProfilerTest, AttributedCyclesEqualCpuCycles) {
  AftOptions options;
  options.model = MemoryModel::kMpu;
  // Keep the checks: attribution needs cklo spans to land cycles in.
  options.optimize_checks = false;
  const AppSpec& app = SyntheticApp();
  auto fw = BuildFirmware({{app.name, app.source}}, options);
  ASSERT_TRUE(fw.ok()) << fw.status().ToString();
  CycleProfiler profiler(BuildRegionMap(*fw));
  Machine machine;
  AmuletOs os(&machine, std::move(*fw), OsOptions{});
  machine.AttachProfiler(&profiler);
  ASSERT_TRUE(os.Boot().ok());
  profiler.Reset();
  const uint64_t before = machine.cpu().cycle_count();
  auto r = os.Deliver(0, EventType::kButton, 1);
  ASSERT_TRUE(r.ok());
  ASSERT_FALSE(r->faulted);
  // Exact attribution: every retired cycle lands in exactly one bucket.
  EXPECT_EQ(profiler.total_cycles(), machine.cpu().cycle_count() - before);
  // The MPU model's checked-store loop spends cycles in lower-bound checks
  // and none in upper-bound ones.
  EXPECT_GT(profiler.cycles(RegionTag::kCheckLow), 0u);
  EXPECT_EQ(profiler.cycles(RegionTag::kCheckHigh), 0u);
}
#endif  // AMULET_SCOPE_ENABLED

// ---------------------------------------------------------------------------
// Tracer + Chrome trace JSON

#ifdef AMULET_SCOPE_ENABLED
// The golden-file test: a short app run must render to Chrome trace JSON
// that parses back cleanly with correctly nested spans for the syscall and
// MPU-reprogramming probes.
TEST(TracerTest, ShortAppRunRendersValidNestedChromeTrace) {
  AftOptions options;
  options.model = MemoryModel::kMpu;
  const AppSpec& app = SyntheticApp();
  auto fw = BuildFirmware({{app.name, app.source}}, options);
  ASSERT_TRUE(fw.ok()) << fw.status().ToString();
  EventTracer tracer;
  Machine machine;
  AmuletOs os(&machine, std::move(*fw), OsOptions{});
  os.AttachTracer(&tracer);  // before Boot: on_init dispatches are traced too
  ASSERT_TRUE(os.Boot().ok());
  auto r = os.Deliver(0, EventType::kButton, 2);  // API-call loop -> syscalls
  ASSERT_TRUE(r.ok());
  ASSERT_FALSE(r->faulted);

  // Walk the raw ring: "syscall" and "mpu.reconfig" spans must always begin
  // inside an open "os.dispatch" span.
  std::vector<std::string> open;
  size_t syscall_begins = 0;
  size_t reconfig_begins = 0;
  for (const TraceEvent& event : tracer.Events()) {
    const std::string name = event.name;
    if (event.phase == 'B') {
      if (name == "syscall") {
        ++syscall_begins;
        ASSERT_FALSE(open.empty());
        EXPECT_EQ(open[0], "os.dispatch");
      }
      if (name == "mpu.reconfig") {
        ++reconfig_begins;
        ASSERT_FALSE(open.empty());
        EXPECT_EQ(open[0], "os.dispatch");
      }
      open.push_back(name);
    } else if (event.phase == 'E') {
      ASSERT_FALSE(open.empty()) << "unbalanced 'E' for " << name;
      EXPECT_EQ(open.back(), name);
      open.pop_back();
    }
  }
  EXPECT_TRUE(open.empty());
  EXPECT_GT(syscall_begins, 0u);
  EXPECT_GT(reconfig_begins, 0u);

  // Render and parse back.
  const std::string json = RenderChromeTrace(tracer, /*cpu_mhz=*/16.0);
  auto validation = ValidateChromeTrace(json);
  ASSERT_TRUE(validation.ok()) << validation.status().ToString();
  EXPECT_EQ(validation->events, tracer.Events().size());
  EXPECT_EQ(validation->begins, validation->ends);
  EXPECT_GE(validation->max_depth, 2);  // syscall/reconfig under os.dispatch
  EXPECT_TRUE(validation->timestamps_monotonic);
  EXPECT_NE(json.find("\"name\":\"os.dispatch\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"syscall\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"mpu.reconfig\""), std::string::npos);
}

// Every fault the OS records emits one instant: software checks and MPU
// violations, and also a CPU crash, with the record's code and address.
TEST(TracerTest, EveryRecordedFaultEmitsAnInstant) {
  constexpr char kWild[] = R"(
void on_init(void) { amulet_button_subscribe(); }
void on_button(int id) {
  if (id == 0) { int* p = (int*)7168; *p = 1; }
  if (id == 1) { int* p = (int*)61440; *p = 1; }
  if (id == 2) { void (*fn)(void) = (void (*)(void))7424; fn(); }
}
)";
  struct Case {
    MemoryModel model;
    uint16_t button;
    const char* instant;
    uint32_t code;
    uint32_t addr;
  };
  const Case cases[] = {
      {MemoryModel::kMpu, 0, "os.fault.software", 2, 0x1C00},
      {MemoryModel::kMpu, 1, "os.fault.mpu", 4, 0xF000},
      {MemoryModel::kNoIsolation, 2, "os.fault.crash", 0xDEAD, 0x1D00},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.instant);
    AftOptions options;
    options.model = c.model;
    auto fw = BuildFirmware({{"wild", kWild}}, options);
    ASSERT_TRUE(fw.ok()) << fw.status().ToString();
    EventTracer tracer;
    Machine machine;
    AmuletOs os(&machine, std::move(*fw), OsOptions{});
    os.AttachTracer(&tracer);
    ASSERT_TRUE(os.Boot().ok());
    auto r = os.Deliver(0, EventType::kButton, c.button);
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(r->faulted);
    int instants = 0;
    for (const TraceEvent& event : tracer.Events()) {
      if (event.phase != 'i' || std::string(event.name).rfind("os.fault.", 0) != 0) {
        continue;
      }
      ++instants;
      EXPECT_STREQ(event.name, c.instant);
      ASSERT_EQ(event.arg_count, 2);
      EXPECT_EQ(event.args[0], c.code);
      EXPECT_EQ(event.args[1], c.addr);
    }
    EXPECT_EQ(instants, 1);
  }
}
#endif  // AMULET_SCOPE_ENABLED

TEST(TracerTest, RingWrapStillRendersWellFormedTrace) {
  EventTracer tracer(/*capacity=*/6);
  uint64_t now = 0;
  tracer.set_clock([&now] { return now++; });
  for (int i = 0; i < 10; ++i) {
    tracer.Begin("outer");
    tracer.Begin("inner", static_cast<uint32_t>(i));
    tracer.Instant("tick");
    tracer.End("inner");
    tracer.End("outer");
  }
  tracer.Begin("open_at_horizon");
  EXPECT_EQ(tracer.Events().size(), 6u);
  EXPECT_GT(tracer.dropped(), 0u);
  // The surviving window starts with orphaned E's and ends with an open B;
  // the renderer must drop the former and close the latter.
  const std::string json = RenderChromeTrace(tracer, 16.0);
  auto validation = ValidateChromeTrace(json);
  ASSERT_TRUE(validation.ok()) << validation.status().ToString();
  EXPECT_EQ(validation->begins, validation->ends);
  EXPECT_TRUE(validation->timestamps_monotonic);
}

TEST(TracerTest, ValidatorRejectsMalformedTraces) {
  EXPECT_FALSE(ValidateChromeTrace("not json").ok());
  EXPECT_FALSE(ValidateChromeTrace("{}").ok());  // no traceEvents
  // Mismatched nesting: E for a name that is not the innermost open span.
  EXPECT_FALSE(ValidateChromeTrace(
                   R"({"traceEvents":[)"
                   R"({"name":"a","ph":"B","ts":0,"pid":1,"tid":1},)"
                   R"({"name":"b","ph":"B","ts":1,"pid":1,"tid":1},)"
                   R"({"name":"a","ph":"E","ts":2,"pid":1,"tid":1}]})")
                   .ok());
  // Span left open.
  EXPECT_FALSE(ValidateChromeTrace(
                   R"({"traceEvents":[{"name":"a","ph":"B","ts":0,"pid":1,"tid":1}]})")
                   .ok());
  // 'E' with nothing open.
  EXPECT_FALSE(ValidateChromeTrace(
                   R"({"traceEvents":[{"name":"a","ph":"E","ts":0,"pid":1,"tid":1}]})")
                   .ok());
}

TEST(TracerTest, ValidatorAcceptsIndependentTracks) {
  // Same span names interleaved on two tids: fine, nesting is per-track.
  auto v = ValidateChromeTrace(
      R"({"traceEvents":[)"
      R"({"name":"a","ph":"B","ts":0,"pid":1,"tid":1},)"
      R"({"name":"b","ph":"B","ts":1,"pid":1,"tid":2},)"
      R"({"name":"a","ph":"E","ts":2,"pid":1,"tid":1},)"
      R"({"name":"b","ph":"E","ts":3,"pid":1,"tid":2}]})");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(v->events, 4u);
  EXPECT_EQ(v->max_depth, 1);
}

// ---------------------------------------------------------------------------
// Streaming metrics

TEST(MetricsTest, LogHistogramBucketBoundaries) {
  EXPECT_EQ(LogHistogram::BucketOf(0), 0);
  EXPECT_EQ(LogHistogram::BucketOf(1), 1);
  EXPECT_EQ(LogHistogram::BucketOf(2), 2);
  EXPECT_EQ(LogHistogram::BucketOf(3), 2);
  EXPECT_EQ(LogHistogram::BucketOf(4), 3);
  EXPECT_EQ(LogHistogram::BucketOf(7), 3);
  EXPECT_EQ(LogHistogram::BucketOf(UINT64_MAX), 64);
  LogHistogram h;
  h.Record(0);
  h.Record(5);
  h.Record(1000);
  EXPECT_EQ(h.count, 3u);
  EXPECT_EQ(h.sum, 1005u);
  EXPECT_EQ(h.min, 0u);
  EXPECT_EQ(h.max, 1000u);
  // Quantiles are monotone in q and bounded by [min, max].
  EXPECT_LE(h.Quantile(0.0), h.Quantile(0.5));
  EXPECT_LE(h.Quantile(0.5), h.Quantile(1.0));
  EXPECT_GE(h.Quantile(0.0), h.min);
  EXPECT_LE(h.Quantile(1.0), h.max);
}

TEST(MetricsTest, MergeIsOrderIndependent) {
  auto make = [](uint64_t seed) {
    MetricRegistry r;
    r.Add("counter.a", seed);
    r.Add("counter.b", seed * 3 + 1);
    for (uint64_t i = 0; i < 20; ++i) {
      r.Observe("hist.x", seed * 1000 + i * i);
      r.Observe("hist.y", (seed + i) % 7);
    }
    return r;
  };
  MetricRegistry forward;
  for (uint64_t seed : {1, 2, 3, 4, 5}) {
    forward.Merge(make(seed));
  }
  MetricRegistry backward;
  for (uint64_t seed : {5, 4, 3, 2, 1}) {
    backward.Merge(make(seed));
  }
  // Associativity too: ((1+2)+(3+4))+5 with a nested intermediate.
  MetricRegistry left;
  left.Merge(make(1));
  left.Merge(make(2));
  MetricRegistry right;
  right.Merge(make(3));
  right.Merge(make(4));
  MetricRegistry tree;
  tree.Merge(left);
  tree.Merge(right);
  tree.Merge(make(5));

  EXPECT_EQ(forward.ToJson(), backward.ToJson());
  EXPECT_EQ(forward.ToJson(), tree.ToJson());
  EXPECT_EQ(forward.counter("counter.a"), 1u + 2 + 3 + 4 + 5);
  ASSERT_NE(forward.histogram("hist.x"), nullptr);
  EXPECT_EQ(forward.histogram("hist.x")->count, 100u);
}

TEST(MetricsTest, MergedSizeIndependentOfMergeCount) {
  auto make = [](uint64_t seed) {
    MetricRegistry r;
    r.Add("fleet.devices", 1);
    r.Add("fleet.cycles", seed * 12345);
    r.Observe("device.cycles", seed * 12345);
    r.Observe("device.syscalls", seed % 97);
    return r;
  };
  MetricRegistry hundred;
  for (uint64_t i = 0; i < 100; ++i) {
    hundred.Merge(make(i));
  }
  const size_t bytes_at_100 = hundred.ApproxBytes();
  MetricRegistry ten_thousand;
  for (uint64_t i = 0; i < 10'000; ++i) {
    ten_thousand.Merge(make(i));
  }
  // Constant-size representation: 100x the merges, zero growth.
  EXPECT_EQ(ten_thousand.ApproxBytes(), bytes_at_100);
  EXPECT_EQ(ten_thousand.counter("fleet.devices"), 10'000u);
}

TEST(MetricsTest, JsonIsDeterministicWithSortedKeys) {
  MetricRegistry r;
  r.Add("b.counter", 2);
  r.Add("a.counter", 1);
  r.Observe("z.hist", 42);
  const std::string json = r.ToJson();
  EXPECT_EQ(json, r.ToJson());
  // Keys render in map order regardless of insertion order.
  EXPECT_LT(json.find("a.counter"), json.find("b.counter"));
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
}

// Regression: nearest-rank quantiles must take ceil(q * count) with an
// integer ceiling. Ten observations in distinct buckets (2^0 .. 2^9) make
// every rank land in a different bucket; q=0.95 -> rank 10 -> the top value.
// The old truncation picked rank 9 and answered one bucket low (383).
TEST(MetricsTest, QuantileUsesCeilingRank) {
  LogHistogram h;
  for (int i = 0; i < 10; ++i) {
    h.Record(uint64_t{1} << i);
  }
  ASSERT_EQ(h.count, 10u);
  EXPECT_EQ(h.Quantile(0.95), 512u);
  EXPECT_EQ(h.Quantile(1.0), 512u);
  // q*count exactly integral takes that rank, not the next one up.
  EXPECT_EQ(h.Quantile(0.90), 383u);  // rank 9: bucket [256, 511] midpoint
  EXPECT_EQ(h.Quantile(0.05), 1u);    // rank ceil(0.5) = 1
}

TEST(MetricsTest, ToJsonEscapesMetricNames) {
  MetricRegistry r;
  r.Add("weird\"counter\\name", 3);
  r.Observe("hist\nwith\tcontrol", 7);
  const std::string json = r.ToJson();
  // The native parser (the same one ValidateChromeTrace uses) must accept it.
  EXPECT_TRUE(ValidateJson(json).ok()) << json;
  EXPECT_NE(json.find("weird\\\"counter\\\\name"), std::string::npos) << json;
  // Parse back and confirm the counter survived under its unescaped name.
  Result<JsonValue> root = ParseJson(json);
  ASSERT_TRUE(root.ok()) << root.status().ToString();
  const JsonValue* counters = root->Field("counters");
  ASSERT_NE(counters, nullptr);
  const JsonValue* value = counters->Field("weird\"counter\\name");
  ASSERT_NE(value, nullptr);
  EXPECT_EQ(value->number, 3.0);
}

TEST(MetricsTest, SaveLoadRoundTripIsBitExact) {
  MetricRegistry r;
  r.Add("fleet.devices", 123);
  r.Add("fleet.cycles", 987'654'321);
  for (uint64_t v : {1u, 5u, 900u, 1'000'000u}) {
    r.Observe("device.cycles", v);
    r.Observe("device.faults", v % 7);
  }

  SnapshotWriter w;
  r.SaveState(w);
  const std::vector<uint8_t> bytes = w.Take();

  MetricRegistry restored;
  restored.Add("stale.counter", 1);  // LoadState must replace, not merge
  SnapshotReader reader(bytes);
  ASSERT_TRUE(restored.LoadState(reader).ok());
  EXPECT_EQ(restored.ToJson(), r.ToJson());
  EXPECT_EQ(restored.counter("stale.counter"), 0u);
  EXPECT_EQ(restored.counter("fleet.devices"), 123u);

  // An empty registry round-trips too.
  MetricRegistry empty;
  SnapshotWriter we;
  empty.SaveState(we);
  const std::vector<uint8_t> empty_bytes = we.Take();
  SnapshotReader empty_reader(empty_bytes);
  ASSERT_TRUE(restored.LoadState(empty_reader).ok());
  EXPECT_TRUE(restored.empty());
}

TEST(MetricsTest, LoadRejectsTruncatedState) {
  MetricRegistry r;
  r.Add("fleet.devices", 9);
  r.Observe("device.cycles", 4096);
  SnapshotWriter w;
  r.SaveState(w);
  std::vector<uint8_t> bytes = w.Take();
  ASSERT_GT(bytes.size(), 4u);
  bytes.resize(bytes.size() - 3);
  SnapshotReader reader(bytes);
  MetricRegistry restored;
  EXPECT_FALSE(restored.LoadState(reader).ok());
}

// A name SaveState writes once per registry must not load twice.
TEST(MetricsTest, LoadRejectsARepeatedCounter) {
  SnapshotWriter w;
  w.U32(2);
  w.Str("fleet.devices");
  w.U64(5);
  w.Str("fleet.devices");
  w.U64(7);
  w.U32(0);
  const std::vector<uint8_t> bytes = w.Take();
  SnapshotReader reader(bytes);
  MetricRegistry restored;
  EXPECT_EQ(restored.LoadState(reader).code(), StatusCode::kInvalidArgument);
}

TEST(MetricsTest, LoadRejectsARepeatedHistogram) {
  LogHistogram h;
  h.Record(900);
  SnapshotWriter w;
  w.U32(0);
  w.U32(2);
  w.Str("device.cycles");
  h.SaveState(w);
  w.Str("device.cycles");
  h.SaveState(w);
  const std::vector<uint8_t> bytes = w.Take();
  SnapshotReader reader(bytes);
  MetricRegistry restored;
  EXPECT_EQ(restored.LoadState(reader).code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// JSON

TEST(JsonTest, EveryAsciiByteRoundTrips) {
  std::string all;
  for (int b = 0; b < 0x80; ++b) {
    const std::string one(1, static_cast<char>(b));
    all += one;
    Result<JsonValue> parsed = ParseJson(JsonQuoted(one));
    ASSERT_TRUE(parsed.ok()) << b << ": " << parsed.status().ToString();
    EXPECT_EQ(parsed->kind, JsonValue::kString);
    EXPECT_EQ(parsed->str, one) << "byte " << b << " quoted as " << JsonQuoted(one);
  }
  Result<JsonValue> parsed = ParseJson(JsonQuoted(all));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->str, all);
}

TEST(JsonTest, DecodesEscapesToUtf8) {
  Result<JsonValue> parsed =
      ParseJson(R"("\b\f\/\u0041\u00e9\u20AC\ud83d\ude00")");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->str, "\b\f/A\xC3\xA9\xE2\x82\xAC\xF0\x9F\x98\x80");
}

TEST(JsonTest, RejectsMalformedUnicodeEscapes) {
  EXPECT_FALSE(ValidateJson(R"("\uZZZZ")").ok());
  EXPECT_FALSE(ValidateJson(R"("\u12")").ok());
  EXPECT_FALSE(ValidateJson(R"("\u12)").ok());
  EXPECT_FALSE(ValidateJson(R"("\u00G1")").ok());
  EXPECT_FALSE(ValidateJson(R"("\ud83d\uZZZZ")").ok());
  EXPECT_TRUE(ValidateJson(R"("\u00e9")").ok());
}

}  // namespace
}  // namespace amulet
