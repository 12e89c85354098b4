// Unit tests for the observability layer: instrument semantics, span
// recording across coroutine suspension, Chrome-trace JSON validity, and
// trace determinism across identical runs.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "vmmc/obs/metrics.h"
#include "vmmc/obs/trace.h"
#include "vmmc/sim/process.h"
#include "vmmc/sim/simulator.h"
#include "vmmc/vmmc/cluster.h"

#include "co_test_util.h"

namespace vmmc::obs {
namespace {

// --- a minimal JSON syntax checker (no external deps) --------------------

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  bool Value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return Object();
      case '[': return Array();
      case '"': return String();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return Number();
    }
  }
  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') { ++pos_; return true; }
    for (;;) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      ++pos_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') { ++pos_; return true; }
    for (;;) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool Number() {
    const std::size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool Literal(const char* lit) {
    const std::size_t n = std::string(lit).size();
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }
  char Peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

bool IsValidJson(const std::string& text) { return JsonChecker(text).Valid(); }

// --- instruments ----------------------------------------------------------

TEST(CounterTest, IncrementsByOneAndByAmount) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Inc();
  c.Inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(GaugeTest, TracksMinMaxAndTimeWeightedMean) {
  Gauge g;
  EXPECT_EQ(g.TimeWeightedMean(100), 0.0);  // nothing set yet
  g.Set(0, 2.0);
  g.Set(10, 4.0);  // held 2.0 for [0,10)
  EXPECT_EQ(g.value(), 4.0);
  EXPECT_EQ(g.min(), 2.0);
  EXPECT_EQ(g.max(), 4.0);
  // 2.0 over [0,10) and 4.0 over [10,20): mean 3.0.
  EXPECT_DOUBLE_EQ(g.TimeWeightedMean(20), 3.0);
}

TEST(GaugeTest, AddIsRelative) {
  Gauge g;
  g.Set(0, 1.0);
  g.Add(5, 2.0);
  EXPECT_EQ(g.value(), 3.0);
  g.Add(5, -3.0);
  EXPECT_EQ(g.value(), 0.0);
  EXPECT_EQ(g.min(), 0.0);
  EXPECT_EQ(g.max(), 3.0);
}

TEST(HistoTest, MomentsAreExact) {
  Histo h;
  for (int i = 1; i <= 100; ++i) h.Observe(i);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.sum(), 5050.0);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
  EXPECT_EQ(h.min(), 1.0);
  EXPECT_EQ(h.max(), 100.0);
}

TEST(HistoTest, QuantileEdgeCases) {
  Histo empty;
  EXPECT_EQ(empty.Quantile(0.5), 0.0);

  Histo one;
  one.Observe(7.0);
  EXPECT_EQ(one.Quantile(0.0), 7.0);
  EXPECT_EQ(one.Quantile(0.5), 7.0);
  EXPECT_EQ(one.Quantile(1.0), 7.0);
}

TEST(HistoTest, QuantilesAreMonotonicAndClamped) {
  Histo h;
  for (int i = 1; i <= 1000; ++i) h.Observe(i);
  double prev = h.Quantile(0.0);
  EXPECT_GE(prev, h.min());
  for (double q = 0.1; q <= 1.0; q += 0.1) {
    const double v = h.Quantile(q);
    EXPECT_GE(v, prev);
    prev = v;
  }
  EXPECT_LE(h.Quantile(1.0), h.max());
  // Power-of-two buckets: the estimate may be off by up to one bucket
  // width, but the median of 1..1000 must land in the right region.
  EXPECT_GE(h.Quantile(0.5), 256.0);
  EXPECT_LE(h.Quantile(0.5), 1000.0);
}

// --- registry -------------------------------------------------------------

TEST(RegistryTest, GetReturnsSameInstrumentForSameName) {
  Registry r;
  Counter& a = r.GetCounter("x.count");
  Counter& b = r.GetCounter("x.count");
  EXPECT_EQ(&a, &b);
  a.Inc(3);
  EXPECT_EQ(r.CounterValue("x.count"), 3u);
  EXPECT_EQ(r.CounterValue("never.registered"), 0u);
  EXPECT_EQ(r.FindGauge("nope"), nullptr);
  EXPECT_EQ(r.FindHisto("nope"), nullptr);
}

TEST(RegistryTest, SumCountersMatchesPrefixAndSuffix) {
  Registry r;
  r.GetCounter("fabric.link0.ser_ns").Inc(10);
  r.GetCounter("fabric.link1.ser_ns").Inc(20);
  r.GetCounter("fabric.link1.bytes").Inc(999);
  r.GetCounter("node0.lcp.sends").Inc(5);
  EXPECT_EQ(r.SumCounters("fabric.link", "ser_ns"), 30u);
  EXPECT_EQ(r.SumCounters("fabric.link"), 1029u);
  EXPECT_EQ(r.SumCounters("node"), 5u);
  EXPECT_EQ(r.SumCounters("nothing"), 0u);
}

TEST(RegistryTest, ToJsonIsValidAndDeterministic) {
  Registry r;
  r.GetCounter("b.count").Inc(2);
  r.GetCounter("a.count").Inc(1);
  r.GetGauge("q.depth").Set(10, 3.5);
  r.GetHisto("lat_ns").Observe(128.0);
  const std::string j1 = r.ToJson(100);
  const std::string j2 = r.ToJson(100);
  EXPECT_EQ(j1, j2);
  EXPECT_TRUE(IsValidJson(j1)) << j1;
  // Sorted iteration: "a.count" must precede "b.count".
  EXPECT_LT(j1.find("a.count"), j1.find("b.count"));
  EXPECT_NE(r.ToTable(100).ToString().find("lat_ns"), std::string::npos);
}

// --- tracer ---------------------------------------------------------------

TEST(TracerTest, DisabledTracerRecordsNothing) {
  sim::Tick now = 0;
  Tracer t(&now);
  const int track = t.RegisterTrack("test");
  t.Begin(track, "a");
  t.End(track);
  t.Instant(track, "marker");
  t.AsyncBegin(track, "x", 1);
  t.AsyncEnd(track, "x", 1);
  { auto span = t.Scope(track, "scoped"); }
  EXPECT_EQ(t.event_count(), 0u);
}

TEST(TracerTest, RegisterTrackIsIdempotent) {
  sim::Tick now = 0;
  Tracer t(&now);
  EXPECT_EQ(t.RegisterTrack("a"), t.RegisterTrack("a"));
  EXPECT_NE(t.RegisterTrack("a"), t.RegisterTrack("b"));
}

TEST(TracerTest, SpanNestsAcrossCoAwait) {
  sim::Simulator sim;
  sim.tracer().Enable();
  const int track = sim.tracer().RegisterTrack("node0.lcp");
  auto work = [&]() -> sim::Process {
    auto outer = sim.tracer().Scope(track, "outer");
    co_await sim.Delay(100);
    {
      auto inner = sim.tracer().Scope(track, "inner");
      co_await sim.Delay(50);
    }
    co_await sim.Delay(25);
  };
  sim.Spawn(work());
  sim.Run();
  // B(outer) B(inner) E(inner) E(outer): 4 events, properly nested, with
  // the end timestamps reflecting the sim time of the closing resume.
  EXPECT_EQ(sim.tracer().event_count(), 4u);
  const std::string json = sim.tracer().ToChromeJson();
  EXPECT_TRUE(IsValidJson(json)) << json;
  const std::size_t b_outer = json.find("\"outer\"");
  const std::size_t b_inner = json.find("\"inner\"");
  ASSERT_NE(b_outer, std::string::npos);
  ASSERT_NE(b_inner, std::string::npos);
  EXPECT_LT(b_outer, b_inner);
  // Chrome-format required fields are present.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
}

TEST(TracerTest, AsyncSpansMayInterleave) {
  sim::Tick now = 0;
  Tracer t(&now);
  t.Enable();
  const int track = t.RegisterTrack("vrpc.client");
  t.AsyncBegin(track, "call", 1);
  now = 10;
  t.AsyncBegin(track, "call", 2);
  now = 20;
  t.AsyncEnd(track, "call", 1);
  now = 30;
  t.AsyncEnd(track, "call", 2);
  EXPECT_EQ(t.event_count(), 4u);
  const std::string json = t.ToChromeJson();
  EXPECT_TRUE(IsValidJson(json)) << json;
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);
  EXPECT_NE(json.find("\"id\""), std::string::npos);
}

TEST(TracerTest, ClearDropsEventsButKeepsTracks) {
  sim::Tick now = 0;
  Tracer t(&now);
  t.Enable();
  const int track = t.RegisterTrack("x");
  t.Instant(track, "m");
  EXPECT_EQ(t.event_count(), 1u);
  t.Clear();
  EXPECT_EQ(t.event_count(), 0u);
  EXPECT_EQ(t.RegisterTrack("x"), track);
}

// --- end-to-end: a traced cluster run -------------------------------------

// Boots a 2-node cluster, pushes one notified message through VMMC, and
// returns (trace json, metrics json).
std::pair<std::string, std::string> TracedClusterRun() {
  sim::Simulator sim;
  sim.tracer().Enable();
  Params params;
  vmmc_core::ClusterOptions options;
  options.num_nodes = 2;
  vmmc_core::Cluster cluster(sim, params, options);
  EXPECT_TRUE(cluster.Boot().ok());

  auto receiver = cluster.OpenEndpoint(1, "receiver");
  auto sender = cluster.OpenEndpoint(0, "sender");
  EXPECT_TRUE(receiver.ok() && sender.ok());

  bool delivered = false;
  auto recv = [&]() -> sim::Process {
    auto& ep = *receiver.value();
    auto buffer = ep.AllocBuffer(64 * 1024);
    vmmc_core::ExportOptions eo;
    eo.name = "inbox";
    eo.notify = true;
    auto id = co_await ep.ExportBuffer(buffer.value(), 64 * 1024, std::move(eo));
    ep.SetNotificationHandler(
        id.value(),
        [&delivered](const vmmc_core::UserNotification&) -> sim::Process {
          delivered = true;
          co_return;
        });
  };
  auto send = [&]() -> sim::Process {
    auto& ep = *sender.value();
    vmmc_core::ImportOptions wait;
    wait.wait = true;
    auto imported = co_await ep.ImportBuffer(1, "inbox", wait);
    auto src = ep.AllocBuffer(64 * 1024);
    std::vector<std::uint8_t> payload(20000, 0xAB);
    (void)ep.WriteBuffer(src.value(), payload);
    vmmc_core::SendOptions so;
    so.notify = true;
    (void)co_await ep.SendMsg(src.value(), imported.value().proxy_base,
                              20000, so);
  };
  sim.Spawn(recv());
  sim.Spawn(send());
  sim.Run();
  EXPECT_TRUE(delivered);
  return {sim.tracer().ToChromeJson(), sim.metrics().ToJson(sim.now())};
}

TEST(TraceDeterminismTest, IdenticalRunsProduceByteIdenticalOutput) {
  const auto [trace1, metrics1] = TracedClusterRun();
  const auto [trace2, metrics2] = TracedClusterRun();
  EXPECT_EQ(trace1, trace2);
  EXPECT_EQ(metrics1, metrics2);
  EXPECT_TRUE(IsValidJson(trace1));
  EXPECT_TRUE(IsValidJson(metrics1));
  // The run crossed the whole stack: LCP spans, DMA spans, and a complete
  // B/E pair must be present, and the hot-path counters moved.
  EXPECT_NE(trace1.find("node0.lcp"), std::string::npos);
  EXPECT_NE(trace1.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(trace1.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(metrics1.find("node0.lcp.sends"), std::string::npos);
  EXPECT_NE(metrics1.find("fabric.link"), std::string::npos);
}

// --- every LCP count is a registry counter ----------------------------------

// Value of counter `name` in a Registry::ToJson snapshot; -1 if absent.
long long JsonCounter(const std::string& json, const std::string& name) {
  const std::string key = "\"" + name + "\":";
  const std::size_t at = json.find(key);
  if (at == std::string::npos) return -1;
  return std::atoll(json.c_str() + at + key.size());
}

TEST(ObsTest, EveryLcpCountIsARegistryCounter) {
  sim::Simulator sim;
  Params params;
  vmmc_core::ClusterOptions options;
  options.num_nodes = 2;
  vmmc_core::Cluster cluster(sim, params, options);
  ASSERT_TRUE(cluster.Boot().ok());
  auto a = cluster.OpenEndpoint(0, "a");
  auto b = cluster.OpenEndpoint(1, "b");
  ASSERT_TRUE(a.ok() && b.ok());

  constexpr std::uint32_t kInbox = 64 * 1024;
  constexpr std::uint32_t kLong = 48 * 1024 + 100;  // 13 chunks
  // Per node: its endpoint, the proxy base of the peer's imported inbox,
  // and a registered receive region (one-sided write target on node 1,
  // read destination on node 0).
  struct Side {
    vmmc_core::Endpoint* ep = nullptr;
    vmmc_core::ProxyAddr proxy = 0;
    mem::VirtAddr src = 0;
    vmmc_core::MemRegion region;
  };
  Side side[2];
  side[0].ep = a.value().get();
  side[1].ep = b.value().get();

  // Phase 1: both nodes export an inbox, import the other's and push one
  // long message into it at the same time; the cross traffic moves some
  // chunks from the tight send loop to the main loop (§5.3).
  int pushed = 0;
  auto push = [&](int me) -> sim::Process {
    Side& s = side[me];
    auto inbox = s.ep->AllocBuffer(kInbox);
    CO_ASSERT_TRUE(inbox.ok());
    vmmc_core::ExportOptions eo;
    eo.name = me == 0 ? "inbox0" : "inbox1";
    auto id = co_await s.ep->ExportBuffer(inbox.value(), kInbox, std::move(eo));
    CO_ASSERT_TRUE(id.ok());
    auto rdma = s.ep->AllocBuffer(kLong + 64);
    CO_ASSERT_TRUE(rdma.ok());
    auto region = co_await s.ep->RegisterMemory(rdma.value(), kLong + 64,
                                                vmmc_core::RegIntent::kRecv);
    CO_ASSERT_TRUE(region.ok());
    s.region = region.value();
    vmmc_core::ImportOptions wait;
    wait.wait = true;
    auto imported = co_await s.ep->ImportBuffer(1 - me,
                                                me == 0 ? "inbox1" : "inbox0",
                                                wait);
    CO_ASSERT_TRUE(imported.ok());
    s.proxy = imported.value().proxy_base;
    auto src = s.ep->AllocBuffer(kLong);
    CO_ASSERT_TRUE(src.ok());
    s.src = src.value();
    Status sent = co_await s.ep->SendMsg(s.src, s.proxy, kLong);
    CO_ASSERT_TRUE(sent.ok());
    ++pushed;
  };
  sim.Spawn(push(0));
  sim.Spawn(push(1));
  ASSERT_TRUE(sim.RunUntil([&] { return pushed == 2; }));

  // Phase 2, from node 0: a short send, a one-sided write with a fin, a
  // one-sided read, and a send to a proxy page it never imported.
  bool done = false;
  Status bad_proxy = OkStatus();
  auto extras = [&]() -> sim::Process {
    vmmc_core::Endpoint& ep = *side[0].ep;
    CO_ASSERT_TRUE((co_await ep.SendMsg(side[0].src, side[0].proxy, 64)).ok());
    const vmmc_core::RemoteTarget target{1, side[1].region.rtag, 0};
    vmmc_core::RdmaOptions fin;
    fin.fin_rtag = side[1].region.rtag;
    fin.fin_offset = kLong;
    fin.fin_value = 1;
    CO_ASSERT_TRUE(
        (co_await ep.RdmaWrite(side[0].src, target, kLong, fin)).ok());
    CO_ASSERT_TRUE(
        (co_await ep.RdmaRead(target, 4096, side[0].region)).ok());
    bad_proxy = co_await ep.SendMsg(side[0].src, side[0].proxy + 2 * kInbox,
                                    4096);
    done = true;
  };
  sim.Spawn(extras());
  ASSERT_TRUE(sim.RunUntil([&] { return done; }));
  EXPECT_EQ(bad_proxy.code(), ErrorCode::kPermissionDenied);

  // The dump lists every count, with the value the LCP reports.
  const std::string json = sim.metrics().ToJson(sim.now());
  std::uint64_t tight = 0;
  std::uint64_t main_loop = 0;
  for (int node = 0; node < 2; ++node) {
    const vmmc_core::VmmcLcp::Metrics& st = cluster.node(node).lcp->metrics();
    const std::pair<const char*, const Counter*> counts[] = {
        {"short_sends", &st.short_sends},
        {"long_sends", &st.long_sends},
        {"send_errors", &st.send_errors},
        {"rdma_read_requests", &st.rdma_read_requests},
        {"rdma_fins_sent", &st.rdma_fins_sent},
        {"tight_loop_chunks", &st.tight_loop_chunks},
        {"main_loop_chunks", &st.main_loop_chunks},
    };
    for (const auto& [leaf, counter] : counts) {
      const std::string name = "node" + std::to_string(node) + ".lcp." + leaf;
      EXPECT_EQ(JsonCounter(json, name),
                static_cast<long long>(counter->value()))
          << name;
    }
    tight += st.tight_loop_chunks.value();
    main_loop += st.main_loop_chunks.value();
  }
  const vmmc_core::VmmcLcp::Metrics& s0 = cluster.node(0).lcp->metrics();
  EXPECT_EQ(s0.short_sends.value(), 1u);
  EXPECT_EQ(s0.long_sends.value(), 2u) << "the long send and the write";
  EXPECT_EQ(s0.send_errors.value(), 1u);
  EXPECT_EQ(s0.rdma_read_requests.value(), 1u);
  EXPECT_EQ(s0.rdma_fins_sent.value(), 1u) << "the write's fin";
  EXPECT_EQ(cluster.node(1).lcp->metrics().rdma_fins_sent.value(), 1u)
      << "the read's fin, sent by the serving node";
  EXPECT_GT(tight, 0u);
  EXPECT_GT(main_loop, 0u);
}

TEST(TraceEnvGuardTest, WritesTraceFileAtDestruction) {
  const char* path = "obs_test_trace.json";
  std::remove(path);
  ASSERT_EQ(setenv("VMMC_TRACE", path, 1), 0);
  {
    sim::Simulator sim;
    TraceEnvGuard guard(sim.tracer());
    EXPECT_TRUE(guard.active());
    EXPECT_TRUE(sim.tracer().enabled());
    const int track = sim.tracer().RegisterTrack("t");
    sim.At(10, [&] { sim.tracer().Instant(track, "tick"); });
    sim.Run();
  }
  unsetenv("VMMC_TRACE");
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_TRUE(IsValidJson(buf.str())) << buf.str();
  EXPECT_NE(buf.str().find("\"tick\""), std::string::npos);
  std::remove(path);
}

TEST(TraceEnvGuardTest, InactiveWithoutEnvVar) {
  unsetenv("VMMC_TRACE");
  sim::Simulator sim;
  TraceEnvGuard guard(sim.tracer());
  EXPECT_FALSE(guard.active());
  EXPECT_FALSE(sim.tracer().enabled());
}

}  // namespace
}  // namespace vmmc::obs
