// perfbench driver: runs one workload once — setup, then the measured
// phase — and prints its raw results as one JSON object on the last line
// of stdout.
//
//   perfbench_driver --workload pingpong|allreduce64|bulk-lossy --seed N
//                    [--trace] [--trace-out FILE]
//
// --trace records a span around every op and every public call the
// workload makes into a layer, computes the per-layer metrics from them and
// the layers' published counters, and (with --trace-out) writes the spans
// as a Chrome trace-event file when the run ends. perfbench/run.py repeats
// the driver and turns its raw results into the benchmark's metrics.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--trace") {
      args.trace = true;
    } else if (a == "--trace-out" && has_value) {
      args.trace_out = argv[++i];
    } else {
      return false;
    }
  }
  return !args.workload.empty();
}

// FNV-1a over every op's kind, size, simulated latency and outcome, in op
// order: equal digests mean byte-identical simulated results.
std::uint64_t Digest(const std::vector<OpRecord>& ops) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::int64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= static_cast<std::uint8_t>(static_cast<std::uint64_t>(v) >> (8 * b));
      h *= 0x100000001b3ull;
    }
  };
  mix(static_cast<std::int64_t>(ops.size()));
  for (const OpRecord& op : ops) {
    mix(op.kind);
    mix(op.bytes);
    mix(op.done >= 0 && op.issue >= 0 ? op.done - op.issue : -1);
    mix(op.ok ? 1 : op.bad_data ? 2 : 0);
  }
  return h;
}

std::vector<Tick> SuccessfulLatencies(const std::vector<OpRecord>& ops) {
  std::vector<Tick> out;
  out.reserve(ops.size());
  for (const OpRecord& op : ops) {
    if (op.ok) out.push_back(op.done - op.issue);
  }
  return out;
}

// Simulated time from the first measured op's issue to the last op's
// completion.
Tick SimSpan(const std::vector<OpRecord>& ops) {
  Tick first = -1;
  Tick last = -1;
  for (const OpRecord& op : ops) {
    if (op.issue >= 0 && (first < 0 || op.issue < first)) first = op.issue;
    if (op.done > last) last = op.done;
  }
  return first >= 0 && last > first ? last - first : 0;
}

double Wall(const SpanLog& log, const char* name) {
  double total = 0;
  for (const Span& s : log.spans()) {
    if (s.sim_end >= 0 && std::strcmp(s.name, name) == 0) {
      total += s.wall_end - s.wall_begin;
    }
  }
  return total;
}

// Simulated durations of the measured-phase spans named `name`.
std::vector<Tick> Durations(const SpanLog& log, Tick since, const char* name) {
  std::vector<Tick> out;
  for (const Span& s : log.spans()) {
    if (s.sim_end >= 0 && s.sim_begin >= since && std::strcmp(s.name, name) == 0) {
      out.push_back(s.sim_end - s.sim_begin);
    }
  }
  return out;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// A useful-outcome ratio; its sample count is the number of attempts.
LayerValue AttemptRatio(const char* name, double num, double den) {
  return {name, Ratio(num, den), static_cast<long>(den), false};
}

// Per-layer metrics that only one workload's op records can give.
constexpr const char* kWorkloadSpecific[] = {
    "vmmc.raw_oneway_us_p50", "p2p.eager_oneway_us_p50", "p2p.rdv_oneway_us_p50",
    "p2p.eager_extra_us",     "p2p.rdv_extra_us",        "vrpc.extra_us",
    "coll.rd_us_p50",         "coll.ring_us_p50",        "coll.gb_us_p50",
    "coll.skew_us_p50",
};

// Every per-layer metric but two: sim.wall_ns_per_event and
// trace.overhead_frac need the untraced runs too, so run.py derives them.
// Workload-specific ones come from Outcome::layer; a metric the workload
// does not exercise reads 0 with 0 samples.
std::vector<LayerValue> LayerMetrics(const Outcome& out, const SpanLog& log) {
  const Snapshot& a = out.before;
  const Snapshot& b = out.after;
  const double ops = static_cast<double>(out.ops.size());
  const double span = static_cast<double>(SimSpan(out.ops));
  const double events = static_cast<double>(b.events - a.events);
  const Tick since = out.measure_sim_begin;
  auto d = [](std::uint64_t after, std::uint64_t before) {
    return static_cast<double>(after - before);
  };
  Tick link_busy_max = 0;
  for (std::size_t i = 0; i < b.link_ser.size() && i < a.link_ser.size(); ++i) {
    link_busy_max = std::max(link_busy_max, b.link_ser[i] - a.link_ser[i]);
  }
  const double chunks = d(b.chunks_sent, a.chunks_sent);
  const double retx = d(b.retransmits, a.retransmits);
  const double tlb_hit = d(b.tlb_hit, a.tlb_hit);
  const double tlb_miss = d(b.tlb_miss, a.tlb_miss);
  const double rc_hit = d(b.regcache_hit, a.regcache_hit);
  const double rc_miss = d(b.regcache_miss, a.regcache_miss);
  const double node_span = out.nodes * span;

  std::vector<LayerValue> v = {
      {"sim.events", events},
      {"sim.events_per_op", Ratio(events, ops)},
      {"sim.setup_events", static_cast<double>(a.events)},
      {"host.pio_post_us_per_op", Ratio(d(b.pio_post_ns, a.pio_post_ns) / 1000, ops)},
      {"host.bcopy_bytes_per_op", Ratio(d(b.bcopy_bytes, a.bcopy_bytes), ops)},
      {"lanai.exec_us_per_op", Ratio(d(b.lanai_exec_ns, a.lanai_exec_ns) / 1000, ops)},
      {"lanai.host_dma_busy_frac",
       Ratio(d(b.host_dma_busy_ns, a.host_dma_busy_ns), node_span)},
      {"lanai.nettx_busy_frac", Ratio(d(b.nettx_busy_ns, a.nettx_busy_ns), node_span)},
      {"lanai.sram_used_kb_max", out.sram_used_max / 1024.0},
      {"myrinet.link_busy_max", Ratio(static_cast<double>(link_busy_max), span)},
      {"myrinet.queue_wait_us", d(b.queue_wait_ns, a.queue_wait_ns) / 1000},
      {"myrinet.hol_stalls", d(b.hol_stalls, a.hol_stalls)},
      {"myrinet.link_blocked_us", d(b.link_blocked_ns, a.link_blocked_ns) / 1000},
      {"vmmc.boot_s", Wall(log, "Cluster::Boot")},
      {"vmmc.boot_sim_ms", static_cast<double>(out.boot_sim) / 1e6},
      {"vmmc.connect_s", Wall(log, "setup.connect")},
      P50Us("vmmc.send_us_p50", Durations(log, since, "Endpoint::SendMsg")),
      P99Us("vmmc.send_us_p99", Durations(log, since, "Endpoint::SendMsg")),
      P50Us("vmmc.rdma_read_us_p50", Durations(log, since, "Endpoint::RdmaRead")),
      P99Us("vmmc.rdma_read_us_p99", Durations(log, since, "Endpoint::RdmaRead")),
      {"vmmc.retransmits", retx},
      {"vmmc.rto_fires", d(b.rto_fires, a.rto_fires)},
      AttemptRatio("vmmc.useful_chunk_ratio", chunks, chunks + retx),
      {"vmmc.window_stalls", d(b.window_stalls, a.window_stalls)},
      AttemptRatio("vmmc.tlb_miss_ratio", tlb_miss, tlb_hit + tlb_miss),
      AttemptRatio("vmmc.regcache_hit_ratio", rc_hit, rc_hit + rc_miss),
      {"p2p.create_s", Wall(log, "P2pChannel::Create")},
      {"vrpc.connect_s", Wall(log, "vrpc.connect")},
      P50Us("vrpc.call_us_p50", Durations(log, since, "RpcClient::Call")),
      {"coll.create_s", Wall(log, "Communicator::Create") + Wall(log, "coll.warmup")},
      P50Us("coll.allreduce_us_p50",
            Durations(log, since, "Communicator::AllReduceSum")),
      P99Us("coll.allreduce_us_p99",
            Durations(log, since, "Communicator::AllReduceSum")),
  };
  for (const char* name : kWorkloadSpecific) {
    auto it = std::find_if(out.layer.begin(), out.layer.end(),
                           [name](const LayerValue& l) { return l.name == name; });
    v.push_back(it != out.layer.end() ? *it : LayerValue{name, 0, 0, false});
  }
  return v;
}

// Per-layer self time: a span's duration minus the part of it its child
// spans cover, summed by layer, on both clocks.
struct SelfTime {
  long spans = 0;
  double sim_us = 0;
  double self_sim_us = 0;
  double wall_ms = 0;
  double self_wall_ms = 0;
};

template <typename Begin, typename End>
double Covered(const std::vector<int>& kids, const std::vector<Span>& spans,
               double lo, double hi, Begin begin, End end) {
  std::vector<std::pair<double, double>> iv;
  for (int k : kids) {
    const Span& c = spans[static_cast<std::size_t>(k)];
    if (c.sim_end < 0) continue;
    iv.emplace_back(std::max(lo, begin(c)), std::min(hi, end(c)));
  }
  std::sort(iv.begin(), iv.end());
  double covered = 0;
  double reach = lo;
  for (const auto& [b, e] : iv) {
    const double from = std::max(b, reach);
    if (e > from) {
      covered += e - from;
      reach = e;
    }
  }
  return covered;
}

std::map<std::string, SelfTime> SelfTimes(const SpanLog& log) {
  const std::vector<Span>& spans = log.spans();
  std::vector<std::vector<int>> kids(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) {
      kids[static_cast<std::size_t>(spans[i].parent)].push_back(static_cast<int>(i));
    }
  }
  auto sim_b = [](const Span& s) { return static_cast<double>(s.sim_begin); };
  auto sim_e = [](const Span& s) { return static_cast<double>(s.sim_end); };
  auto wall_b = [](const Span& s) { return s.wall_begin; };
  auto wall_e = [](const Span& s) { return s.wall_end; };
  std::map<std::string, SelfTime> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.sim_end < 0) continue;
    const double sim = sim_e(s) - sim_b(s);
    const double wall = s.wall_end - s.wall_begin;
    SelfTime& t = out[s.layer];
    ++t.spans;
    t.sim_us += sim / 1000;
    t.self_sim_us += (sim - Covered(kids[i], spans, sim_b(s), sim_e(s), sim_b, sim_e)) / 1000;
    t.wall_ms += wall * 1000;
    t.self_wall_ms +=
        (wall - Covered(kids[i], spans, s.wall_begin, s.wall_end, wall_b, wall_e)) * 1000;
  }
  return out;
}

// Chrome trace-event JSON: one complete event per span on the simulated
// clock (microseconds), wall times in args.
bool WriteTrace(const SpanLog& log, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  bool first = true;
  for (const Span& s : log.spans()) {
    const Tick end = s.sim_end >= 0 ? s.sim_end : s.sim_begin;
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%" PRId64 ",\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                 "\"op\":%" PRId64 ",\"parent\":%d,\"tag\":%d,\"bytes\":%u,"
                 "\"finished\":%s,\"wall_begin_s\":%.9f,\"wall_end_s\":%.9f}}",
                 first ? "" : ",\n", s.name, s.layer, s.op + 1,
                 static_cast<double>(s.sim_begin) / 1000,
                 static_cast<double>(end - s.sim_begin) / 1000, s.op, s.parent,
                 s.tag, s.bytes, s.sim_end >= 0 ? "true" : "false", s.wall_begin,
                 s.wall_end);
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

void PrintResult(const Args& args, const Outcome& out, const SpanLog& log) {
  long failed = 0;
  long bad = 0;
  for (const OpRecord& op : out.ops) {
    failed += op.ok ? 0 : 1;
    bad += op.bad_data ? 1 : 0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const std::vector<Tick> lat = SuccessfulLatencies(out.ops);
  const LayerValue p50 = P50Us("lat_p50", lat);
  const LayerValue p99 = P99Us("lat_p99", lat);

  std::printf("{\"workload\":\"%s\",\"seed\":%" PRIu64 ",\"traced\":%s,",
              args.workload.c_str(), args.seed, args.trace ? "true" : "false");
  std::printf("\"attempted\":%zu,\"failed\":%ld,\"bad_data\":%ld,", out.ops.size(),
              failed, bad);
  std::printf("\"digest\":\"%016" PRIx64 "\",", Digest(out.ops));
  std::printf("\"setup_wall_s\":%.9f,\"measure_wall_s\":%.9f,", out.setup_wall_s,
              out.measure_wall_s);
  std::printf("\"peak_rss_kb\":%ld,", usage.ru_maxrss);
  std::printf("\"measure_events\":%" PRIu64 ",", out.after.events - out.before.events);
  std::printf("\"sim_span_ns\":%" PRId64 ",", SimSpan(out.ops));
  std::printf("\"lat\":{\"n\":%ld,\"p50_us\":%.17g,\"p99_us\":%.17g,\"p99_missing\":%s}",
              p50.samples, p50.value, p99.value, p99.missing ? "true" : "false");
  if (args.trace) {
    std::printf(",\"layer\":{");
    bool first = true;
    for (const LayerValue& v : LayerMetrics(out, log)) {
      std::printf("%s\"%s\":{\"value\":%.17g,\"n\":%ld,\"missing\":%s}",
                  first ? "" : ",", v.name.c_str(), v.value, v.samples,
                  v.missing ? "true" : "false");
      first = false;
    }
    std::printf("},\"self_time\":{");
    first = true;
    for (const auto& [layer, t] : SelfTimes(log)) {
      std::printf("%s\"%s\":{\"spans\":%ld,\"sim_us\":%.17g,\"self_sim_us\":%.17g,"
                  "\"wall_ms\":%.17g,\"self_wall_ms\":%.17g}",
                  first ? "" : ",", layer.c_str(), t.spans, t.sim_us, t.self_sim_us,
                  t.wall_ms, t.self_wall_ms);
      first = false;
    }
    std::printf("}");
  }
  std::printf("}\n");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload pingpong|allreduce64|bulk-lossy --seed N "
                 "[--trace] [--trace-out FILE]\n",
                 argv[0]);
    return 2;
  }
  SpanLog log(args.trace);
  Outcome out;
  if (args.workload == "pingpong") {
    out = RunPingpong(args.seed, log);
  } else if (args.workload == "allreduce64") {
    out = RunAllreduce64(args.seed, log);
  } else if (args.workload == "bulk-lossy") {
    out = RunBulkLossy(args.seed, log);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  if (!out.error.empty()) {
    std::fprintf(stderr, "%s setup failed: %s\n", args.workload.c_str(),
                 out.error.c_str());
    std::fflush(stderr);
    std::_Exit(1);
  }
  if (args.trace && !args.trace_out.empty() && !WriteTrace(log, args.trace_out)) {
    std::fprintf(stderr, "could not write %s\n", args.trace_out.c_str());
  }
  PrintResult(args, out, log);
  // Skip teardown: the workload's simulation still holds suspended
  // coroutines, and nothing remains to release that the exit does not.
  std::fflush(stdout);
  std::fflush(stderr);
  std::_Exit(0);
}
