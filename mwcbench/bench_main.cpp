// End-to-end benchmark of cycle::solve() and the solve service.
//
//   mwc_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <file.jsonl>]
//
// Workloads (README.md says why each exists and which layers it loads):
//   exact-768       solve(kExact) on random_connected(768, 3072)
//   approx-classes  solve(kApprox) on one instance per Table 1 class
//   lossy-arq       solve(kExact) over reliable_transport with drop/dup/corrupt
//   service-mix     a seeded JSONL corpus through SolveService, two workers
//
// Inputs are built by the library's generators from --seed and handed to the
// program as text only (graph files, JSONL request lines). Every operation
// is checked against the sequential oracle graph::seq::mwc, computed before
// the timed region, and against its own first pass (determinism). A run
// with --trace 0 measures untraced passes and prints the end-to-end
// metrics; --trace 1 alternates untraced and traced passes and prints the
// per-layer metrics. Times are reported in reference seconds: wall time
// scaled by a yardstick read on the same thread before and after each pass
// (Yardstick below). The last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// The exit code is 1 when any operation fails a check, 2 on a usage or
// setup error.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "congest/network.h"
#include "congest/trace.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "graph/sequential.h"
#include "mwc/api.h"
#include "mwc/service.h"
#include "mwc/witness.h"
#include "stats.h"
#include "support/rng.h"

namespace {

using namespace mwc;
using Clock = std::chrono::steady_clock;
using mwcbench::summarize;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(const std::vector<double>& v) { return summarize(v).median; }

// ------------------------------------------------------------------------
// Host speed. The machines this runs on drift: in a busy period the same
// pass takes up to three times as long as in a quiet one, because other
// tenants compete for the cores, the shared cache and memory. So times are
// reported in reference seconds, scaled by a yardstick read on the same
// thread right before and right after each pass and the set-up samples: a
// breadth-first search over a fixed random graph of the benchmark's own. It
// does the engine's kind of work (queue pushes, random reads) in code that
// no change to the library can move, and it sees the core and caches the
// timed work just saw. A time t between readings y0 and y1 (seconds per
// search) is reported as t * reference / ((y0 + y1) / 2): in units of the
// yardstick's own speed at that moment.
//
// The graph is sized like the workload's working set. The solve workloads
// hold tens to hundreds of megabytes, and their yardstick spans 24 MiB,
// beyond a core's L2 cache. The service requests are small; their pass
// times did not follow the large yardstick at all, while the one that fits
// in L2 kept their medians steady across busy and quiet periods (README.md,
// "Reference seconds").

struct YardstickSize {
  std::uint32_t nodes;
  double reference_seconds;  // one reference second: 1/this searches
};
constexpr YardstickSize kLargeYardstick{1u << 20, 0.050};   // 24 MiB
constexpr YardstickSize kSmallYardstick{1u << 16, 0.0011};  // 1.5 MiB
constexpr std::uint32_t kYardstickDegree = 4;
// A reading is the median of the searches in at least this long, and of at
// least three: a stall of the host that hits one search would otherwise
// count as if it had hit the timed work.
constexpr double kYardstickReadSeconds = 0.15;

class Yardstick {
 public:
  explicit Yardstick(YardstickSize size)
      : size_(size),
        adj_(std::size_t{size.nodes} * kYardstickDegree),
        dist_(size.nodes),
        queue_(size.nodes) {
    std::uint64_t x = 0x9e3779b97f4a7c15ull;  // splitmix64, fixed seed
    for (std::uint32_t& v : adj_) {
      std::uint64_t z = (x += 0x9e3779b97f4a7c15ull);
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
      v = static_cast<std::uint32_t>((z ^ (z >> 31)) % size.nodes);
    }
    read();  // the first search pays for cold caches
  }

  // Seconds of one search: the median over kYardstickReadSeconds.
  double read() {
    std::vector<double> t;
    const auto start = Clock::now();
    while (t.size() < 3 || seconds_since(start) < kYardstickReadSeconds) {
      const auto t0 = Clock::now();
      search();
      t.push_back(seconds_since(t0));
    }
    return median(t);
  }

  // Reference seconds per wall second between readings y0 and y1.
  double scale(double y0, double y1) const {
    return size_.reference_seconds / ((y0 + y1) / 2.0);
  }

  // Resident megabytes of the yardstick's tables, left out of peak RSS.
  double megabytes() const {
    return 4.0 * size_.nodes * (kYardstickDegree + 2) / (1024.0 * 1024.0);
  }

 private:
  void search() {
    constexpr std::uint32_t kUnseen = ~0u;
    std::fill(dist_.begin(), dist_.end(), kUnseen);
    std::size_t head = 0, tail = 0;
    queue_[tail++] = source_;
    dist_[source_] = 0;
    while (head < tail) {
      const std::uint32_t u = queue_[head++];
      for (std::uint32_t k = 0; k < kYardstickDegree; ++k) {
        const std::uint32_t v = adj_[std::size_t{u} * kYardstickDegree + k];
        if (dist_[v] == kUnseen) {
          dist_[v] = dist_[u] + 1;
          queue_[tail++] = v;
        }
      }
    }
    source_ = (source_ + 7919) % size_.nodes;
  }

  YardstickSize size_;
  std::vector<std::uint32_t> adj_;  // out-neighbours, kYardstickDegree each
  std::vector<std::uint32_t> dist_;
  std::vector<std::uint32_t> queue_;
  std::uint32_t source_ = 0;
};

// Phase labels as metric-name components: [A-Za-z0-9_.-], spaces -> '_'.
std::string sanitize(const std::string& s) {
  std::string out = s;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) c = '_';
  }
  return out;
}

// The primitives whose self time and traffic are attributed by leaf name,
// and the top-level phases of the five algorithms solve() dispatches to.
const std::vector<std::string> kPrimLeaves = {
    "multi_bfs", "neighbor_exchange", "broadcast",
    "bfs_tree",  "convergecast",      "restricted_BFS"};
const std::vector<std::string> kAlgoPhases = {
    "apsp",               "distance_exchange", "aggregate_min",
    "long_cycles",        "scaling_ladder",    "sample_skeleton",
    "pairwise_broadcast", "short_cycles",      "source_detection",
    "detection_exchange", "sample_BFS",        "sample_exchange"};

bool contains(const std::vector<std::string>& v, const std::string& s) {
  return std::find(v.begin(), v.end(), s) != v.end();
}

// Set-up is milliseconds per sample, so it is repeated for at least
// kSetupSeconds before the passes and setup_s is the median sample.
constexpr std::size_t kMinSetupSamples = 15;
constexpr double kSetupSeconds = 0.5;

// ------------------------------------------------------------------------
// Checks: every operation is counted; a failed one is printed with its id.

struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t certified = 0;

  // `why` is empty when the operation passed every check.
  void record(const std::string& id, bool certified_op,
              const std::string& why) {
    ++attempted;
    if (certified_op) ++certified;
    if (why.empty()) return;
    ++failed;
    std::fprintf(stderr, "FAIL %s: %s\n", id.c_str(), why.c_str());
  }
};

std::string wstr(graph::Weight w) {
  return w == graph::kInfWeight ? std::string("inf") : std::to_string(w);
}

// Returns "" when the answer agrees with the oracle, else the reason.
std::string oracle_violation(cycle::SolveStatus status, graph::Weight value,
                             double guarantee, graph::Weight lower,
                             graph::Weight upper, graph::Weight oracle) {
  if (status == cycle::SolveStatus::kFailed) return "status failed";
  if (lower > oracle || oracle > upper) {
    return "bracket [" + wstr(lower) + ", " + wstr(upper) +
           "] excludes oracle " + wstr(oracle);
  }
  if (status == cycle::SolveStatus::kCertified && value != oracle) {
    return "certified " + wstr(value) + " != oracle " + wstr(oracle);
  }
  if (status == cycle::SolveStatus::kApproxCertified &&
      (value < oracle ||
       static_cast<double>(value) > guarantee * static_cast<double>(oracle))) {
    return "approx value " + wstr(value) + " outside [oracle " +
           wstr(oracle) + ", guarantee " + std::to_string(guarantee) + "x]";
  }
  return "";
}

// ------------------------------------------------------------------------
// Span recording (traced passes only). Benchmark-owned spans bracket the
// calls into each layer; the engine's kPhaseBegin/kPhaseEnd events add the
// algorithm's phase tree below them. Spans stay in memory until the run ends.

struct Span {
  std::string name;
  double start = 0.0;  // seconds since the recorder's epoch
  double end = 0.0;
  int parent = -1;
  std::string op;  // operation or request id
};

class SpanRecorder final : public congest::TraceSink {
 public:
  explicit SpanRecorder(Clock::time_point epoch) : epoch_(epoch) {}

  void begin(const std::string& name, const std::string& op) {
    Span s;
    s.name = name;
    s.start = now();
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.op = op;
    stack_.push_back(static_cast<int>(spans_.size()));
    spans_.push_back(std::move(s));
  }
  // Closes the innermost span, which must be named `name`. A mismatch is
  // remembered, not thrown: phase ends arrive from engine destructors.
  void end(const std::string& name) {
    if (stack_.empty() ||
        spans_[static_cast<std::size_t>(stack_.back())].name != name) {
      broken_ = true;
      return;
    }
    spans_[static_cast<std::size_t>(stack_.back())].end = now();
    stack_.pop_back();
  }

  void on_event(const congest::TraceEvent& e) override {
    switch (e.kind) {
      case congest::TraceEventKind::kPhaseBegin: begin(e.label, op_); break;
      case congest::TraceEventKind::kPhaseEnd: end(e.label); break;
      case congest::TraceEventKind::kRetransmit: ++retransmit_frames; break;
      case congest::TraceEventKind::kAck: ++ack_frames; break;
      default: break;
    }
  }

  // The id stamped on engine phase spans until the next call.
  void set_op(std::string op) { op_ = std::move(op); }
  const std::vector<Span>& spans() const { return spans_; }

  // Spans from index `from` on took place in a pass whose wall seconds
  // scale to reference seconds by `scale` (Yardstick::scale).
  void rescale_from(std::size_t from, double scale) {
    scale_.resize(spans_.size(), 1.0);
    std::fill(scale_.begin() + static_cast<std::ptrdiff_t>(from), scale_.end(),
              scale);
  }
  // Reference seconds of span i.
  double duration(std::size_t i) const {
    return (spans_[i].end - spans_[i].start) *
           (i < scale_.size() ? scale_[i] : 1.0);
  }
  // Duration minus the durations of direct children, per span.
  std::vector<double> self_times() const {
    if (broken_ || !stack_.empty()) {
      throw std::runtime_error("phase spans do not nest");
    }
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = duration(i);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].parent >= 0) {
        self[static_cast<std::size_t>(spans_[i].parent)] -= duration(i);
      }
    }
    return self;
  }

  std::uint64_t retransmit_frames = 0;
  std::uint64_t ack_frames = 0;

 private:
  double now() const {
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
  }
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<double> scale_;  // per span; 1 where never rescaled
  std::vector<int> stack_;
  std::string op_;
  bool broken_ = false;
};

// Writes the spans of a traced run as JSONL, one span per line in start
// order per recorder; `parent` is a line index in the same file, -1 for a
// root. An empty path writes nothing.
void write_spans(const std::string& path,
                 const std::vector<const SpanRecorder*>& recs) {
  if (path.empty()) return;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  long long base = 0;
  for (const SpanRecorder* rec : recs) {
    for (const Span& s : rec->spans()) {
      std::string name, op;
      congest::append_json_quoted(name, s.name);
      congest::append_json_quoted(op, s.op);
      std::fprintf(f,
                   "{\"name\":%s,\"start_s\":%.9f,\"end_s\":%.9f,"
                   "\"parent\":%lld,\"op\":%s}\n",
                   name.c_str(), s.start, s.end,
                   s.parent < 0 ? -1LL : base + s.parent, op.c_str());
    }
    base += static_cast<long long>(rec->spans().size());
  }
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

// ------------------------------------------------------------------------
// Metrics output.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

void print_result(const Ledger& ledger, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += ledger.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(ledger.attempted);
  out += ", \"failed\": " + std::to_string(ledger.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (!std::isfinite(metrics[i].value)) {
      throw std::runtime_error("metric " + metrics[i].name + " is not finite");
    }
    char num[32];
    // Shortest text that reads back as the same double: every digit.
    const auto res = std::to_chars(num, num + sizeof num, metrics[i].value);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           std::string(num, res.ptr) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

// Per-layer values by metric name. Every workload prints the same list,
// with zero where a layer is not exercised.
using LayerMetrics = std::map<std::string, double>;

std::vector<Metric> per_layer_list(LayerMetrics& m) {
  std::vector<Metric> out;
  auto add = [&](const std::string& name, const char* unit) {
    out.push_back(Metric{name, m[name], unit});
  };
  add("graph.load_ms", "ms");
  add("network.build_ms", "ms");
  add("engine.rounds", "count");
  add("engine.words", "count");
  add("engine.ns_per_word", "ns");
  add("engine.max_queue_words", "count");
  add("engine.overflow_peak_entries", "count");
  add("engine.dense_rounds", "count");
  add("engine.sparse_rounds", "count");
  add("engine.spill_peak_slots", "count");
  add("engine.multi_words", "count");
  for (const std::string& leaf : kPrimLeaves) {
    add("prim." + leaf + ".self_s", "s");
    add("prim." + leaf + ".words", "count");
    add("prim." + leaf + ".max_queue_words", "count");
  }
  add("prim.unattributed_pct", "%");
  for (const std::string& phase : kAlgoPhases) add("algo." + phase + ".s", "s");
  add("algo.other.s", "s");
  add("arq.retransmitted_words", "count");
  add("arq.checksum_rejects", "count");
  add("arq.dup_words", "count");
  add("arq.dropped_words", "count");
  add("arq.word_overhead_x", "x");
  add("arq.retransmit_frames", "count");
  add("arq.ack_frames", "count");
  add("certify.validate_ms", "ms");
  add("service.parse_ms", "ms");
  add("service.execute_ms", "ms");
  add("service.serialize_ms", "ms");
  add("service.cache_hit_pct", "%");
  add("service.attempts_per_request", "count");
  add("service.auto_approx_pct", "%");
  add("trace.solve_s", "s");
  add("trace.overhead_pct", "%");
  add("process.cpu_s", "s");
  add("host.slowdown_x", "x");
  return out;
}

// One pass over a workload's operations, in reference seconds.
struct PassTiming {
  double wall_s = 0.0;        // seconds of the operation phase
  std::vector<double> op_ms;  // per-operation latency
  double cpu_s = 0.0;
  double slowdown = 1.0;      // 1 / scale: the host's, over the pass

  // Wall seconds to reference seconds (Yardstick::scale).
  void to_reference(double scale) {
    wall_s *= scale;
    for (double& ms : op_ms) ms *= scale;
    cpu_s *= scale;
    slowdown = 1.0 / scale;
  }
};

// End-to-end metrics: medians over the untraced passes of per-pass figures,
// so the percentile behind request_tail_ms is fixed by the workload's pass
// size, not by how many passes fit in the run.
std::vector<Metric> end_to_end_list(const std::vector<PassTiming>& passes,
                                    const std::vector<double>& setup_s,
                                    double rss_mb, const Ledger& ledger) {
  std::vector<double> wall, p50, tail, rps;
  std::string walls;
  for (const PassTiming& p : passes) {
    const mwcbench::Summary s = summarize(p.op_ms);
    wall.push_back(p.wall_s);
    p50.push_back(s.median);
    tail.push_back(s.tail);
    rps.push_back(static_cast<double>(p.op_ms.size()) / p.wall_s);
    char buf[48];
    std::snprintf(buf, sizeof buf, " %.3f (host %.2fx)", p.wall_s, p.slowdown);
    walls += buf;
  }
  const mwcbench::Summary one = summarize(passes.front().op_ms);
  std::fprintf(stderr,
               "request_tail_ms: p%.2f of %zu operations per pass "
               "(%zu beyond); %zu passes, reference seconds:%s\n",
               one.tail_percentile, one.count, one.tail_beyond, passes.size(),
               walls.c_str());
  const double n = static_cast<double>(ledger.attempted);
  return {
      {"setup_s", median(setup_s), "s"},
      {"solve_s", median(wall), "s"},
      {"peak_rss_mb", rss_mb, "MB"},
      {"certified_pct", 100.0 * static_cast<double>(ledger.certified) / n, "%"},
      {"ok_pct", 100.0 * (n - static_cast<double>(ledger.failed)) / n, "%"},
      {"throughput_rps", median(rps), "req/s"},
      {"request_p50_ms", median(p50), "ms"},
      {"request_tail_ms", median(tail), "ms"},
  };
}

// Multiplies every sample by `scale`.
void rescale(double scale, std::initializer_list<std::vector<double>*> samples) {
  for (std::vector<double>* v : samples) {
    for (double& x : *v) x *= scale;
  }
}

// Runs passes while the mean pass so far still fits in `seconds`, at least
// one: untraced only, or, traced, alternating untraced and traced passes,
// at least one of each.
template <typename PassFn>
void run_passes(Clock::time_point start, double seconds, bool trace,
                PassFn pass) {
  std::size_t untraced = 0, traced = 0;
  for (;;) {
    const bool traced_pass = trace && traced < untraced;
    pass(traced_pass);
    ++(traced_pass ? traced : untraced);
    const double elapsed = seconds_since(start);
    const double per_pass = elapsed / static_cast<double>(untraced + traced);
    const bool enough = !trace || traced > 0;
    if (enough && elapsed + per_pass > seconds) return;
  }
}

// Fills trace.solve_s, trace.overhead_pct, process.cpu_s and
// host.slowdown_x; returns the median untraced pass seconds they compare
// against.
double add_trace_costs(const std::vector<PassTiming>& untraced,
                       const std::vector<double>& traced_s,
                       LayerMetrics& layer) {
  std::vector<double> wall, cpu, slowdown;
  for (const PassTiming& p : untraced) {
    wall.push_back(p.wall_s);
    cpu.push_back(p.cpu_s);
    slowdown.push_back(p.slowdown);
  }
  const double base = median(wall);
  layer["trace.solve_s"] = median(traced_s);
  layer["trace.overhead_pct"] = 100.0 * (median(traced_s) - base) / base;
  layer["process.cpu_s"] = median(cpu);
  layer["host.slowdown_x"] = median(slowdown);
  return base;
}

// ------------------------------------------------------------------------
// Solve workloads.

struct SolveCase {
  std::string id;
  std::string text;  // graph file text: all the program sees of the input
  cycle::SolveMode mode = cycle::SolveMode::kExact;
  congest::NetworkConfig cfg;  // threads = 1
  std::uint64_t net_seed = 0;
  graph::Weight oracle = graph::kInfWeight;
};

std::vector<SolveCase> make_solve_cases(const std::string& workload,
                                        std::uint64_t seed) {
  std::vector<SolveCase> cases;
  support::Rng rng(seed);
  const graph::WeightRange w10{1, 10};
  auto add = [&](std::string id, const graph::Graph& g,
                 cycle::SolveMode mode) {
    std::ostringstream text;
    graph::save_graph(g, text);
    SolveCase c;
    c.id = std::move(id);
    c.text = text.str();
    c.mode = mode;
    c.net_seed = seed;
    c.oracle = graph::seq::mwc(g);
    cases.push_back(std::move(c));
  };
  if (workload == "exact-768") {
    // At seed 7 this is `mwc_cli gen random 768 3072 7` on network seed 3,
    // the reference run of the roadmap's measurements.
    add("exact-768", graph::random_connected(768, 3072, w10, rng),
        cycle::SolveMode::kExact);
    cases.back().net_seed = seed ^ 4;
  } else if (workload == "approx-classes") {
    add("girth-approx",
        graph::cycle_with_chords(1024, 512, graph::WeightRange{1, 1}, rng),
        cycle::SolveMode::kApprox);
    add("weighted-undirected", graph::random_connected(160, 640, w10, rng),
        cycle::SolveMode::kApprox);
    add("directed-2approx", graph::bottleneck_digraph(384, 8, rng),
        cycle::SolveMode::kApprox);
    add("weighted-directed",
        graph::random_strongly_connected(192, 768, w10, rng),
        cycle::SolveMode::kApprox);
  } else if (workload == "lossy-arq") {
    // Four instances: one fault schedule's rounds and spill-pool peak vary
    // by up to a quarter from seed to seed; a pass over four evens that out.
    for (int i = 0; i < 4; ++i) {
      add("lossy-arq-" + std::to_string(i),
          graph::random_connected(128, 512, w10, rng),
          cycle::SolveMode::kExact);
      SolveCase& c = cases.back();
      c.cfg.faults.drop_prob = 0.1;
      c.cfg.faults.dup_prob = 0.05;
      c.cfg.faults.corrupt_prob = 0.01;
      c.cfg.reliable_transport = true;
      c.net_seed = seed + static_cast<std::uint64_t>(i);
    }
  }
  return cases;
}

// The graph and network of one case, built the way a caller would: parse
// the text, construct the Network.
struct Built {
  std::unique_ptr<graph::Graph> g;
  std::unique_ptr<congest::Network> net;
  double load_s = 0.0;
  double build_s = 0.0;
};

Built build_case(const SolveCase& c, const congest::NetworkConfig& cfg) {
  Built b;
  auto t0 = Clock::now();
  std::istringstream in(c.text);
  b.g = std::make_unique<graph::Graph>(graph::load_graph(in));
  b.load_s = seconds_since(t0);
  t0 = Clock::now();
  b.net = std::make_unique<congest::Network>(*b.g, c.net_seed, cfg);
  b.build_s = seconds_since(t0);
  return b;
}

// What a solve produced that must repeat exactly on every pass.
struct Outcome {
  cycle::SolveStatus status = cycle::SolveStatus::kFailed;
  graph::Weight value = graph::kInfWeight;
  std::uint64_t rounds = 0;
  std::uint64_t words = 0;
  bool operator==(const Outcome&) const = default;
};

// Engine, spill-pool, ARQ and per-primitive counters of one traced solve.
void add_counters(const cycle::MwcReport& r, const congest::Network& net,
                  LayerMetrics& layer) {
  auto peak = [&](const std::string& name, std::uint64_t v) {
    layer[name] = std::max(layer[name], static_cast<double>(v));
  };
  const congest::RunStats& st = r.run.stats;
  const congest::FrontierStats& fs = net.frontier_total();
  layer["engine.rounds"] += static_cast<double>(st.rounds);
  layer["engine.words"] += static_cast<double>(st.words);
  peak("engine.max_queue_words", st.max_queue_words);
  peak("engine.overflow_peak_entries", fs.overflow_peak_entries);
  layer["engine.dense_rounds"] += static_cast<double>(fs.dense_rounds);
  layer["engine.sparse_rounds"] += static_cast<double>(fs.sparse_rounds);
  peak("engine.spill_peak_slots", fs.spill_peak_slots);
  layer["engine.multi_words"] += static_cast<double>(fs.multi_words);
  layer["arq.retransmitted_words"] += static_cast<double>(st.retransmitted_words);
  layer["arq.checksum_rejects"] += static_cast<double>(st.checksum_rejects);
  layer["arq.dup_words"] += static_cast<double>(st.dup_words);
  layer["arq.dropped_words"] += static_cast<double>(st.dropped_words);
  for (const congest::PhaseMetrics& pm : r.metrics.phases) {
    const std::string leaf = sanitize(pm.path.substr(pm.path.rfind('/') + 1));
    if (!contains(kPrimLeaves, leaf)) continue;
    layer["prim." + leaf + ".words"] += static_cast<double>(pm.words);
    peak("prim." + leaf + ".max_queue_words", pm.max_queue_words);
  }
}

int run_solve_workload(const std::string& workload, std::uint64_t seed,
                       double seconds, bool trace,
                       const std::string& spans_path) {
  Yardstick yard(kLargeYardstick);
  const std::vector<SolveCase> cases = make_solve_cases(workload, seed);
  Ledger ledger;
  std::vector<Outcome> first;  // outcomes of the first pass, per case
  LayerMetrics layer;
  std::vector<double> setup_s, load_ms, build_ms, validate_ms;
  std::vector<PassTiming> untraced;
  std::vector<double> traced_s;
  double rss_mb = 0.0;
  SpanRecorder rec(Clock::now());

  double y = yard.read();  // the latest yardstick reading
  const auto start = Clock::now();
  while (setup_s.size() < kMinSetupSamples ||
         seconds_since(start) < kSetupSeconds) {
    double load = 0.0, build = 0.0;
    for (const SolveCase& c : cases) {
      const Built b = build_case(c, c.cfg);
      load += b.load_s;
      build += b.build_s;
    }
    setup_s.push_back(load + build);
    load_ms.push_back(1e3 * load);
    build_ms.push_back(1e3 * build);
  }
  const double y_setup = yard.read();
  rescale(yard.scale(y, y_setup), {&setup_s, &load_ms, &build_ms});
  y = y_setup;

  auto pass = [&](bool traced_pass) {
    PassTiming pt;
    double validate = 0.0;
    const std::size_t first_span = rec.spans().size();
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const SolveCase& c = cases[i];
      Built b = build_case(c, c.cfg);
      cycle::SolveOptions opts;
      opts.mode = c.mode;
      std::unique_ptr<congest::Trace> tr;
      if (traced_pass) {
        congest::TraceOptions topts;
        topts.phase_markers = true;
        topts.transport_events = true;
        tr = std::make_unique<congest::Trace>(1, topts);  // one-slot ring
        tr->add_sink(&rec);
        b.net->attach_trace(tr.get());
        opts.collect_metrics = true;
        rec.set_op(c.id);
        rec.begin("solve", c.id);
      }
      const double cpu0 = cpu_seconds();
      const auto t0 = Clock::now();
      const cycle::MwcReport r = cycle::solve(*b.net, opts);
      const double dt = seconds_since(t0);
      pt.cpu_s += cpu_seconds() - cpu0;
      if (traced_pass) {
        rec.end("solve");
        b.net->attach_trace(nullptr);
        if (traced_s.empty()) add_counters(r, *b.net, layer);
      }
      pt.wall_s += dt;
      pt.op_ms.push_back(1e3 * dt);

      std::string why = oracle_violation(r.status, r.result.value, r.guarantee,
                                         r.lower_bound, r.upper_bound, c.oracle);
      if (!r.result.witness.empty()) {
        graph::Weight total = 0;
        const auto v0 = Clock::now();
        const bool valid =
            cycle::detail::validate_cycle(*b.g, r.result.witness, &total);
        validate += seconds_since(v0);
        if (!valid && why.empty()) why = "returned witness does not validate";
      }
      const Outcome o{r.status, r.result.value, r.run.stats.rounds,
                      r.run.stats.words};
      if (first.size() <= i) {
        first.push_back(o);
      } else if (why.empty() && !(o == first[i])) {
        why = "not deterministic: rounds " + std::to_string(o.rounds) +
              " vs " + std::to_string(first[i].rounds) + ", words " +
              std::to_string(o.words) + " vs " + std::to_string(first[i].words);
      }
      ledger.record(c.id, r.certified(), why);
    }
    const double y1 = yard.read();
    const double scale = yard.scale(y, y1);
    y = y1;
    pt.to_reference(scale);
    validate_ms.push_back(1e3 * scale * validate);
    if (traced_pass) {
      rec.rescale_from(first_span, scale);
      traced_s.push_back(pt.wall_s);
      return;
    }
    if (untraced.empty()) rss_mb = peak_rss_mb() - yard.megabytes();
    untraced.push_back(std::move(pt));
  };
  run_passes(start, seconds, trace, pass);

  std::uint64_t rounds = 0, words = 0;
  for (const Outcome& o : first) {
    rounds += o.rounds;
    words += o.words;
  }
  std::fprintf(stderr, "work per pass: %zu solves, %llu rounds, %llu words\n",
               cases.size(), static_cast<unsigned long long>(rounds),
               static_cast<unsigned long long>(words));
  if (!trace) {
    print_result(ledger, end_to_end_list(untraced, setup_s, rss_mb, ledger));
    return ledger.failed == 0 ? 0 : 1;
  }

  // Spans of the traced passes: primitive self time by leaf name, top-level
  // algorithm phases inclusive, both per traced pass.
  const std::vector<Span>& spans = rec.spans();
  const std::vector<double> self = rec.self_times();
  const double nt = static_cast<double>(traced_s.size());
  double solve_total = 0.0, prim_total = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double dur = rec.duration(i);
    if (s.parent < 0) {  // the benchmark's own "solve" span
      solve_total += dur;
      continue;
    }
    const std::string name = sanitize(s.name);
    if (contains(kPrimLeaves, name)) {
      layer["prim." + name + ".self_s"] += self[i] / nt;
      prim_total += self[i];
    }
    if (spans[static_cast<std::size_t>(s.parent)].parent < 0) {
      if (!contains(kAlgoPhases, name)) {
        std::fprintf(stderr, "note: unlisted top-level phase '%s'\n",
                     s.name.c_str());
      }
      layer[contains(kAlgoPhases, name) ? "algo." + name + ".s"
                                        : "algo.other.s"] += dur / nt;
    }
  }
  layer["prim.unattributed_pct"] =
      100.0 * (solve_total - prim_total) / solve_total;

  const double base = add_trace_costs(untraced, traced_s, layer);
  layer["graph.load_ms"] = median(load_ms);
  layer["network.build_ms"] = median(build_ms);
  layer["engine.ns_per_word"] = 1e9 * base / layer["engine.words"];
  layer["certify.validate_ms"] = median(validate_ms);
  layer["arq.retransmit_frames"] =
      static_cast<double>(rec.retransmit_frames) / nt;
  layer["arq.ack_frames"] = static_cast<double>(rec.ack_frames) / nt;

  // ARQ word overhead against the same instances solved fault-free on a
  // network without the transport.
  double arq_words = 0.0, plain_words = 0.0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    if (!cases[i].cfg.reliable_transport) continue;
    Built b = build_case(cases[i], congest::NetworkConfig{});
    cycle::SolveOptions opts;
    opts.mode = cases[i].mode;
    arq_words += static_cast<double>(first[i].words);
    plain_words += static_cast<double>(cycle::solve(*b.net, opts).run.stats.words);
  }
  if (plain_words > 0.0) layer["arq.word_overhead_x"] = arq_words / plain_words;

  write_spans(spans_path, {&rec});
  print_result(ledger, per_layer_list(layer));
  return ledger.failed == 0 ? 0 : 1;
}

// ------------------------------------------------------------------------
// service-mix: a seeded JSONL corpus through SolveService::execute.

struct Request {
  std::string id;
  std::string line;  // the JSONL request text
  graph::Weight oracle = graph::kInfWeight;
  int twin = -1;     // index of the earlier request this one repeats
};

std::string request_line(const std::string& id, const graph::Graph& g,
                         std::uint64_t seed, const std::string& extra) {
  std::string s = "{\"id\":\"" + id + "\",\"graph\":{\"directed\":";
  s += g.is_directed() ? "true" : "false";
  s += ",\"n\":" + std::to_string(g.node_count()) + ",\"edges\":[";
  bool comma = false;
  for (const graph::Edge& e : g.edges()) {
    if (comma) s += ',';
    comma = true;
    s += "[" + std::to_string(e.from) + "," + std::to_string(e.to) + "," +
         std::to_string(e.w) + "]";
  }
  s += "]},\"seed\":" + std::to_string(seed) + extra + "}";
  return s;
}

// Same request under another id. The id is the line's first member.
std::string with_id(std::string text, const std::string& from,
                    const std::string& to) {
  return text.replace(text.find(from), from.size(), to);
}

// Requests per pass and how many of them are mid-size. Every pass replays
// the same corpus, so the tail percentile (ten requests beyond it) is fixed
// by these numbers: p95 of 200, the 7th of the 16 mid-size latencies.
constexpr int kCorpusSize = 200;
constexpr int kMidSize = 16;
constexpr int kMidPairGap = 24;  // one pair of mid-size requests per 24

std::vector<Request> make_corpus(std::uint64_t seed) {
  support::Rng rng(seed);
  std::vector<Request> out;
  std::vector<int> plain;  // indices a repeat may copy
  int small = 0;           // position among the small requests
  int mids = 0;            // position among the mid-size requests
  for (int i = 0; i < kCorpusSize; ++i) {
    char idbuf[16];
    std::snprintf(idbuf, sizeof idbuf, "q%03d", i);
    Request rq;
    rq.id = idbuf;
    const std::uint64_t req_seed = 1 + rng.next_below(1u << 20);
    // Mid-size requests come in adjacent pairs spread evenly over the
    // corpus, so the two workers always run two of them at once and the
    // process's peak RSS does not depend on how the workers interleave.
    // Sizes follow fixed schedules, so every seed has the same size mix
    // and only the graphs differ.
    const bool mid = i < kMidSize / 2 * kMidPairGap &&
                     i % kMidPairGap >= kMidPairGap / 2 &&
                     i % kMidPairGap < kMidPairGap / 2 + 2;
    if (mid) {
      const int n = 160 + 16 * (mids % 5);
      const bool directed = mids++ % 3 == 2;
      const graph::Graph g =
          directed ? graph::random_strongly_connected(n, 4 * n, {1, 10}, rng)
                   : graph::random_connected(n, 4 * n, {1, 10}, rng);
      rq.oracle = graph::seq::mwc(g);
      rq.line = request_line(rq.id, g, req_seed, "");
      out.push_back(std::move(rq));
      continue;
    }
    // Small requests: twelve slots per cycle; a slot's class and size
    // rotate from one cycle to the next.
    const int slot = small % 12;
    const int turn = slot + small / 12;
    ++small;
    if (slot == 6 || slot == 7) {
      // Repeat an identity at least eight requests back, so with two
      // workers its twin has almost always finished.
      std::vector<int> eligible;
      for (int p : plain) {
        if (p <= i - 8) eligible.push_back(p);
      }
      if (!eligible.empty()) {
        rq.twin = eligible[rng.next_below(eligible.size())];
        const Request& twin = out[static_cast<std::size_t>(rq.twin)];
        rq.oracle = twin.oracle;
        rq.line = with_id(twin.line, twin.id, rq.id);
        out.push_back(std::move(rq));
        continue;
      }
    }
    const int n = 16 + 16 * (turn % 6);
    const int cls = turn % 4;  // the four Table 1 classes
    const graph::WeightRange w =
        cls % 2 == 0 ? graph::WeightRange{1, 1} : graph::WeightRange{1, 10};
    const graph::Graph g =
        cls < 2 ? graph::random_connected(n, 2 * n, w, rng)
                : graph::random_strongly_connected(n, 2 * n, w, rng);
    rq.oracle = graph::seq::mwc(g);
    std::string extra;
    if (slot == 8 || slot == 9) {
      extra = ",\"faults\":{\"drop_prob\":0.1,\"dup_prob\":0.05}";
    } else if (slot == 10) {
      const std::string v = std::to_string(rng.next_below(n));
      extra = ",\"faults\":{\"crashes\":[[" + v + ",5]],\"recovers\":[[" + v +
              ",40]]}";
    } else if (slot == 11) {
      extra = ",\"budget\":{\"max_rounds\":" + std::to_string(n / 2) + "}";
    } else {
      plain.push_back(i);
    }
    rq.line = request_line(rq.id, g, req_seed, extra);
    out.push_back(std::move(rq));
  }
  return out;
}

int run_service_workload(std::uint64_t seed, double seconds, bool trace,
                         const std::string& spans_path) {
  Yardstick yard(kSmallYardstick);
  const std::vector<Request> corpus = make_corpus(seed);
  const std::size_t n = corpus.size();
  std::size_t repeats = 0;
  for (const Request& rq : corpus) repeats += rq.twin >= 0 ? 1 : 0;
  const service::ServiceConfig cfg;

  Ledger ledger;
  std::vector<std::string> first;  // response bytes of the first pass
  LayerMetrics layer;
  std::vector<double> setup_s, traced_s;
  std::vector<PassTiming> untraced;
  double rss_mb = 0.0;
  double cache_hits = 0.0, cache_lookups = 0.0;
  const auto epoch = Clock::now();
  SpanRecorder recs[2] = {SpanRecorder(epoch), SpanRecorder(epoch)};
  double y = 0.0;  // the latest yardstick reading

  auto parse = [&](std::size_t i, service::ServiceRequest& out) {
    std::string error;
    if (!service::parse_request(corpus[i].line, out, &error)) {
      throw std::runtime_error("corpus line " + corpus[i].id +
                               " rejected: " + error);
    }
  };
  // What `mwc_cli batch` does before solving: parse every line, construct
  // the service.
  auto setup = [&](std::vector<service::ServiceRequest>& reqs) {
    reqs.assign(n, service::ServiceRequest{});
    for (std::size_t i = 0; i < n; ++i) parse(i, reqs[i]);
    return std::make_unique<service::SolveService>(cfg);
  };

  auto pass = [&](bool traced_pass) {
    // A traced pass parses inside each request's span instead.
    std::vector<service::ServiceRequest> reqs(n);
    std::unique_ptr<service::SolveService> svc =
        traced_pass ? std::make_unique<service::SolveService>(cfg)
                    : setup(reqs);
    std::vector<service::ServiceResponse> resp(n);
    std::vector<std::string> bytes(n);
    std::vector<double> ms(n);
    std::vector<double> parse_s(2, 0.0);
    std::atomic<std::size_t> next{0};
    auto worker = [&](int w) {
      SpanRecorder* rec = traced_pass ? &recs[w] : nullptr;
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= n) return;
        const std::string& id = corpus[i].id;
        const auto t0 = Clock::now();
        if (rec != nullptr) {
          rec->begin("request", id);
          rec->begin("parse", id);
          parse(i, reqs[i]);
          rec->end("parse");
          parse_s[static_cast<std::size_t>(w)] += seconds_since(t0);
          rec->begin("execute", id);
        }
        resp[i] = svc->execute(reqs[i]);
        if (rec != nullptr) {
          rec->end("execute");
          rec->begin("serialize", id);
        }
        bytes[i] = resp[i].to_jsonl();
        if (rec != nullptr) {
          rec->end("serialize");
          rec->end("request");
        }
        ms[i] = 1e3 * seconds_since(t0);
      }
    };
    // A worker's exception is rethrown on this thread after the join.
    std::exception_ptr failure;
    std::mutex failure_mu;
    auto guarded = [&](int w) {
      try {
        worker(w);
      } catch (...) {
        std::lock_guard<std::mutex> lock(failure_mu);
        if (!failure) failure = std::current_exception();
      }
    };
    const std::size_t first_span[2] = {recs[0].spans().size(),
                                       recs[1].spans().size()};
    const double cpu0 = cpu_seconds();
    const auto w0 = Clock::now();
    {
      std::thread a(guarded, 0);
      std::thread b(guarded, 1);
      a.join();
      b.join();
    }
    const double wall = seconds_since(w0);
    const double cpu = cpu_seconds() - cpu0;
    if (failure) std::rethrow_exception(failure);
    const double y1 = yard.read();
    const double scale = yard.scale(y, y1);
    y = y1;
    PassTiming pt{wall, ms, cpu};
    pt.to_reference(scale);

    // One response per request with its id, agreeing with the oracle, the
    // same bytes on every pass, and a repeat answering exactly like its twin.
    for (std::size_t i = 0; i < n; ++i) {
      const Request& rq = corpus[i];
      const service::ServiceResponse& r = resp[i];
      std::string why;
      if (r.id != rq.id || r.admission != service::Admission::kAdmitted) {
        why = "response id '" + r.id + "', admission " +
              service::to_string(r.admission);
      } else {
        why = oracle_violation(r.status, r.value, r.guarantee, r.lower_bound,
                               r.upper_bound, rq.oracle);
      }
      if (why.empty() && !first.empty() && bytes[i] != first[i]) {
        why = "response differs from the first pass";
      }
      if (why.empty() && rq.twin >= 0) {
        const std::size_t t = static_cast<std::size_t>(rq.twin);
        if (with_id(bytes[t], corpus[t].id, rq.id) != bytes[i]) {
          why = "repeat differs from its twin " + corpus[t].id;
        }
      }
      ledger.record(rq.id, r.certified(), why);
    }
    cache_hits += static_cast<double>(svc->stats().cache_hits);
    cache_lookups += static_cast<double>(repeats);
    if (first.empty()) {
      first = bytes;
      std::map<std::string, int> by_status;
      double attempts = 0.0, approx = 0.0;
      for (const service::ServiceResponse& r : resp) {
        ++by_status[cycle::to_string(r.status)];
        attempts += static_cast<double>(r.attempts.size());
        approx += r.algorithm != "exact" ? 1.0 : 0.0;
        layer["engine.rounds"] += static_cast<double>(r.rounds);
        layer["engine.words"] += static_cast<double>(r.words);
      }
      std::string counts;
      for (const auto& [status, count] : by_status) {
        counts += " " + std::to_string(count) + " " + status;
      }
      std::fprintf(stderr, "statuses per pass:%s\n", counts.c_str());
      layer["service.attempts_per_request"] = attempts / static_cast<double>(n);
      layer["service.auto_approx_pct"] = 100.0 * approx / static_cast<double>(n);
    }
    if (traced_pass) {
      // Parsing is set-up in an untraced pass: leave it out of the
      // comparison (the two workers parse in parallel).
      traced_s.push_back(pt.wall_s - scale * (parse_s[0] + parse_s[1]) / 2.0);
      recs[0].rescale_from(first_span[0], scale);
      recs[1].rescale_from(first_span[1], scale);
      return;
    }
    if (untraced.empty()) rss_mb = peak_rss_mb() - yard.megabytes();
    untraced.push_back(std::move(pt));
  };

  y = yard.read();
  const auto start = Clock::now();
  while (setup_s.size() < kMinSetupSamples ||
         seconds_since(start) < kSetupSeconds) {
    std::vector<service::ServiceRequest> reqs;
    const auto s0 = Clock::now();
    const auto svc = setup(reqs);
    setup_s.push_back(seconds_since(s0));
  }
  const double y_setup = yard.read();
  rescale(yard.scale(y, y_setup), {&setup_s});
  y = y_setup;
  run_passes(start, seconds, trace, pass);

  if (!trace) {
    print_result(ledger, end_to_end_list(untraced, setup_s, rss_mb, ledger));
    return ledger.failed == 0 ? 0 : 1;
  }
  std::vector<double> parse_ms, execute_ms, serialize_ms;
  for (const SpanRecorder& rec : recs) {
    rec.self_times();  // throws if a span was left open
    for (std::size_t i = 0; i < rec.spans().size(); ++i) {
      const Span& s = rec.spans()[i];
      const double d = 1e3 * rec.duration(i);
      if (s.name == "parse") parse_ms.push_back(d);
      if (s.name == "execute") execute_ms.push_back(d);
      if (s.name == "serialize") serialize_ms.push_back(d);
    }
  }
  add_trace_costs(untraced, traced_s, layer);
  layer["service.parse_ms"] = median(parse_ms);
  layer["service.execute_ms"] = median(execute_ms);
  layer["service.serialize_ms"] = median(serialize_ms);
  layer["service.cache_hit_pct"] = 100.0 * cache_hits / cache_lookups;
  write_spans(spans_path, {&recs[0], &recs[1]});
  print_result(ledger, per_layer_list(layer));
  return ledger.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 7;
  double seconds = 25.0;
  bool trace = false;
  std::string spans_path;  // JSONL of the traced passes' spans
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      trace = value == "1";
    } else if (flag == "--spans") {
      spans_path = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  try {
    if (workload == "exact-768" || workload == "approx-classes" ||
        workload == "lossy-arq") {
      return run_solve_workload(workload, seed, seconds, trace, spans_path);
    }
    if (workload == "service-mix") {
      return run_service_workload(seed, seconds, trace, spans_path);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
  return 2;
}
