// perfbench_cpp — the compiled half of the repository benchmark.
//
// run.py builds this binary next to the shipped repserved daemon and turns
// its output into metrics. Every subcommand prints one JSON object per line
// on stdout; nothing here computes a final metric, so the accounting logic
// lives in one place (perfbench/pbstats.py) and is unit-tested there.
//
//   perfbench_cpp info
//   perfbench_cpp paper        --seed S --seconds T --trace 0|1 [--problems N] [--spans PATH]
//   perfbench_cpp sharded      --seed S --seconds T --trace 0|1 [--problems N] [--spans PATH]
//   perfbench_cpp serve-client --seed S --seconds T --port P --records PATH
//   perfbench_cpp serve-probe  --seed S
//
// The library is only called through its public headers; the timers and
// spans below sit around those calls. With --trace 1 the paper and sharded
// subcommands solve every problem twice in a row, untraced then traced, so
// each traced timing has an untraced twin on the same input and host state.
// --problems N replaces the default number of counted problems (run.py's
// short side pass of the other problem workload in a traced run).
#include <poll.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <arpa/inet.h>
#include <fcntl.h>
#include <malloc.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "baseline/power_iteration.hpp"
#include "bloom/score_store.hpp"
#include "common/powerlaw.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/engine.hpp"
#include "gossip/sharded_gossip.hpp"
#include "graph/csr.hpp"
#include "graph/topology.hpp"
#include "serve/handler.hpp"
#include "serve/loopback.hpp"
#include "serve/protocol.hpp"
#include "serve/store.hpp"
#include "simd/simd.hpp"
#include "telemetry/metrics.hpp"
#include "trust/feedback.hpp"
#include "trust/generator.hpp"

using namespace gt;

namespace {

// --- workload constants (documented in perfbench/README.md) -----------------

constexpr std::size_t kPaperN = 500;
// RMS relative error against the fixed point: Table 3 measures 4.8e-4 on
// average; single matrices reach ~8e-3 at n=500 because delta bounds the
// mean change between cycles, not the distance to the fixed point (a
// contraction at rate 1 - alpha stops up to delta (1 - alpha) / alpha
// away, and RMS weighs the worst nodes). 20 x delta flags a broken engine
// without failing a correct one.
constexpr double kAggErrTol = 2e-2;
constexpr std::size_t kShardedN = 20000;
constexpr double kMassGapTol = 1e-9;
// 99th percentile of |estimate - truth| / truth over every node and
// component after a sharded run, allowed up to epsilon. Converged runs
// measure 3e-6..9e-5. The percentile and not the maximum: the engine's
// per-node stop rule (estimate moved < epsilon for 3 rounds) also stops a
// leaf that simply received nothing for 3 rounds, and a handful of those
// sit up to 180% off the mean in a correct run.
constexpr double kShardedErrTol = 1e-3;
// Every run solves at least this many problems; the count metrics are taken
// over exactly these, so they repeat for a seed. A traced run needs fewer
// because its per-layer figures carry no bound.
constexpr std::size_t kPaperCountProblems = 64;
constexpr std::size_t kShardedCountProblems = 32;
constexpr std::size_t kTracedCountProblems = 16;
constexpr std::size_t kThreads = 1;         // process under test, both workloads
constexpr std::size_t kScalingThreads = 2;  // sharded: traced scaling reference
constexpr std::size_t kScalingProblems = 3;
constexpr std::size_t kServeN = 512;  // run.py starts repserved with --n 512
constexpr double kZipfExponent = 0.8;
constexpr std::size_t kBatchKeys = 16;
constexpr std::uint64_t kBatchPerSecond = 20000;
constexpr std::uint64_t kIngestPerSecond = 1000;
constexpr std::uint64_t kHealthPeriodNs = 2'000'000;
constexpr std::uint64_t kStatsPollPeriodNs = 100'000'000;  // STATS + METRICS
constexpr std::size_t kRefold = 200;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double seconds_between(std::uint64_t a, std::uint64_t b) {
  return static_cast<double>(b - a) * 1e-9;
}

/// Per-problem input stream: problem i of a run draws stream s from
/// mix64(mix64(seed, i), s), so inputs depend on the seed alone.
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t problem,
                       std::uint64_t stream) {
  return mix64(mix64(seed, problem), stream);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// --- output -----------------------------------------------------------------

/// One JSON object on one stdout line.
class Line {
 public:
  explicit Line(const char* kind) { s_ = std::string("{\"kind\":\"") + kind + '"'; }
  Line& num(const char* key, double v) {
    char buf[64];
    if (std::isfinite(v)) std::snprintf(buf, sizeof buf, "%.17g", v);
    else std::snprintf(buf, sizeof buf, "null");
    return raw(key, buf);
  }
  Line& u64(const char* key, std::uint64_t v) { return raw(key, std::to_string(v)); }
  Line& flag(const char* key, bool v) { return raw(key, v ? "true" : "false"); }
  Line& str(const char* key, const std::string& v) {
    std::string q = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') q += '\\';
      q += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
    }
    return raw(key, q + '"');
  }
  void emit() {
    std::printf("%s}\n", s_.c_str());
    std::fflush(stdout);
  }

 private:
  Line& raw(const char* key, const std::string& v) {
    s_ += ",\"";
    s_ += key;
    s_ += "\":";
    s_ += v;
    return *this;
  }
  std::string s_;
};

/// In-memory span recorder: name, start, end and parent of every span,
/// written out as one JSON array when the run ends. Disabled recorders
/// cost one branch per scope.
class Spans {
 public:
  struct Rec {
    const char* name;
    std::uint64_t start = 0, end = 0;
    std::uint32_t parent = 0;  // 1-based index, 0 = root
  };
  class Scope {
   public:
    Scope(Spans& s, const char* name) : s_(s), id_(s.open(name)) {}
    ~Scope() { s_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans& s_;
    std::uint32_t id_;
  };

  bool enabled = false;

  std::uint32_t open(const char* name) {
    if (!enabled) return 0;
    recs_.push_back({name, now_ns(), 0, stack_.empty() ? 0u : stack_.back()});
    stack_.push_back(static_cast<std::uint32_t>(recs_.size()));
    return stack_.back();
  }
  void close(std::uint32_t id) {
    if (id == 0) return;
    recs_[id - 1].end = now_ns();
    stack_.pop_back();
  }
  bool write(const std::string& path) const {
    if (path.empty()) return true;
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < recs_.size(); ++i) {
      const Rec& r = recs_[i];
      std::fprintf(f, "  {\"id\":%zu,\"parent\":%u,\"name\":\"%s\",\"start_ns\":%llu,\"end_ns\":%llu}%s\n",
                   i + 1, r.parent, r.name, static_cast<unsigned long long>(r.start),
                   static_cast<unsigned long long>(r.end),
                   i + 1 < recs_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Rec> recs_;
  std::vector<std::uint32_t> stack_;
};

// --- strict argument parsing --------------------------------------------------

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "perfbench_cpp: %s\n", msg.c_str());
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& v,
                        std::uint64_t lo, std::uint64_t hi) {
  if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos)
    die(flag + " expects a whole number, got '" + v + "'");
  errno = 0;
  const unsigned long long x = std::strtoull(v.c_str(), nullptr, 10);
  if (errno == ERANGE || x < lo || x > hi)
    die(flag + " out of range [" + std::to_string(lo) + ", " + std::to_string(hi) +
        "]: " + v);
  return x;
}

struct Args {
  std::string cmd;
  std::uint64_t seed = 0;
  std::uint64_t seconds = 0;
  bool trace = false;
  std::uint64_t port = 0;
  std::uint64_t problems = 0;  // 0: the subcommand's default count
  std::string spans, records;
};

Args parse(int argc, char** argv) {
  if (argc < 2) die("missing subcommand (info|paper|sharded|serve-client|serve-probe)");
  Args a;
  a.cmd = argv[1];
  std::map<std::string, bool> allowed{{"--seed", false},  {"--seconds", false},
                                      {"--trace", false}, {"--port", false},
                                      {"--spans", false}, {"--records", false},
                                      {"--problems", false}};
  for (int i = 2; i < argc; i += 2) {
    const std::string flag = argv[i];
    auto it = allowed.find(flag);
    if (it == allowed.end()) die("unknown flag: " + flag);
    if (it->second) die("flag given twice: " + flag);
    it->second = true;
    if (i + 1 >= argc) die("missing value for " + flag);
    const std::string v = argv[i + 1];
    if (flag == "--seed") a.seed = parse_u64(flag, v, 0, UINT64_MAX);
    else if (flag == "--seconds") a.seconds = parse_u64(flag, v, 0, 3600);
    else if (flag == "--trace") a.trace = parse_u64(flag, v, 0, 1) == 1;
    else if (flag == "--port") a.port = parse_u64(flag, v, 1, 65535);
    else if (flag == "--problems") a.problems = parse_u64(flag, v, 1, 100000);
    else if (flag == "--spans") a.spans = v;
    else a.records = v;
  }
  if (a.cmd == "serve-client" && (!allowed["--port"] || !allowed["--records"]))
    die("serve-client needs --port and --records");
  return a;
}

// --- info ---------------------------------------------------------------------

int cmd_info() {
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  Line("info")
      .str("compiler", compiler)
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .str("simd", simd::level_name(simd::resolve_level(simd::SimdLevel::kAuto)))
      .u64("threads", kThreads)
      .u64("scaling_threads", kScalingThreads)
      .emit();
  return 0;
}

// --- problem workloads -------------------------------------------------------------

/// Runs problem 0, 1, ... until `seconds` have passed and at least
/// `count_problems` (or --problems) are solved. With tracing on, each
/// problem is solved untraced (pass 0) and then traced (pass 1) before the
/// next one starts.
template <class Solve>
void problem_loop(const Args& a, std::size_t count_problems, Spans& spans, Solve solve) {
  const std::size_t min_problems =
      a.problems != 0 ? a.problems : a.trace ? kTracedCountProblems : count_problems;
  const std::uint64_t begin = now_ns();
  for (std::uint64_t i = 0;
       i < min_problems || seconds_between(begin, now_ns()) < static_cast<double>(a.seconds);
       ++i) {
    const bool counted = i < min_problems;
    spans.enabled = false;
    solve(i, 0, counted);
    if (a.trace) {
      spans.enabled = true;
      solve(i, 1, counted);
    }
  }
}

// --- paper: GossipTrustEngine::run at n = kPaperN ---------------------------------

void paper_problem(const Args& a, std::uint64_t i, int pass, bool counted, Spans& spans) {
  const core::GossipTrustConfig cfg;  // Table 2 defaults, 1 lane, SIMD auto
  Spans::Scope problem_span(spans, "problem");
  const std::uint64_t s0 = now_ns();
  trust::FeedbackLedger ledger(kPaperN);
  {
    Spans::Scope sp(spans, "trust.generate");
    Rng gen_rng(sub_seed(a.seed, i, 0));
    const auto qualities = trust::draw_service_qualities(kPaperN, 0, gen_rng);
    trust::FeedbackGenConfig gen;
    gen.n = kPaperN;
    trust::generate_honest_feedback(ledger, qualities, gen, gen_rng);
  }
  std::unique_ptr<core::GossipTrustEngine> engine;
  {
    Spans::Scope sp(spans, "core.construct");
    engine = std::make_unique<core::GossipTrustEngine>(kPaperN, cfg);
  }
  const std::uint64_t t0 = now_ns();
  std::optional<trust::SparseMatrix> normalized;
  {
    Spans::Scope sp(spans, "trust.normalize");
    normalized.emplace(ledger.normalized_matrix());
  }
  const std::uint64_t t1 = now_ns();
  const trust::SparseMatrix& s = *normalized;
  core::AggregationResult res;
  {
    Spans::Scope sp(spans, "core.run");
    Rng rng(sub_seed(a.seed, i, 1));
    res = engine->run(s, rng);
  }
  const std::uint64_t t2 = now_ns();
  double err = 0.0;
  {
    Spans::Scope sp(spans, "baseline.check");
    const auto ref = baseline::fixed_power_iteration(s, cfg.alpha, res.power_nodes, 1e-13);
    err = rms_relative_error(ref.scores, res.scores);
  }
  double send = 0.0, book = 0.0, readout = 0.0;
  std::uint64_t active_max = 0, skipped = 0;
  for (const auto& c : res.cycles) {
    send += c.send_phase_seconds;
    book += c.bookkeeping_phase_seconds;
    readout += c.readout_seconds;
    active_max = std::max<std::uint64_t>(active_max, c.active_triplets);
    skipped += c.zero_components_skipped;
  }
  std::string why;
  if (!res.converged) why += "aggregation did not converge; ";
  if (res.degraded_cycles() != 0) why += "degraded cycles; ";
  if (!(err <= kAggErrTol)) why += "agg_err above tolerance; ";
  Line("problem")
      .u64("pass", pass)
      .u64("index", i)
      .flag("counted", counted)
      .flag("ok", why.empty())
      .str("why", why)
      .num("setup_s", seconds_between(s0, t0))
      .num("latency_s", seconds_between(t1, t2))
      .num("fresh_s", seconds_between(t0, t2))
      .num("normalize_s", seconds_between(t0, t1))
      .u64("rounds", res.total_gossip_steps())
      .num("wire_bytes_per_node",  // 24-byte triplets, as the async engine's wire
           24.0 * static_cast<double>(res.total_triplets()) / static_cast<double>(kPaperN))
      .u64("triplets", res.total_triplets())
      .u64("cycles", res.num_cycles())
      .u64("degraded_cycles", res.degraded_cycles())
      .num("agg_err", err)
      .u64("nnz", s.nonzeros())
      .num("send_s", send)
      .num("bookkeeping_s", book)
      .num("readout_s", readout)
      .u64("active_triplets", active_max)
      .u64("zero_skipped", skipped)
      .emit();
}

int cmd_paper(const Args& a) {
  Spans spans;
  problem_loop(a, kPaperCountProblems, spans, [&](std::uint64_t i, int pass, bool counted) {
    paper_problem(a, i, pass, counted, spans);
  });
  return spans.write(a.spans) ? 0 : 1;
}

// --- sharded: ShardedGossip::initialize_fig3 + run ------------------------------

void sharded_problem(const Args& a, std::uint64_t i, std::size_t threads, int pass,
                     bool counted, Spans& spans, const char* kind) {
  Spans::Scope problem_span(spans, "problem");
  const std::uint64_t s0 = now_ns();
  std::unique_ptr<graph::CsrView> csr;
  {
    Spans::Scope sp(spans, "graph.build");
    Rng grng(sub_seed(a.seed, i, 0));
    const graph::Graph g = graph::make_erdos_renyi(kShardedN, 3 * kShardedN, grng);
    csr = std::make_unique<graph::CsrView>(g);
  }
  const std::uint64_t s1 = now_ns();
  gossip::ShardedGossipConfig cfg;  // bench_million's engine config
  cfg.components = 4;
  cfg.period = 1.0;
  cfg.base_latency = 0.25;
  cfg.jitter = 0.1;
  cfg.epsilon = 1e-3;
  cfg.stable_rounds = 3;
  cfg.horizon = 200.0;
  cfg.seed = sub_seed(a.seed, i, 1);
  cfg.shards = 8;
  cfg.threads = threads;
  std::unique_ptr<gossip::ShardedGossip> eng;
  {
    Spans::Scope sp(spans, "sharded.construct");
    eng = std::make_unique<gossip::ShardedGossip>(*csr, cfg);
  }
  const std::uint64_t t0 = now_ns();
  {
    Spans::Scope sp(spans, "sharded.init");
    eng->initialize_fig3(sub_seed(a.seed, i, 2));
  }
  const std::uint64_t t1 = now_ns();
  gossip::ShardedGossipResult res;
  {
    Spans::Scope sp(spans, "sharded.run");
    res = eng->run();
  }
  const std::uint64_t t2 = now_ns();
  double gap = 0.0, err = 0.0;
  {
    Spans::Scope sp(spans, "sharded.check");
    gap = eng->mass_summary().max_gap();
    std::vector<double> errs;
    errs.reserve(kShardedN * cfg.components);
    for (std::size_t c = 0; c < cfg.components; ++c) {
      const double truth = eng->truth(static_cast<std::uint32_t>(c));
      for (std::size_t v = 0; v < kShardedN; ++v)
        errs.push_back(std::fabs(eng->estimate(v, c) - truth) / truth);
    }
    err = NAN;  // stays NaN when an estimate is NaN (w near zero)
    if (std::none_of(errs.begin(), errs.end(), [](double e) { return std::isnan(e); })) {
      const auto p99 = errs.begin() + static_cast<std::ptrdiff_t>(errs.size() * 99 / 100);
      std::nth_element(errs.begin(), p99, errs.end());
      err = *p99;
    }
  }
  std::string why;
  if (!res.converged) why += "run did not converge; ";
  if (!(gap <= kMassGapTol)) why += "mass ledger gap above 1e-9; ";
  if (!(err <= kShardedErrTol)) why += "p99 estimate error above epsilon; ";
  const double n = static_cast<double>(kShardedN);
  Line(kind)
      .u64("pass", pass)
      .u64("index", i)
      .flag("counted", counted)
      .flag("ok", why.empty())
      .str("why", why)
      .num("setup_s", seconds_between(s0, t0))
      .num("graph_build_s", seconds_between(s0, s1))
      .num("init_s", seconds_between(t0, t1))
      .num("latency_s", seconds_between(t1, t2))
      .num("fresh_s", seconds_between(t0, t2))
      .num("rounds", res.sim_time)  // sim time at which every node is stable
      .num("wire_bytes_per_node", static_cast<double>(res.wire_bytes) / n)
      .u64("events", res.events)
      .u64("windows", res.windows)
      .u64("pushes", res.pushes)
      .u64("deliveries", res.deliveries)
      .u64("triplets_sent", res.triplets_sent)
      .u64("triplets_unmatched", res.triplets_unmatched)
      .u64("state_bytes", eng->state_bytes())
      .u64("csr_bytes", csr->storage_bytes())
      .num("mass_gap", gap)
      .num("err", err)
      .emit();
}

/// Bloom score store over a power-law score vector with a blacklisted zero
/// tail (bench_million's memory-plan shape), timed from outside.
void bloom_probe(std::uint64_t seed, Spans& spans) {
  Rng srng(sub_seed(seed, 0, 7));
  std::vector<double> scores(kShardedN);
  for (std::size_t i = 0; i < kShardedN; ++i) {
    const double u = srng.next_double();
    scores[i] = (i % 100 == 0) ? 0.0 : std::pow(u, 3.0) + 1e-9;
  }
  bloom::ScoreStoreConfig scfg;
  scfg.num_buckets = 8;
  scfg.bits_per_peer = 8.0;
  std::vector<double> build_s;
  std::size_t bytes = 0;
  for (int r = 0; r < 5; ++r) {
    Spans::Scope sp(spans, "bloom.build");
    const std::uint64_t t0 = now_ns();
    const bloom::BloomScoreStore store(scores, scfg);
    build_s.push_back(seconds_between(t0, now_ns()));
    bytes = store.storage_bytes();
  }
  Line("bloom").num("build_s", median(build_s)).u64("store_bytes", bytes).emit();
}

int cmd_sharded(const Args& a) {
  Spans spans;
  problem_loop(a, kShardedCountProblems, spans, [&](std::uint64_t i, int pass, bool counted) {
    sharded_problem(a, i, kThreads, pass, counted, spans, "problem");
  });
  if (a.trace) {
    // Scaling reference: the first problems again on kScalingThreads.
    for (std::uint64_t i = 0; i < kScalingProblems; ++i)
      sharded_problem(a, i, kScalingThreads, 1, true, spans, "scaling");
    bloom_probe(a.seed, spans);
  }
  return spans.write(a.spans) ? 0 : 1;
}

// --- serve-probe: serve-layer calls timed in-process at the serve n ----------------

/// One synthetic INGEST as the load generator sends it (Zipf ratee, uniform
/// rater distinct from it, uniform value).
serve::FeedbackUpdate draw_ingest(Rng& rng, const ZipfSampler& zipf) {
  serve::FeedbackUpdate f;
  f.ratee = zipf.sample(rng);
  f.rater = rng.next_below(kServeN);
  if (f.rater == f.ratee) f.rater = (f.rater + 1) % kServeN;
  f.value = rng.next_double();
  return f;
}

int cmd_serve_probe(const Args& a) {
  const ZipfSampler zipf(kServeN, kZipfExponent);
  // Seed the reputation state exactly as repserved does at start-up.
  Rng rng(a.seed);
  trust::FeedbackLedger ledger(kServeN);
  const auto qualities = trust::draw_service_qualities(kServeN, kServeN / 10, rng);
  trust::FeedbackGenConfig gen;
  gen.n = kServeN;
  trust::generate_honest_feedback(ledger, qualities, gen, rng);
  core::GossipTrustEngine engine(kServeN, core::GossipTrustConfig{});
  std::vector<double> scores = engine.run(ledger.normalized_matrix(), rng).scores;

  // The fold repserved runs after every kRefold ingests.
  Rng irng(sub_seed(a.seed, 0, 3));
  std::vector<double> fold_s;
  for (int f = 0; f < 3; ++f) {
    for (std::size_t k = 0; k < kRefold; ++k) {
      const auto u = draw_ingest(irng, zipf);
      ledger.record(static_cast<trust::NodeId>(u.rater),
                    static_cast<trust::NodeId>(u.ratee), u.value);
    }
    const trust::SparseMatrix s = ledger.normalized_matrix();
    const std::uint64_t t0 = now_ns();
    scores = engine.run(s, rng, nullptr, scores).scores;
    fold_s.push_back(seconds_between(t0, now_ns()));
  }

  serve::ReputationStore store;
  std::vector<double> publish_us;
  for (int r = 0; r < 51; ++r) {
    const std::uint64_t t0 = now_ns();
    store.publish(scores);
    publish_us.push_back(seconds_between(t0, now_ns()) * 1e6);
  }

  Rng krng(sub_seed(a.seed, 0, 4));
  std::vector<std::uint64_t> keys(100000);
  for (auto& k : keys) k = zipf.sample(krng);
  std::vector<double> lookup_ns;
  double checksum = 0.0;
  {
    auto guard = store.reader();
    for (int r = 0; r < 21; ++r) {
      const std::uint64_t t0 = now_ns();
      for (const auto k : keys) checksum += store.lookup(guard, k).score;
      lookup_ns.push_back(static_cast<double>(now_ns() - t0) / static_cast<double>(keys.size()));
    }
  }

  telemetry::MetricsRegistry registry(1);
  serve::ServeMetrics metrics = serve::ServeMetrics::register_on(registry);
  serve::LoopbackClient client(store, metrics);
  std::vector<std::uint64_t> batch(kBatchKeys);
  std::vector<double> frame_us;
  std::size_t key_pos = 0;
  bool frames_ok = true;
  for (int r = 0; r < 21; ++r) {
    const std::uint64_t t0 = now_ns();
    for (int f = 0; f < 1000; ++f) {
      for (auto& k : batch) k = keys[key_pos++ % keys.size()];
      const auto resp = client.batch_lookup(batch);
      frames_ok = frames_ok && resp.size() == kBatchKeys && resp[0].epoch != 0;
    }
    frame_us.push_back(seconds_between(t0, now_ns()) * 1e6 / 1000.0);
  }

  std::vector<serve::FeedbackUpdate> drained;
  std::vector<double> drain_us;
  for (int r = 0; r < 21; ++r) {
    for (std::size_t k = 0; k < kRefold; ++k) store.enqueue_feedback(draw_ingest(irng, zipf));
    const std::uint64_t t0 = now_ns();
    store.drain_feedback(drained);
    drain_us.push_back(seconds_between(t0, now_ns()) * 1e6);
    frames_ok = frames_ok && drained.size() == kRefold;
  }

  Line("serve_probe")
      .flag("ok", frames_ok && std::isfinite(checksum))
      .num("fold_s", median(fold_s))
      .num("publish_us", median(publish_us))
      .num("lookup_ns", median(lookup_ns))
      .num("frame_us", median(frame_us))
      .num("drain_us", median(drain_us))
      .emit();
  return 0;
}

// --- serve-client: open-loop load against a running repserved --------------------

/// Record ops written to --records, one 6 x int64 row per request:
/// {op, conn, due_ns, sent_ns, recv_ns, value}. value is the INGEST ack's
/// running total, the HEALTH reply's visible count (ingest_enqueued -
/// staleness_frames), or -1 when the reply failed a check.
/// kRecIngestTail marks the unmeasured ingests sent after the load window.
enum RecOp : std::int64_t {
  kRecBatch = 1, kRecIngest, kRecHealth, kRecMetrics, kRecStats, kRecIngestTail
};

struct Rec {
  std::int64_t op, conn, due, sent, recv, value;
};

struct Pending {
  std::uint32_t rec;
  std::array<std::uint64_t, kBatchKeys> keys;
};

struct Conn {
  int fd = -1;
  std::vector<std::uint8_t> tx;
  std::size_t tx_off = 0;
  serve::FrameParser parser;
  std::deque<Pending> pending;
  std::vector<std::uint64_t> key_epoch = std::vector<std::uint64_t>(kServeN, 0);
};

int connect_to(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

class LoadClient {
 public:
  explicit LoadClient(const Args& a) : a_(a), zipf_(kServeN, kZipfExponent),
        krng_(sub_seed(a.seed, 0, 5)), irng_(sub_seed(a.seed, 0, 6)) {}

  int run() {
    for (auto& c : conns_) {
      c.fd = connect_to(static_cast<std::uint16_t>(a_.port));
      if (c.fd < 0) return fatal("cannot connect to 127.0.0.1:" + std::to_string(a_.port));
    }
    const std::uint64_t n_batch = a_.seconds * kBatchPerSecond;
    const std::uint64_t n_ingest = a_.seconds * kIngestPerSecond;
    recs_.reserve(n_batch + n_ingest + a_.seconds * 1000 + 4096);
    start_ = now_ns() + 50'000'000;  // connections settle before the first due time
    const std::uint64_t batch_period = 1'000'000'000 / kBatchPerSecond;
    const std::uint64_t ingest_period = 1'000'000'000 / kIngestPerSecond;
    std::uint64_t jb = 0, ji = 0;
    std::uint64_t next_health = start_, next_stats_poll = start_;
    const std::uint64_t load_end = start_ + a_.seconds * 1'000'000'000ull;

    // Load phase: open loop for lookups and ingests, HEALTH one at a time.
    while (jb < n_batch || ji < n_ingest) {
      const std::uint64_t now = now_ns();
      while (jb < n_batch && start_ + jb * batch_period <= now) {
        send_batch(jb % 2, start_ + jb * batch_period);
        ++jb;
      }
      while (ji < n_ingest && start_ + ji * ingest_period <= now) {
        send_ingest(ji % 2, start_ + ji * ingest_period, kRecIngest);
        ++ji;
      }
      if (now >= next_health && conns_[2].pending.empty()) {
        send_simple(kRecHealth, now);
        next_health = now + kHealthPeriodNs;
      }
      if (now >= next_stats_poll && conns_[2].pending.empty()) {
        send_simple(kRecStats, now);
        send_simple(kRecMetrics, now);
        next_stats_poll = now + kStatsPollPeriodNs;
      }
      std::uint64_t next = std::min(jb < n_batch ? start_ + jb * batch_period : load_end,
                                    ji < n_ingest ? start_ + ji * ingest_period : load_end);
      if (conns_[2].pending.empty()) next = std::min(next, next_health);
      if (!pump(next > now ? next - now : 0)) return finish();
    }

    // Drain phase: lookups stop; ingests continue at the same rate as
    // unmeasured tail traffic, because repserved folds only once kRefold
    // new ingests are pending. HEALTH is polled until the last measured
    // ingest is visible (or the deadline passes).
    const std::uint64_t deadline = now_ns() + 30'000'000'000ull;
    for (;;) {
      const std::uint64_t now = now_ns();
      if (now >= deadline) {
        failures_ += "ingests not visible before the deadline; ";
        break;
      }
      if (measured_outstanding_ == 0 && last_visible_ >= max_ack_ && conns_[2].pending.empty())
        break;
      while (start_ + ji * ingest_period <= now) {
        send_ingest(ji % 2, start_ + ji * ingest_period, kRecIngestTail);
        ++ji;
      }
      if (now >= next_health && conns_[2].pending.empty()) {
        send_simple(kRecHealth, now);
        next_health = now + kHealthPeriodNs;
      }
      const std::uint64_t next = std::min(next_health, start_ + ji * ingest_period);
      if (!pump(next > now ? next - now : 0)) return finish();
    }
    send_simple(kRecStats, now_ns());
    send_simple(kRecMetrics, now_ns());
    while (!conns_[0].pending.empty() || !conns_[1].pending.empty() || !conns_[2].pending.empty())
      if (!pump(1'000'000)) return finish();
    return finish();
  }

 private:
  int fatal(const std::string& why) {
    failures_ += why + "; ";
    return finish();
  }

  std::uint32_t add_rec(std::int64_t op, std::int64_t conn, std::uint64_t due) {
    recs_.push_back({op, conn, static_cast<std::int64_t>(due),
                     static_cast<std::int64_t>(now_ns()), 0, -1});
    return static_cast<std::uint32_t>(recs_.size() - 1);
  }

  void send_batch(std::size_t c, std::uint64_t due) {
    Pending p{};
    for (auto& k : p.keys) k = zipf_.sample(krng_);
    serve::encode_batch_lookup(conns_[c].tx, p.keys.data(), p.keys.size());
    p.rec = add_rec(kRecBatch, static_cast<std::int64_t>(c), due);
    ++measured_outstanding_;
    conns_[c].pending.push_back(p);
    flush(conns_[c]);
  }

  void send_ingest(std::size_t c, std::uint64_t due, RecOp op) {
    const serve::FeedbackUpdate f = draw_ingest(irng_, zipf_);
    serve::encode_ingest(conns_[c].tx, f.rater, f.ratee, f.value);
    Pending p{};
    p.rec = add_rec(op, static_cast<std::int64_t>(c), due);
    if (op == kRecIngest) ++measured_outstanding_;
    conns_[c].pending.push_back(p);
    flush(conns_[c]);
  }

  void send_simple(RecOp op, std::uint64_t due) {
    Conn& c = conns_[2];
    if (op == kRecHealth) serve::encode_health(c.tx);
    else if (op == kRecStats) serve::encode_stats(c.tx);
    else serve::encode_metrics(c.tx);
    Pending p{};
    p.rec = add_rec(op, 2, due);
    c.pending.push_back(p);
    flush(c);
  }

  bool flush(Conn& c) {
    while (c.tx_off < c.tx.size()) {
      const ssize_t w = ::send(c.fd, c.tx.data() + c.tx_off, c.tx.size() - c.tx_off, MSG_NOSIGNAL);
      if (w < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
        if (errno == EINTR) continue;
        io_error_ = true;
        return false;
      }
      c.tx_off += static_cast<std::size_t>(w);
    }
    c.tx.clear();
    c.tx_off = 0;
    return true;
  }

  /// Waits up to timeout_ns for socket activity, then reads and handles
  /// every complete reply. Returns false on a connection failure.
  bool pump(std::uint64_t timeout_ns) {
    pollfd fds[3];
    for (std::size_t i = 0; i < 3; ++i) {
      fds[i].fd = conns_[i].fd;
      fds[i].events = POLLIN | (conns_[i].tx_off < conns_[i].tx.size() ? POLLOUT : 0);
      fds[i].revents = 0;
    }
    timespec ts{static_cast<time_t>(timeout_ns / 1'000'000'000ull),
                static_cast<long>(timeout_ns % 1'000'000'000ull)};
    const int rc = ::ppoll(fds, 3, &ts, nullptr);
    if (rc < 0) return errno == EINTR;
    for (std::size_t i = 0; i < 3; ++i) {
      Conn& c = conns_[i];
      if (fds[i].revents & POLLOUT) {
        if (!flush(c)) return fail_io("send failed");
      }
      if (fds[i].revents & (POLLIN | POLLERR | POLLHUP)) {
        for (;;) {
          const ssize_t r = ::recv(c.fd, rxbuf_.data(), rxbuf_.size(), 0);
          if (r == 0) return fail_io("daemon closed a connection");
          if (r < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK) break;
            if (errno == EINTR) continue;
            return fail_io("recv failed");
          }
          const std::uint64_t t = now_ns();
          if (!c.parser.feed(rxbuf_.data(), static_cast<std::size_t>(r)))
            return fail_io("malformed reply header");
          serve::FrameParser::Frame fr;
          while (c.parser.next(&fr)) {
            if (c.pending.empty()) return fail_io("unsolicited reply");
            const Pending p = c.pending.front();
            c.pending.pop_front();
            handle(c, p, fr, t);
          }
          if (c.parser.error()) return fail_io("malformed reply header");
        }
      }
    }
    return !io_error_;
  }

  bool fail_io(const char* why) {
    io_error_ = true;
    failures_ += std::string(why) + "; ";
    return false;
  }

  void handle(Conn& c, const Pending& p, const serve::FrameParser::Frame& fr, std::uint64_t t) {
    Rec& r = recs_[p.rec];
    r.recv = static_cast<std::int64_t>(t);
    if (r.op == kRecBatch || r.op == kRecIngest) --measured_outstanding_;
    const std::uint8_t op = fr.header.opcode;
    const std::size_t len = fr.header.payload_len;
    bool ok = false;
    switch (r.op) {
      case kRecBatch: {
        std::uint32_t count = 0;
        const std::uint8_t* e = op == static_cast<std::uint8_t>(serve::Op::kBatchLookupResp)
                                    ? serve::decode_batch_resp(fr.payload, len, &count)
                                    : nullptr;
        ok = e != nullptr && count == kBatchKeys;
        for (std::size_t k = 0; ok && k < kBatchKeys; ++k) {
          const std::uint64_t epoch = serve::get_u64(e + 16 * k);
          const double score = serve::get_f64(e + 16 * k + 8);
          std::uint64_t& seen = c.key_epoch[p.keys[k]];
          if (epoch == 0) ++misses_;
          if (epoch < seen) ++epoch_regressions_;
          ok = epoch != 0 && epoch >= seen && std::isfinite(score) && score >= 0.0;
          seen = std::max(seen, epoch);
        }
        if (ok) r.value = 0;
        else ++bad_[kRecBatch];
        break;
      }
      case kRecIngest:
      case kRecIngestTail: {
        std::uint64_t total = 0;
        ok = op == static_cast<std::uint8_t>(serve::Op::kIngestResp) &&
             serve::decode_ingest_resp(fr.payload, len, &total);
        if (ok) {
          r.value = static_cast<std::int64_t>(total);
          if (r.op == kRecIngest) max_ack_ = std::max(max_ack_, r.value);
        } else {
          ++bad_[kRecIngest];
        }
        break;
      }
      case kRecHealth: {
        serve::HealthPayload h;
        ok = op == static_cast<std::uint8_t>(serve::Op::kHealthResp) &&
             serve::decode_health_resp(fr.payload, len, &h) &&
             h.staleness_frames <= h.ingest_enqueued;
        if (!ok) {
          ++bad_[kRecHealth];
          break;
        }
        if (h.published_epoch < last_epoch_) {
          ++health_epoch_regressions_;
          break;  // value stays -1: the reply counts as failed
        }
        r.value = static_cast<std::int64_t>(h.ingest_enqueued - h.staleness_frames);
        last_visible_ = std::max(last_visible_, r.value);
        last_epoch_ = h.published_epoch;
        mass_gap_max_ = std::max(mass_gap_max_, h.mass_gap);
        if (first_refolds_ < 0) first_refolds_ = static_cast<std::int64_t>(h.refolds);
        if (static_cast<std::int64_t>(h.refolds) != last_refolds_) {
          if (last_refolds_ >= 0) fold_s_.push_back(h.last_fold_seconds);
          last_refolds_ = static_cast<std::int64_t>(h.refolds);
        }
        break;
      }
      case kRecStats: {
        ok = op == static_cast<std::uint8_t>(serve::Op::kStatsResp) &&
             serve::decode_stats_resp(fr.payload, len, &stats_);
        if (ok) {
          r.value = 0;
          ++stats_replies_;
          limbo_max_ = std::max(limbo_max_, stats_.limbo_size);
        } else {
          ++bad_[kRecStats];
        }
        break;
      }
      case kRecMetrics: {
        ok = op == static_cast<std::uint8_t>(serve::Op::kMetricsResp) &&
             serve::decode_metrics_resp(fr.payload, len, &metrics_) &&
             metrics_.hists.size() >= serve::kMetricsHistogramCount;
        if (ok) {
          r.value = 0;
          ++metrics_replies_;
        } else {
          ++bad_[kRecMetrics];
        }
        break;
      }
      default:
        break;
    }
  }

  int finish() {
    for (auto& c : conns_)
      if (c.fd >= 0) ::close(c.fd);
    static constexpr std::array<const char*, kRecIngestTail> kOpName{
        "", "BATCH_LOOKUP", "INGEST", "HEALTH", "METRICS", "STATS"};
    for (std::size_t op = kRecBatch; op < kRecIngestTail; ++op)
      if (bad_[op] != 0)
        failures_ += std::to_string(bad_[op]) + " bad " + kOpName[op] + " replies; ";
    if (health_epoch_regressions_ != 0)
      failures_ += "HEALTH published_epoch went backwards " +
                   std::to_string(health_epoch_regressions_) + " times; ";
    if (epoch_regressions_ != 0)
      failures_ += "a key's epoch went backwards " + std::to_string(epoch_regressions_) +
                   " times; ";
    if (stats_.protocol_errors != 0) failures_ += "daemon counted protocol errors; ";
    if (!(mass_gap_max_ <= kMassGapTol)) failures_ += "HEALTH mass_gap above 1e-9; ";
    if (first_refolds_ < 0) failures_ += "no HEALTH reply; ";
    if (stats_replies_ == 0) failures_ += "no STATS reply; ";
    if (metrics_replies_ == 0) failures_ += "no METRICS reply; ";
    std::FILE* f = std::fopen(a_.records.c_str(), "wb");
    bool wrote = f != nullptr &&
                 std::fwrite(recs_.data(), sizeof(Rec), recs_.size(), f) == recs_.size();
    if (f != nullptr && std::fclose(f) != 0) wrote = false;
    if (!wrote) failures_ += "cannot write records; ";
    const double batch_p99_s = metrics_.hists.size() > 1 ? metrics_.hists[1].percentile(99.0) : NAN;
    Line("client")
        .str("why", failures_)
        .u64("misses", misses_)
        .u64("bp_pauses", stats_.bp_pauses)
        .u64("limbo_max", limbo_max_)
        .num("mass_gap_max", mass_gap_max_)
        .num("server_batch_p99_us", batch_p99_s * 1e6)
        .u64("refolds", last_refolds_ > first_refolds_
                            ? static_cast<std::uint64_t>(last_refolds_ - first_refolds_) : 0)
        .num("fold_s", median(fold_s_))
        .u64("published_epoch", last_epoch_)
        .emit();
    return failures_.empty() ? 0 : 1;
  }

  const Args& a_;
  const ZipfSampler zipf_;
  Rng krng_, irng_;
  std::array<Conn, 3> conns_;  // 0, 1: lookups + ingests; 2: HEALTH/STATS/METRICS
  std::vector<Rec> recs_;
  std::array<std::uint8_t, 64 * 1024> rxbuf_{};
  std::uint64_t start_ = 0;
  std::string failures_;
  bool io_error_ = false;
  std::array<std::uint64_t, kRecIngestTail> bad_{};  // replies failing a check, by RecOp
  std::uint64_t misses_ = 0, epoch_regressions_ = 0, health_epoch_regressions_ = 0;
  std::uint64_t stats_replies_ = 0, metrics_replies_ = 0;
  std::uint64_t measured_outstanding_ = 0;  // lookups + measured ingests in flight
  std::int64_t max_ack_ = -1, last_visible_ = -1;  // max_ack_: measured ingests only
  std::uint64_t last_epoch_ = 0;
  double mass_gap_max_ = 0.0;
  std::int64_t first_refolds_ = -1, last_refolds_ = -1;
  std::vector<double> fold_s_;
  std::uint64_t limbo_max_ = 0;
  serve::StatsPayload stats_;
  serve::MetricsPayload metrics_;
};

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  // A fixed mmap threshold: glibc's adaptive one moves freed large buffers
  // (engine state, graphs) onto the heap at timing-dependent moments, and
  // the RSS of two runs of one seed then differs by up to 15%. Fixed, large
  // buffers go back to the kernel when freed and peak RSS follows the live
  // data.
  ::mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  if (a.cmd == "info") return cmd_info();
  if (a.cmd == "paper") return cmd_paper(a);
  if (a.cmd == "sharded") return cmd_sharded(a);
  if (a.cmd == "serve-probe") return cmd_serve_probe(a);
  if (a.cmd == "serve-client") {
    ::prctl(PR_SET_TIMERSLACK, 1000UL);  // 1 us wake-up slack for due times
    return LoadClient(a).run();
  }
  die("unknown subcommand: " + a.cmd);
}
