// Shared helpers for the paper-reproduction benchmark binaries.
//
// Every bench runs standalone and prints the paper-style table/series.
// bench::init() reads these knobs at the top of main (README's table has
// each one's range and default); a bad value, or any argument but
// --telemetry/--trace, exits 2 naming it:
//   GT_QUICK=1        -> shrink sweeps (CI smoke run)
//   GT_SEEDS=k        -> runs averaged per data point (10, or 3 quick)
//   GT_SEED=s         -> base seed (42)
//   GT_THREADS=t      -> gossip kernel lanes (1; 0 = hardware)
//   GT_TELEMETRY=path -> JSONL event log (or --telemetry; scripts/report.py)
//   GT_TRACE=path     -> binary causal trace (or --trace; tools/trace_analyze)
//   GT_CSV_DIR=dir    -> also write <dir>/<table>.csv
//   GT_SIMD=level     -> VectorGossip kernel ISA (bit-identical at every level)
//   GT_LOG_LEVEL=lvl  -> diagnostic logging (off)
#pragma once

#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/knob.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/engine.hpp"
#include "simd/simd.hpp"
#include "telemetry/event_log.hpp"
#include "trace/trace.hpp"
#include "threat/models.hpp"
#include "trust/feedback.hpp"
#include "trust/generator.hpp"

namespace gt::bench {

/// Paper section 6.1 workload: power-law feedback with d_max=200, d_avg=20
/// (clamped for small n), honest counterfactual + attacked ledger pair.
struct ThreatWorkload {
  std::vector<threat::PeerProfile> peers;
  trust::SparseMatrix honest;    ///< normalized matrix, truthful ratings
  trust::SparseMatrix attacked;  ///< normalized matrix, threat ratings
  trust::FeedbackLedger attacked_ledger;

  static ThreatWorkload make(std::size_t n, double malicious_fraction,
                             bool collusive, std::size_t group_size,
                             std::uint64_t seed) {
    Rng rng(seed);
    threat::ThreatConfig tcfg;
    tcfg.n = n;
    tcfg.malicious_fraction = malicious_fraction;
    tcfg.collusive = collusive;
    tcfg.collusion_group_size = group_size;
    auto peers = threat::make_population(tcfg, rng);

    trust::FeedbackGenConfig gen;
    gen.n = n;
    gen.d_max = std::min<std::size_t>(200, n / 2);
    gen.d_avg = std::min(20.0, static_cast<double>(n) / 4.0);

    trust::FeedbackLedger honest_ledger(n);
    trust::FeedbackLedger attacked_ledger(n);
    threat::generate_honest_counterfactual(honest_ledger, peers, tcfg, gen,
                                           Rng(seed + 1));
    threat::generate_threat_feedback(attacked_ledger, peers, tcfg, gen,
                                     Rng(seed + 1));
    return ThreatWorkload{std::move(peers), honest_ledger.normalized_matrix(),
                          attacked_ledger.normalized_matrix(),
                          std::move(attacked_ledger)};
  }

  /// Honest-only workload (no attack; honest == attacked).
  static ThreatWorkload make_clean(std::size_t n, std::uint64_t seed) {
    return make(n, 0.0, false, 5, seed);
  }
};

/// The bench knobs (see the header comment), filled in by init().
struct Knobs {
  bool quick = false;
  std::size_t seeds = 0;    ///< 0 = unset: 10 (the paper's >= 10), 3 quick
  std::uint64_t seed = 42;
  std::size_t threads = 1;  ///< 1 keeps published numbers single-thread comparable
  std::string telemetry, trace, csv_dir;
};

inline Knobs& knobs() {
  static Knobs k;
  return k;
}
inline bool quick_mode() { return knobs().quick; }

namespace detail {
inline std::unique_ptr<telemetry::EventLog>& event_log_storage() {
  static std::unique_ptr<telemetry::EventLog> log;
  return log;
}
// Declared after the event-log storage so static destruction runs the
// trace sink first: its finish() may still mirror nothing, but keeping the
// log alive across the sink's teardown makes the ordering obviously safe.
inline std::unique_ptr<trace::TraceSink>& trace_sink_storage() {
  static std::unique_ptr<trace::TraceSink> sink;
  return sink;
}
}  // namespace detail

/// The bench-wide JSONL event log; null until init() enables it.
inline telemetry::EventLog* event_log() { return detail::event_log_storage().get(); }

/// The bench-wide binary trace sink; null until init() enables it.
inline trace::TraceSink* trace_sink() { return detail::trace_sink_storage().get(); }

/// Call once at the top of main with the bench's name. Parses every bench
/// knob, exiting 2 on a bad one before any work, then enables the JSONL
/// event log and the binary causal trace when their paths are set; returns
/// the log (null = disabled). Both sinks flush and close at process exit;
/// when both are enabled, trace records are also mirrored into the JSONL
/// log as `trace`/`probe` records.
inline telemetry::EventLog* init(const char* bench_name, int argc, char** argv) {
  Knobs& k = knobs();
  knob::Cli(std::string("bench_") + bench_name,
      {{"GT_QUICK", "", knob::into(k.quick)},
       {"GT_SEEDS", "", knob::into(k.seeds, 1)},
       {"GT_SEED", "", knob::into(k.seed)},
       {"GT_THREADS", "", knob::into(k.threads, 0, knob::kMaxThreads)},
       {"GT_TELEMETRY", "", knob::into(k.telemetry)},
       {"GT_TRACE", "", knob::into(k.trace)},
       {"GT_CSV_DIR", "", knob::into(k.csv_dir)},
       {"GT_SIMD", "", [](std::string_view, std::string_view text) {
         (void)simd::parse_level(text);
       }},
       {"--telemetry", "PATH", knob::into(k.telemetry)},
       {"--trace", "PATH", knob::into(k.trace)}})
      .parse_or_exit(argc, argv);
  if (k.seeds == 0) k.seeds = k.quick ? 3 : 10;

  auto& log = detail::event_log_storage();
  if (!k.telemetry.empty()) {
    telemetry::EventLogConfig cfg;
    cfg.path = k.telemetry;
    log = std::make_unique<telemetry::EventLog>(cfg);
    if (!log->enabled()) {
      log.reset();
    } else {
      log->set_context("bench", std::string(bench_name));
      log->set_context("threads", static_cast<std::uint64_t>(k.threads));
      log->set_context("seed", k.seed);
      log->set_context(
          "simd",
          std::string(simd::level_name(simd::resolve_level(simd::SimdLevel::kAuto))));
      std::printf("[telemetry -> %s]\n", k.telemetry.c_str());
    }
  }
  if (!k.trace.empty()) {
    trace::TraceConfig tcfg;
    tcfg.path = k.trace;
    auto& sink = detail::trace_sink_storage();
    sink = std::make_unique<trace::TraceSink>(tcfg);
    if (log) sink->set_event_log(log.get());
    std::printf("[trace -> %s]\n", k.trace.c_str());
  }
  return log.get();
}

/// Wires the bench event log and trace sink into an engine (no-op when
/// disabled). Sampled gossip-step records default to every 16th step to
/// bound log volume.
inline void attach_engine(core::GossipTrustEngine& engine,
                          std::size_t step_sample_every = 16) {
  if (auto* log = event_log()) engine.set_event_log(log, step_sample_every);
  if (auto* sink = trace_sink()) engine.set_trace(sink);
}

/// Seeds for one data point.
inline std::vector<std::uint64_t> point_seeds() {
  std::vector<std::uint64_t> seeds;
  const auto base = knobs().seed;
  for (std::size_t k = 0; k < knobs().seeds; ++k)
    seeds.push_back(base + 1000 * (k + 1));
  return seeds;
}

/// Prints the table and, when GT_CSV_DIR is set, also writes
/// <dir>/<name>.csv for plotting scripts.
inline void emit(const Table& table, const char* name) {
  table.print(std::cout);
  const std::string& dir = knobs().csv_dir;
  if (!dir.empty()) {
    const std::string path = dir + "/" + name + ".csv";
    std::ofstream csv(path);
    if (csv) {
      table.write_csv(csv);
      std::printf("[csv written to %s]\n", path.c_str());
    } else {
      std::printf("[failed to open %s]\n", path.c_str());
    }
  }
}

inline void print_preamble(const char* experiment, const char* paper_artifact) {
  std::printf("== %s ==\n", experiment);
  std::printf("reproduces: %s\n", paper_artifact);
  std::printf("runs per data point: %zu%s (GT_SEEDS overrides; GT_QUICK=1 "
              "shrinks the sweep)\n\n",
              knobs().seeds, quick_mode() ? " [quick mode]" : "");
}

}  // namespace gt::bench
