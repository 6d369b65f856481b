// Chaos demo: the fault-injection acceptance scenario end to end.
//
// Runs the self-healing asynchronous push-sum while a deterministic
// FaultPlan crashes 10% of the nodes mid-aggregation, bisects the network
// for 50 sim-time units, and heals it — with every fault, network drop and
// outage logged to a telemetry JSONL file (CI uploads it as an artifact).
//
//   $ ./chaos_demo [n] [events.jsonl] [trace.bin]
//
// The optional third argument records a binary causal trace of the run
// (message spans, retransmission chains, fault markers, mass probes);
// inspect it with tools/trace_analyze or export it to Perfetto.
#include <cmath>
#include <cstdio>

#include "common/knob.hpp"
#include "common/stats.hpp"
#include "fault/fault_injector.hpp"
#include "gossip/async_gossip.hpp"
#include "telemetry/event_log.hpp"
#include "trace/trace.hpp"
#include "trust/feedback.hpp"
#include "trust/generator.hpp"

using namespace gt;

int main(int argc, char** argv) {
  std::size_t n = 50;
  std::string log_path = "chaos_events.jsonl";
  std::string trace_path;
  knob::Cli("chaos_demo",
            {{"N", "", knob::into(n, 10)},
             {"EVENTS.jsonl", "", knob::into(log_path)},
             {"TRACE.bin", "", knob::into(trace_path)}})
      .parse_or_exit(argc, argv);

  // Trust workload.
  Rng rng(31);
  trust::FeedbackLedger ledger(n);
  trust::FeedbackGenConfig gen;
  gen.n = n;
  gen.d_max = std::min<std::size_t>(200, n / 2);
  gen.d_avg = std::min(20.0, static_cast<double>(n) / 4.0);
  const auto quality = trust::draw_service_qualities(n, n / 10, rng);
  trust::generate_honest_feedback(ledger, quality, gen, rng);
  const auto s = ledger.normalized_matrix();
  const std::vector<double> v(n, 1.0 / static_cast<double>(n));

  sim::Scheduler scheduler;
  net::NetworkConfig ncfg;
  ncfg.base_latency = 0.2;
  ncfg.jitter = 0.1;
  net::Network network(scheduler, n, ncfg, Rng(32));

  telemetry::EventLogConfig lcfg;
  lcfg.path = log_path;
  telemetry::EventLog events(lcfg);
  network.attach_telemetry(nullptr, &events);

  trace::TraceConfig tcfg;
  tcfg.path = trace_path;
  trace::TraceSink trace_sink(tcfg);
  if (trace_sink.enabled()) {
    trace_sink.set_event_log(&events);
    network.attach_trace(&trace_sink);
  }

  // The acceptance scenario: crash 10% at t=5, partition [10, 60), heal.
  fault::FaultPlan plan;
  plan.crash_fraction(5.0, n, n / 10, 0xc0ffee);
  plan.bisect(10.0, 60.0, n, n / 2);

  gossip::PushSumConfig cfg;
  cfg.epsilon = 1e-6;
  cfg.stable_rounds = 3;
  gossip::AsyncGossip::Timing timing;
  timing.timeout = 600.0;
  timing.min_time = plan.end_time() + 15.0;
  gossip::AsyncGossip::Reliability rel;
  rel.acks = true;
  rel.ack_timeout = 2.0;
  rel.max_retries = 3;
  rel.suspicion_ttl = 8.0;
  rel.repair_on_crash = true;

  gossip::AsyncGossip gossip(scheduler, network, cfg, timing, rel);
  if (trace_sink.enabled()) gossip.set_trace(&trace_sink);
  fault::FaultInjector injector(scheduler, network, plan);
  injector.set_event_log(&events);
  if (trace_sink.enabled()) injector.set_trace(&trace_sink);
  injector.on_crash([&](fault::NodeId node) { gossip.notify_crash(node); });
  injector.on_recover([&](fault::NodeId node) { gossip.notify_recover(node); });
  injector.arm();
  gossip.initialize(s, v);

  std::printf("chaos: n=%zu, crash %zu nodes at t=5, partition [10, 60), "
              "repair on, events -> %s\n",
              n, n / 10, log_path.c_str());
  Rng grng(33);
  gossip.run(grng);
  scheduler.run_until();  // drain retries, acks, suspicion expiries
  const auto& res = gossip.stats();
  if (trace_sink.enabled()) {
    trace_sink.finish();
    std::printf("trace -> %s (%llu records emitted)\n", trace_path.c_str(),
                static_cast<unsigned long long>(trace_sink.records_emitted()));
  }
  events.flush();

  std::printf("\nfaults executed (%zu):\n%s", injector.faults_executed(),
              injector.log_text().c_str());
  std::printf("\nconverged: %s at sim time %.1f\n", res.converged ? "yes" : "no",
              res.sim_time);
  std::printf("data %llu sent / %llu dropped, acks %llu, retransmits %llu, "
              "reclaims %llu, suspicions %llu, repairs %llu\n",
              static_cast<unsigned long long>(res.messages_sent),
              static_cast<unsigned long long>(res.messages_dropped),
              static_cast<unsigned long long>(res.acks_sent),
              static_cast<unsigned long long>(res.retransmits),
              static_cast<unsigned long long>(res.mass_reclaims),
              static_cast<unsigned long long>(res.suspicions),
              static_cast<unsigned long long>(res.repairs));

  // The ledger identity and the live-mass restoration are the whole point:
  // report them and fail loudly if either is off.
  const double gap = gossip.mass_invariant_gap();
  double mismatch = 0.0;
  const auto expected = gossip.expected_live_x_mass();
  for (net::NodeId j = 0; j < n; ++j)
    mismatch = std::max(mismatch,
                        std::abs(gossip.available_x_mass(j) - expected[j]));
  std::printf("mass ledger gap %.3e, live-mass mismatch after repair %.3e\n",
              gap, mismatch);
  if (!res.converged || gap > 1e-9 || mismatch > 1e-9) {
    std::fprintf(stderr, "chaos demo FAILED: invariants not restored\n");
    return 1;
  }
  std::printf("mass accounting closed: resident + in-flight + destroyed - "
              "repaired == initial, and the survivors aggregate exactly the "
              "live membership\n");
  return 0;
}
