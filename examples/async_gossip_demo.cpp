// Event-driven gossip demo: runs one reputation aggregation over the
// simulated network stack (latency, jitter, message loss, a node crash
// mid-protocol) instead of synchronous rounds — showing that push-sum's
// guarantees survive real asynchrony.
//
//   $ ./async_gossip_demo [n] [loss_pct]
#include <cstdio>

#include "common/knob.hpp"
#include "common/stats.hpp"
#include "gossip/async_gossip.hpp"
#include "trust/feedback.hpp"
#include "trust/generator.hpp"

using namespace gt;

int main(int argc, char** argv) {
  std::size_t n = 100;
  double loss_pct = 5.0;
  knob::Cli("async_gossip_demo",
            {{"N", "", knob::into(n, 10)},
             {"LOSS_PCT", "", knob::into(loss_pct, 0.0, 100.0)}})
      .parse_or_exit(argc, argv);
  const double loss = loss_pct / 100.0;

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
  const auto exact = s.transpose_multiply(v);

  // Event-driven substrate: 200ms +- 100ms latency (in sim units where a
  // gossip period is 1.0), configurable loss, node 3 crashes at t=5.
  sim::Scheduler scheduler;
  net::NetworkConfig ncfg;
  ncfg.base_latency = 0.2;
  ncfg.jitter = 0.2;
  ncfg.loss_probability = loss;
  net::Network network(scheduler, n, ncfg, Rng(32));

  gossip::PushSumConfig cfg;
  cfg.epsilon = 1e-6;
  cfg.stable_rounds = 3;
  gossip::AsyncGossip gossip(scheduler, network, cfg, gossip::AsyncGossip::Timing{});
  gossip.initialize(s, v);

  scheduler.schedule_at(5.0, [&] {
    std::printf("  [t=5.0] node 3 crashes\n");
    network.set_node_up(3, false);
  });

  std::printf("async gossip: n=%zu, latency 0.2+-0.2, loss %.0f%%, one node "
              "crash mid-run\n",
              n, loss * 100);
  Rng grng(33);
  const auto res = gossip.run(grng);

  std::printf("\nconverged: %s at sim time %.1f (%zu push events)\n",
              res.converged ? "yes" : "no", res.sim_time, res.send_events);
  std::printf("network: %llu sent, %llu delivered, %llu dropped (ratio %.3f)\n",
              static_cast<unsigned long long>(network.stats().messages_sent),
              static_cast<unsigned long long>(network.stats().messages_delivered),
              static_cast<unsigned long long>(network.stats().messages_dropped),
              network.stats().delivery_ratio());

  // Compare a live node's view against the exact product.
  const auto view = gossip.node_view(0);
  std::printf("node 0's view vs exact S^T V: rms rel. err %.3e, tau %.4f\n",
              rms_relative_error(exact, view), kendall_tau(exact, view));
  std::printf("(asynchrony, jitter, loss and the crash cost extra sim time, "
              "not correctness: lost messages destroy x and w together, so "
              "ratios stay calibrated)\n");
  return 0;
}
