// gossiptrust_sim: a configurable command-line driver for the whole
// simulator — the closest thing to the paper's experimental apparatus in
// one binary. Builds a population with the chosen threat model, generates
// the power-law feedback workload, aggregates with GossipTrust, and prints
// the full report (convergence, overhead, error vs exact, attack metrics).
//
//   $ ./gossiptrust_sim [--n N] [--malicious PCT] [--collusive]
//         [--group G] [--alpha A] [--epsilon E] [--delta D] [--loss P] [--seed S]
//
// Defaults (Options below) are the paper's Table 2 values with 20%
// malicious peers; --loss is a gossip message-loss probability.
#include <cstdio>
#include <iostream>

#include "baseline/power_iteration.hpp"
#include "common/knob.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/engine.hpp"
#include "core/qos_qof.hpp"
#include "threat/models.hpp"
#include "trust/feedback.hpp"

using namespace gt;

namespace {

struct Options {
  std::size_t n = 500;
  double malicious_pct = 20.0;
  bool collusive = false;
  std::size_t group = 5;
  double alpha = 0.15;
  double epsilon = 1e-4;
  double delta = 1e-3;
  double loss = 0.0;
  std::uint64_t seed = 42;
};

}  // namespace

int main(int argc, char** argv) {
  using knob::into;
  Options opt;
  knob::Cli("gossiptrust_sim",
      {{"--n", "N", into(opt.n, 2)},
       {"--malicious", "PCT", into(opt.malicious_pct, 0.0, 100.0)},
       {"--collusive", "", into(opt.collusive)},
       {"--group", "G", into(opt.group, 1)},
       {"--alpha", "A", into(opt.alpha, 0.0, 1.0)},
       {"--epsilon", "E", into(opt.epsilon, 0.0)},
       {"--delta", "D", into(opt.delta, 0.0)},
       {"--loss", "P", into(opt.loss, 0.0, 1.0)},
       {"--seed", "S", into(opt.seed)}})
      .parse_or_exit(argc, argv);
  std::printf("GossipTrust simulator: n=%zu malicious=%.0f%%%s alpha=%.2f "
              "eps=%g delta=%g loss=%.2f seed=%llu\n\n",
              opt.n, opt.malicious_pct, opt.collusive ? " (collusive)" : "",
              opt.alpha, opt.epsilon, opt.delta, opt.loss,
              static_cast<unsigned long long>(opt.seed));

  // Population + workload.
  Rng rng(opt.seed);
  threat::ThreatConfig tcfg;
  tcfg.n = opt.n;
  tcfg.malicious_fraction = opt.malicious_pct / 100.0;
  tcfg.collusive = opt.collusive;
  tcfg.collusion_group_size = opt.group;
  const auto peers = threat::make_population(tcfg, rng);
  trust::FeedbackGenConfig gen;
  gen.n = opt.n;
  gen.d_max = std::min<std::size_t>(200, opt.n / 2);
  gen.d_avg = std::min(20.0, static_cast<double>(opt.n) / 4.0);
  trust::FeedbackLedger attacked(opt.n), honest(opt.n);
  threat::generate_threat_feedback(attacked, peers, tcfg, gen, Rng(opt.seed + 1));
  threat::generate_honest_counterfactual(honest, peers, tcfg, gen, Rng(opt.seed + 1));
  const auto s = attacked.normalized_matrix();
  std::printf("workload: %zu rated pairs, %zu matrix nonzeros, %zu dangling "
              "raters\n",
              attacked.num_feedbacks(), s.nonzeros(), s.empty_rows().size());

  // Aggregation.
  core::GossipTrustConfig cfg;
  cfg.alpha = opt.alpha;
  cfg.epsilon = opt.epsilon;
  cfg.delta = opt.delta;
  cfg.loss_probability = opt.loss;
  cfg.max_cycles = 30;
  core::GossipTrustEngine engine(opt.n, cfg);
  Rng grng(opt.seed + 2);
  const auto run = engine.run(s, grng);

  Table conv("Convergence");
  conv.set_header({"cycles", "converged", "gossip steps", "messages", "triplets",
                   "msgs lost"});
  conv.add_row({cell(run.num_cycles()), run.converged ? "yes" : "no",
                cell(run.total_gossip_steps()),
                cell(static_cast<std::size_t>(run.total_messages())),
                cell(static_cast<std::size_t>(run.total_triplets())),
                cell(static_cast<std::size_t>([&] {
                  std::uint64_t lost = 0;
                  for (const auto& c : run.cycles) lost += c.messages_lost;
                  return lost;
                }()))});
  conv.print(std::cout);

  // Accuracy vs exact and attack metrics.
  const auto exact_attacked =
      baseline::fixed_power_iteration(s, opt.alpha, run.power_nodes, 1e-12);
  const auto reference = baseline::fixed_power_iteration(
      honest.normalized_matrix(), opt.alpha, run.power_nodes, 1e-12);

  Table acc("\nAccuracy");
  acc.set_header({"metric", "value"});
  acc.add_row({"gossip RMS vs exact (same matrix)",
               format_exp(rms_relative_error(exact_attacked.scores, run.scores), 2)});
  acc.add_row({"ranking tau vs exact",
               cell(kendall_tau(exact_attacked.scores, run.scores), 4)});
  if (opt.malicious_pct > 0.0) {
    acc.add_row({"honest-peer RMS vs honest reference (Eq. 8)",
                 cell(threat::honest_rms_error(peers, reference.scores, run.scores),
                      4)});
    acc.add_row({"malicious reputation gain",
                 cell(threat::malicious_reputation_gain(peers, reference.scores,
                                                        run.scores),
                      2)});
  }
  acc.print(std::cout);

  // QoF snapshot.
  const auto qof = core::compute_qof(attacked, run.scores);
  double honest_qof = 0.0, bad_qof = 0.0;
  std::size_t honest_count = 0, bad_count = 0;
  for (std::size_t i = 0; i < opt.n; ++i) {
    if (peers[i].type == threat::PeerType::kHonest) {
      honest_qof += qof[i];
      ++honest_count;
    } else {
      bad_qof += qof[i];
      ++bad_count;
    }
  }
  std::printf("\nQoF: honest raters %.3f", honest_qof / std::max<std::size_t>(1, honest_count));
  if (bad_count > 0) std::printf(", malicious raters %.3f", bad_qof / bad_count);
  std::printf("\npower nodes:");
  for (const auto p : run.power_nodes) std::printf(" %zu", p);
  std::printf("\n");
  return 0;
}
