// Collusion attack scenario (paper section 6.3, Fig. 4b): a tenth of the
// network forms collusion rings that rate each other maximally and slander
// everyone else — the classic eigenvector spider trap. Shows how power
// nodes (greedy factor alpha = 0.15) contain the attack, and how the
// QoS/QoF extension (paper section 7) exposes the liars.
//
//   $ ./collusion_attack [n] [group_size]
#include <cstdio>
#include <iostream>

#include "baseline/power_iteration.hpp"
#include "common/knob.hpp"
#include "common/table.hpp"
#include "core/engine.hpp"
#include "core/qos_qof.hpp"
#include "threat/models.hpp"
#include "trust/feedback.hpp"

using namespace gt;

int main(int argc, char** argv) {
  std::size_t n = 400;
  std::size_t group_size = 5;
  knob::Cli("collusion_attack",
            {{"N", "", knob::into(n, 10)},
             {"GROUP_SIZE", "", knob::into(group_size, 1)}})
      .parse_or_exit(argc, argv);

  Rng rng(11);
  threat::ThreatConfig tcfg;
  tcfg.n = n;
  tcfg.malicious_fraction = 0.10;
  tcfg.collusive = true;
  tcfg.collusion_group_size = group_size;
  const auto peers = threat::make_population(tcfg, rng);

  trust::FeedbackGenConfig gen;
  gen.n = n;
  gen.d_max = std::min<std::size_t>(200, n / 2);
  gen.d_avg = 20.0;
  trust::FeedbackLedger attacked(n), honest(n);
  threat::generate_threat_feedback(attacked, peers, tcfg, gen, Rng(12));
  threat::generate_honest_counterfactual(honest, peers, tcfg, gen, Rng(12));
  const auto s_attacked = attacked.normalized_matrix();
  std::printf("%zu peers, 10%% collusive in rings of %zu\n\n", n, group_size);

  Table table("Collusion containment");
  table.set_header({"aggregation", "honest RMS err", "malicious gain",
                    "honest in top-10"});
  auto evaluate = [&](const char* name, double alpha) {
    core::GossipTrustConfig cfg;
    cfg.alpha = alpha;
    cfg.power_node_fraction = 0.02;
    cfg.max_cycles = 30;
    core::GossipTrustEngine engine(n, cfg);
    Rng grng(13);
    const auto run = engine.run(s_attacked, grng);
    const auto ref = baseline::fixed_power_iteration(honest.normalized_matrix(),
                                                     alpha, run.power_nodes)
                         .scores;
    std::size_t honest_top = 0;
    for (const auto id : top_k_indices(run.scores, 10))
      honest_top += (peers[id].type == threat::PeerType::kHonest);
    table.add_row({name,
                   cell(threat::honest_rms_error(peers, ref, run.scores), 4),
                   cell(threat::malicious_reputation_gain(peers, ref, run.scores), 2),
                   cell(honest_top)});
  };
  evaluate("no power nodes (a=0)", 0.0);
  evaluate("power nodes (a=0.15)", 0.15);
  table.print(std::cout);

  // QoS/QoF extension: feedback quality unmasks the colluders directly.
  const auto robust = core::qof_weighted_aggregation(attacked, 0.15, 0.02);
  double honest_qof = 0.0, colluder_qof = 0.0;
  std::size_t honest_count = 0, colluder_count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (peers[i].type == threat::PeerType::kHonest) {
      honest_qof += robust.qof[i];
      ++honest_count;
    } else {
      colluder_qof += robust.qof[i];
      ++colluder_count;
    }
  }
  std::printf("\nQoS/QoF extension (feedback-quality score, section 7):\n");
  std::printf("  mean QoF of honest peers:  %.3f\n",
              honest_qof / static_cast<double>(honest_count));
  std::printf("  mean QoF of colluders:     %.3f\n",
              colluder_qof / static_cast<double>(colluder_count));
  std::printf("  -> colluders' ratings disagree with network consensus and "
              "lose aggregation weight\n");
  return 0;
}
