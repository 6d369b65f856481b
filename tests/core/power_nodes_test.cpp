#include "core/power_nodes.hpp"

#include <gtest/gtest.h>

#include "common/stats.hpp"

namespace gt::core {
namespace {

TEST(SelectPowerNodes, PicksTopFraction) {
  const std::vector<double> scores{0.1, 0.4, 0.05, 0.3, 0.15};
  const auto power = select_power_nodes(scores, 0.4);  // 40% of 5 = 2
  ASSERT_EQ(power.size(), 2u);
  EXPECT_EQ(power[0], 1u);
  EXPECT_EQ(power[1], 3u);
}

TEST(SelectPowerNodes, AtLeastOneWhenFractionPositive) {
  const std::vector<double> scores{0.5, 0.5};
  const auto power = select_power_nodes(scores, 0.01);
  EXPECT_EQ(power.size(), 1u);
}

TEST(SelectPowerNodes, PaperDefaultOnePercent) {
  std::vector<double> scores(1000, 1.0 / 1000.0);
  scores[42] = 0.5;
  const auto power = select_power_nodes(scores, 0.01);
  EXPECT_EQ(power.size(), 10u);
  EXPECT_EQ(power[0], 42u);
}

TEST(SelectPowerNodes, ZeroFractionEmpty) {
  const std::vector<double> scores{1.0, 2.0};
  EXPECT_TRUE(select_power_nodes(scores, 0.0).empty());
  EXPECT_TRUE(select_power_nodes({}, 0.5).empty());
}

TEST(ApplyPowerNodeMix, PreservesNormalization) {
  std::vector<double> v{0.25, 0.25, 0.25, 0.25};
  apply_power_node_mix(v, std::vector<NodeId>{0, 2}, 0.2);
  EXPECT_NEAR(sum(v), 1.0, 1e-15);
  EXPECT_NEAR(v[0], 0.8 * 0.25 + 0.1, 1e-15);
  EXPECT_NEAR(v[1], 0.8 * 0.25, 1e-15);
}

TEST(ApplyPowerNodeMix, NoOpWithoutPowerOrAlpha) {
  std::vector<double> v{0.5, 0.5};
  apply_power_node_mix(v, {}, 0.15);
  EXPECT_DOUBLE_EQ(v[0], 0.5);
  apply_power_node_mix(v, std::vector<NodeId>{0}, 0.0);
  EXPECT_DOUBLE_EQ(v[0], 0.5);
}

TEST(ApplyPowerNodeMix, AlphaOneConcentratesOnPower) {
  std::vector<double> v{0.7, 0.2, 0.1};
  apply_power_node_mix(v, std::vector<NodeId>{1}, 1.0);
  EXPECT_DOUBLE_EQ(v[0], 0.0);
  EXPECT_DOUBLE_EQ(v[1], 1.0);
}

TEST(ApplyPowerNodeMix, RejectsBadInputs) {
  std::vector<double> v{1.0};
  EXPECT_THROW(apply_power_node_mix(v, std::vector<NodeId>{0}, 1.5),
               std::invalid_argument);
  EXPECT_THROW(apply_power_node_mix(v, std::vector<NodeId>{7}, 0.5),
               std::out_of_range);
}

TEST(ApplyPowerNodeMix, BadIdLeavesVectorUntouched) {
  // Every id is checked before the scaling pass, so a throw leaves the
  // caller's vector as it was, not half mixed.
  std::vector<double> v{0.5, 0.3, 0.2};
  const auto before = v;
  EXPECT_THROW(apply_power_node_mix(v, std::vector<NodeId>{0, 3}, 0.5),
               std::out_of_range);
  EXPECT_EQ(v, before);
}

}  // namespace
}  // namespace gt::core
