#include <gtest/gtest.h>

#include "overlay/flood.hpp"
#include "overlay/overlay.hpp"

namespace gt::overlay {
namespace {

OverlayManager ring_overlay(std::size_t n) {
  Rng rng(1);
  return OverlayManager(graph::make_ring_with_shortcuts(n, 0, rng));
}

TEST(Flood, TtlLimitsReachOnRing) {
  auto om = ring_overlay(20);
  const auto res = flood(om, 0, 3);
  // Ring: TTL 3 reaches 3 hops in both directions + source = 7 nodes.
  EXPECT_EQ(res.reached.size(), 7u);
  EXPECT_EQ(res.max_depth, 3u);
}

TEST(Flood, FullTtlReachesEntireConnectedOverlay) {
  Rng rng(2);
  OverlayManager om(graph::make_gnutella_like(200, rng));
  const auto res = flood(om, 5, 10);
  EXPECT_EQ(res.reached.size(), 200u);
  EXPECT_GT(res.messages, 199u);  // duplicates make flooding expensive
}

TEST(Flood, DeadNodesBlockPropagation) {
  auto om = ring_overlay(10);  // pure ring: cutting both sides isolates
  om.leave(1);
  om.leave(9);
  const auto res = flood(om, 0, 10);
  EXPECT_EQ(res.reached.size(), 1u);  // only the source remains reachable
}

TEST(Flood, DeadSourceYieldsNothing) {
  auto om = ring_overlay(10);
  om.leave(0);
  const auto res = flood(om, 0, 5);
  EXPECT_TRUE(res.reached.empty());
  EXPECT_EQ(res.messages, 0u);
}

TEST(FloodQuery, FiltersResponders) {
  auto om = ring_overlay(20);
  FloodResult stats;
  const auto responders = flood_query(
      om, 0, 20, [](NodeId v) { return v % 5 == 0; }, &stats);
  EXPECT_EQ(responders.size(), 4u);  // 0, 5, 10, 15
  EXPECT_EQ(stats.reached.size(), 20u);
}

}  // namespace
}  // namespace gt::overlay
