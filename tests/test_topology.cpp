// Tests for the topology simulation (src/nebula/topology) — Figure 1's
// edge architecture as a measurable model. Deployment reports measured
// from executed channels are tested in test_placement.cpp.

#include <gtest/gtest.h>

#include "nebula/topology.hpp"

namespace nebulameos::nebula {
namespace {

TEST(Topology, AddNodeRejectsDuplicates) {
  Topology topo;
  EXPECT_TRUE(topo.AddNode({1, NodeKind::kEdgeWorker, "a", 1.0}).ok());
  EXPECT_FALSE(topo.AddNode({1, NodeKind::kCloudWorker, "b", 1.0}).ok());
}

TEST(Topology, AddLinkValidatesEndpointsAndBandwidth) {
  Topology topo;
  ASSERT_TRUE(topo.AddNode({1, NodeKind::kEdgeWorker, "a", 1.0}).ok());
  ASSERT_TRUE(topo.AddNode({2, NodeKind::kCloudWorker, "b", 1.0}).ok());
  EXPECT_FALSE(topo.AddLink({1, 3, 1e6, 0}).ok());
  EXPECT_FALSE(topo.AddLink({1, 2, 0.0, 0}).ok());
  EXPECT_TRUE(topo.AddLink({1, 2, 1e6, Millis(10)}).ok());
  EXPECT_TRUE(topo.GetLink(1, 2).ok());
  EXPECT_FALSE(topo.GetLink(2, 1).ok());
}

TEST(Topology, SncbReferenceShape) {
  const Topology topo = Topology::SncbReference(6, 1e6, Millis(50));
  // Coordinator + cloud worker + 6 trains.
  EXPECT_EQ(topo.nodes().size(), 8u);
  int edges = 0, clouds = 0, coords = 0;
  for (const auto& node : topo.nodes()) {
    switch (node.kind) {
      case NodeKind::kEdgeWorker:
        ++edges;
        break;
      case NodeKind::kCloudWorker:
        ++clouds;
        break;
      case NodeKind::kCoordinator:
        ++coords;
        break;
    }
  }
  EXPECT_EQ(edges, 6);
  EXPECT_EQ(clouds, 1);
  EXPECT_EQ(coords, 1);
  // Every train has an uplink to the cloud worker.
  for (const auto& node : topo.nodes()) {
    if (node.kind == NodeKind::kEdgeWorker) {
      EXPECT_TRUE(topo.GetLink(node.id, 1).ok());
      EXPECT_TRUE(topo.GetLink(1, node.id).ok());
    }
  }
}

// Regression: AddLink used to accept duplicate (from, to) pairs, leaving
// GetLink to silently return whichever was registered first.
TEST(Topology, AddLinkRejectsDuplicates) {
  Topology topo;
  ASSERT_TRUE(topo.AddNode({1, NodeKind::kEdgeWorker, "a", 1.0}).ok());
  ASSERT_TRUE(topo.AddNode({2, NodeKind::kCloudWorker, "b", 1.0}).ok());
  ASSERT_TRUE(topo.AddLink({1, 2, 1e6, Millis(10)}).ok());
  const Status dup = topo.AddLink({1, 2, 5e6, Millis(1)});
  EXPECT_EQ(dup.code(), StatusCode::kAlreadyExists);
  // The reverse direction is a different link and stays addable.
  EXPECT_TRUE(topo.AddLink({2, 1, 1e6, Millis(10)}).ok());
  ASSERT_EQ(topo.links().size(), 2u);
  EXPECT_DOUBLE_EQ(topo.GetLink(1, 2)->bandwidth_bytes_per_sec, 1e6);
}

TEST(Topology, ShortestPathFindsMultiHopRoute) {
  const Topology topo = Topology::SncbReference(2, 1e6, Millis(60));
  // Train (2) reaches the coordinator (0) only via the cloud worker (1).
  auto route = topo.ShortestPath(2, 0);
  ASSERT_TRUE(route.ok()) << route.status().ToString();
  ASSERT_EQ(route->size(), 2u);
  EXPECT_EQ((*route)[0].from, 2);
  EXPECT_EQ((*route)[0].to, 1);
  EXPECT_EQ((*route)[1].from, 1);
  EXPECT_EQ((*route)[1].to, 0);
  // Train-to-train relays through the cloud worker (2 -> 1 -> 3).
  auto relay = topo.ShortestPath(2, 3);
  ASSERT_TRUE(relay.ok()) << relay.status().ToString();
  EXPECT_EQ(relay->size(), 2u);
  // Unknown endpoints fail; self-routes are empty.
  EXPECT_FALSE(topo.ShortestPath(2, 99).ok());
  auto self = topo.ShortestPath(1, 1);
  ASSERT_TRUE(self.ok());
  EXPECT_TRUE(self->empty());
}

}  // namespace
}  // namespace nebulameos::nebula
