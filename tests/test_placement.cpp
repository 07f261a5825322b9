// Tier-2 tests of the placement pass and its network-channel lowering:
// per-branch cuts on fan-out plans, prefix cuts when every branch would
// ship more than the raw stream, the cut a linear plan gets, placement
// on/off result equivalence through real channel execution, and the
// deployment report measured from the channels a placed plan ran over:
// bytes per hop and across the uplink, multi-hop relays, per-hop transfer
// time, and route and placement errors.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdlib>

#include "nebula/engine.hpp"

namespace nebulameos::nebula {
namespace {

constexpr int kEdge = 2;   // train-0 in the SNCB reference topology
constexpr int kCloud = 1;  // cloud worker

Schema EventSchema() {
  return Schema::Build()
      .AddInt64("key")
      .AddTimestamp("ts")
      .AddDouble("value")
      .Finish();
}

std::vector<std::vector<Value>> MakeRows(int n) {
  std::vector<std::vector<Value>> rows;
  for (int i = 0; i < n; ++i) {
    rows.push_back({Value(int64_t{i % 3}), Value(Seconds(i)),
                    Value(static_cast<double>(i))});
  }
  return rows;
}

SourcePtr MakeSource(int n) {
  return std::make_unique<MemorySource>(EventSchema(), MakeRows(n), 1, "ts");
}

// The canonical two-branch plan: shared selective filter, branch 0 keeps
// high values narrowed to two fields, branch 1 aggregates per key.
Result<LogicalPlan> MakeFanOutPlan(int n,
                                   std::shared_ptr<CollectSink>* high_sink,
                                   std::shared_ptr<CollectSink>* agg_sink) {
  *high_sink = std::make_shared<CollectSink>(
      Schema::Build().AddInt64("key").AddDouble("value").Finish());
  *agg_sink = std::make_shared<CollectSink>(Schema::Build()
                                                .AddInt64("key")
                                                .AddTimestamp("window_start")
                                                .AddTimestamp("window_end")
                                                .AddInt64("n")
                                                .Finish());
  SplitQuery split = Query::From(MakeSource(n))
                         .Filter(Ge(Attribute("value"), Lit(2.0)))
                         .Split(2);
  std::move(split[0])
      .Filter(Ge(Attribute("value"), Lit(6.0)))
      .Project({"key", "value"})
      .To(*high_sink);
  std::move(split[1])
      .KeyBy("key")
      .TumblingWindow(Seconds(100), "ts")
      .Aggregate({AggregateSpec::Count("n")})
      .To(*agg_sink);
  return std::move(split).Build();
}

// Runs `plan` to completion on a fresh engine (optimizer off so the
// compiled shape matches the logical plan 1:1) and returns its stats, and
// its measured deployment report through `report` when given.
Result<QueryStats> MeasureRun(LogicalPlan plan,
                              const Topology* topology = nullptr,
                              DeploymentReport* report = nullptr) {
  EngineOptions options;
  options.optimizer.enable = false;
  options.topology = topology;
  NodeEngine engine(options);
  NM_ASSIGN_OR_RETURN(const int id, engine.Submit(std::move(plan)));
  NM_RETURN_NOT_OK(engine.RunToCompletion(id));
  if (report != nullptr) {
    NM_ASSIGN_OR_RETURN(*report, engine.Deployment(id));
  }
  return engine.Stats(id);
}

TEST(PlacementPass, PerBranchCutsOnFanOutPlan) {
  // Measure a run of the plan shape first.
  std::shared_ptr<CollectSink> high, agg;
  auto measured_plan = MakeFanOutPlan(10, &high, &agg);
  ASSERT_TRUE(measured_plan.ok()) << measured_plan.status().ToString();
  auto stats = MeasureRun(std::move(*measured_plan));
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  const Topology topo = Topology::SncbReference(1, 1e6, Millis(50));
  PlacementPassOptions options;
  options.topology = &topo;
  options.edge_node = kEdge;
  options.cloud_node = kCloud;
  options.measured = stats->operator_stats;
  options.source_bytes = stats->bytes_ingested;

  auto plan = MakeFanOutPlan(10, &high, &agg);
  ASSERT_TRUE(plan.ok());
  RewritePassPtr pass = MakePlacementPass(std::move(options));
  bool changed = false;
  ASSERT_TRUE(pass->Apply(&*plan, &changed).ok());
  EXPECT_TRUE(changed);

  // Both branches ship less than the shared prefix's output, so the
  // prefix and every branch operator stay on the edge; only sinks move.
  EXPECT_EQ(plan->source_placement(), kEdge);
  const auto& ops = plan->ops();
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_EQ(ops[0]->placement(), kEdge);  // shared filter
  EXPECT_EQ(ops[1]->placement(), kEdge);  // fan-out node
  const auto& fan = static_cast<const FanOutNode&>(*ops[1]);
  const auto& alerts = fan.branches()[0];
  ASSERT_EQ(alerts.size(), 3u);
  EXPECT_EQ(alerts[0]->placement(), kEdge);   // Filter(value >= 6)
  EXPECT_EQ(alerts[1]->placement(), kEdge);   // Project
  EXPECT_EQ(alerts[2]->placement(), kCloud);  // Sink
  const auto& archive = fan.branches()[1];
  ASSERT_EQ(archive.size(), 3u);
  EXPECT_EQ(archive[0]->placement(), kEdge);   // KeyBy marker
  EXPECT_EQ(archive[1]->placement(), kEdge);   // WindowAgg
  EXPECT_EQ(archive[2]->placement(), kCloud);  // Sink
  // Explain renders the annotations.
  EXPECT_NE(plan->Explain().find("@node2"), std::string::npos);
  // A second application is a fixpoint no-op.
  changed = false;
  ASSERT_TRUE(pass->Apply(&*plan, &changed).ok());
  EXPECT_FALSE(changed);
}

TEST(PlacementPass, PrefixCutWhenEveryBranchExpands) {
  // Both branches immediately widen every record, so each branch's best
  // cut is its own entry — shipping the prefix output once (one prefix
  // cut) beats shipping it once per branch.
  auto build = [](std::shared_ptr<CollectSink>* s0,
                  std::shared_ptr<CollectSink>* s1) {
    const Schema wide = Schema::Build()
                            .AddInt64("key")
                            .AddTimestamp("ts")
                            .AddDouble("value")
                            .AddDouble("scaled")
                            .Finish();
    *s0 = std::make_shared<CollectSink>(wide);
    *s1 = std::make_shared<CollectSink>(wide);
    SplitQuery split = Query::From(MakeSource(10))
                           .Filter(Ge(Attribute("value"), Lit(2.0)))
                           .Split(2);
    std::move(split[0])
        .Map("scaled", Mul(Attribute("value"), Lit(2.0)))
        .To(*s0);
    std::move(split[1])
        .Map("scaled", Mul(Attribute("value"), Lit(3.0)))
        .To(*s1);
    return std::move(split).Build();
  };
  std::shared_ptr<CollectSink> s0, s1;
  auto measured_plan = build(&s0, &s1);
  ASSERT_TRUE(measured_plan.ok());
  auto stats = MeasureRun(std::move(*measured_plan));
  ASSERT_TRUE(stats.ok());

  const Topology topo = Topology::SncbReference(1, 1e6, Millis(50));
  PlacementPassOptions options;
  options.topology = &topo;
  options.edge_node = kEdge;
  options.cloud_node = kCloud;
  options.measured = stats->operator_stats;
  options.source_bytes = stats->bytes_ingested;

  auto plan = build(&s0, &s1);
  ASSERT_TRUE(plan.ok());
  RewritePassPtr pass = MakePlacementPass(std::move(options));
  bool changed = false;
  ASSERT_TRUE(pass->Apply(&*plan, &changed).ok());
  EXPECT_TRUE(changed);
  // Cut after the shared filter: fan-out and both branches in the cloud.
  const auto& ops = plan->ops();
  EXPECT_EQ(ops[0]->placement(), kEdge);   // shared filter
  EXPECT_EQ(ops[1]->placement(), kCloud);  // fan-out
  const auto& fan = static_cast<const FanOutNode&>(*ops[1]);
  for (const auto& branch : fan.branches()) {
    for (const auto& op : branch) {
      EXPECT_EQ(op->placement(), kCloud);
    }
  }
  // Idempotence holds on this path too, even though the solver first
  // tries per-branch cuts before the prefix cut overwrites them.
  changed = false;
  ASSERT_TRUE(pass->Apply(&*plan, &changed).ok());
  EXPECT_FALSE(changed);
}

// Filter(value >= min_value) → Map(scaled = 2 * value) → a CollectSink,
// over `n` events with values 0 .. n-1.
LogicalPlan LinearPlan(int n, double min_value = 2.0) {
  auto plan = Query::From(MakeSource(n))
                  .Filter(Ge(Attribute("value"), Lit(min_value)))
                  .Map("scaled", Mul(Attribute("value"), Lit(2.0)))
                  .Build();
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  plan->SetSink(std::make_shared<CollectSink>(*plan->OutputSchema()));
  return std::move(*plan);
}

// Places `LinearPlan` from hand-written measurements: the Filter's and
// the Map's bytes out, over `source_bytes` ingested. Returns the nodes of
// the source, Filter, Map and sink.
std::vector<int> CutLinear(uint64_t filter_bytes, uint64_t map_bytes,
                           uint64_t source_bytes) {
  LogicalPlan plan = LinearPlan(10);
  const Topology topo = Topology::SncbReference(1, 1e6, Millis(50));
  PlacementPassOptions options;
  options.topology = &topo;
  options.edge_node = kEdge;
  options.cloud_node = kCloud;
  options.measured = {{"Filter", {0, 0, 0, filter_bytes}},
                      {"Map", {0, 0, 0, map_bytes}},
                      {"CollectSink", {}}};
  options.source_bytes = source_bytes;
  bool changed = false;
  EXPECT_TRUE(
      MakePlacementPass(std::move(options))->Apply(&plan, &changed).ok());
  std::vector<int> nodes{plan.source_placement()};
  for (const auto& op : plan.ops()) nodes.push_back(op->placement());
  return nodes;
}

TEST(PlacementPass, LinearPlanCutsAtTheSmallestFlow) {
  // Filter 10 MB -> 100 KB, Map 100 KB -> 200 KB: cut after the filter.
  EXPECT_EQ(CutLinear(100'000, 200'000, 10'000'000),
            (std::vector<int>{kEdge, kEdge, kCloud, kCloud}));
  // Every operator grows the stream: only the source stays on the edge.
  EXPECT_EQ(CutLinear(20'000'000, 50'000'000, 10'000'000),
            (std::vector<int>{kEdge, kCloud, kCloud, kCloud}));
  // Filter and Map both emit 100 KB: ties break toward the deepest cut
  // (maximal pushdown), so the Map stays on the edge too.
  EXPECT_EQ(CutLinear(100'000, 100'000, 10'000'000),
            (std::vector<int>{kEdge, kEdge, kEdge, kCloud}));
}

TEST(Placement, SubmitDoesNotRewritePlacedPlans) {
  // Two adjacent filters would normally fuse; on a placed plan the
  // rewriter must not run — placement annotations are tied to the exact
  // plan shape they were computed for.
  auto sink = std::make_shared<CountingSink>(EventSchema());
  auto plan = Query::From(MakeSource(10))
                  .Filter(Ge(Attribute("value"), Lit(2.0)))
                  .Filter(Ge(Attribute("value"), Lit(4.0)))
                  .To(sink)
                  .Build();
  ASSERT_TRUE(plan.ok());
  AnnotateEdgePushdownPlacement(&*plan, kEdge, kCloud);
  const Topology topo = Topology::SncbReference(1, 1e6, Millis(50));
  EngineOptions options;  // optimizer ON (the default)
  options.topology = &topo;
  NodeEngine engine(options);
  auto id = engine.Submit(std::move(*plan));
  ASSERT_TRUE(id.ok());
  auto text = engine.Explain(*id);
  ASSERT_TRUE(text.ok());
  // Both filters survive, still carrying their placement annotations.
  const std::string& optimized = text->optimized;
  size_t first = optimized.find("Filter(");
  ASSERT_NE(first, std::string::npos);
  EXPECT_NE(optimized.find("Filter(", first + 1), std::string::npos);
  EXPECT_NE(optimized.find("@node2"), std::string::npos);
  ASSERT_TRUE(engine.RunToCompletion(*id).ok());
  EXPECT_EQ(sink->events(), 6u);  // values 4..9
}

TEST(PlacementPass, RejectsMismatchedMeasurements) {
  const Topology topo = Topology::SncbReference(1, 1e6, Millis(50));
  PlacementPassOptions options;
  options.topology = &topo;
  options.edge_node = kEdge;
  options.cloud_node = kCloud;
  options.source_bytes = 240;  // no measured operator entries at all
  std::shared_ptr<CollectSink> high, agg;
  auto plan = MakeFanOutPlan(10, &high, &agg);
  ASSERT_TRUE(plan.ok());
  bool changed = false;
  const Status st =
      MakePlacementPass(std::move(options))->Apply(&*plan, &changed);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(Placement, PlacedAndUnplacedRunsAgree) {
  // Reference: the fan-out plan without any placement.
  std::shared_ptr<CollectSink> high_ref, agg_ref;
  auto ref_plan = MakeFanOutPlan(40, &high_ref, &agg_ref);
  ASSERT_TRUE(ref_plan.ok());
  ASSERT_TRUE(MeasureRun(std::move(*ref_plan)).ok());

  // Placed: full edge pushdown, executed over real network channels.
  const Topology topo = Topology::SncbReference(1, 1e6, Millis(50));
  std::shared_ptr<CollectSink> high, agg;
  auto placed_plan = MakeFanOutPlan(40, &high, &agg);
  ASSERT_TRUE(placed_plan.ok());
  AnnotateEdgePushdownPlacement(&*placed_plan, kEdge, kCloud);
  ASSERT_TRUE(MeasureRun(std::move(*placed_plan), &topo).ok());

  // Every row of every sink must match: the channels serialized,
  // shipped and reconstructed the exact same records (watermarks
  // included — the window aggregate fires identically). Compared as row
  // sets: partitioned execution (worker_threads > 1) interleaves per-key
  // window emissions in no specified order.
  auto sorted = [](std::vector<std::vector<Value>> rows) {
    std::sort(rows.begin(), rows.end());
    return rows;
  };
  EXPECT_EQ(sorted(high->Rows()), sorted(high_ref->Rows()));
  EXPECT_EQ(sorted(agg->Rows()), sorted(agg_ref->Rows()));
  EXPECT_FALSE(agg->Rows().empty());
}

// `LinearPlan` with its source, Filter, Map and sink on `nodes`.
LogicalPlan PlacedLinearPlan(std::array<int, 4> nodes, int n = 100,
                             double min_value = 2.0) {
  LogicalPlan plan = LinearPlan(n, min_value);
  plan.set_source_placement(nodes[0]);
  for (size_t i = 0; i < 3; ++i) {
    plan.mutable_ops()[i]->set_placement(nodes[i + 1]);
  }
  return plan;
}

// Under an injected channel fault profile (the CHECK_FAULTS=1 gate)
// channels re-ship duplicated and retransmitted frames and price their
// backoff, so measured traffic and time can only meet or exceed the
// fault-free figures.
bool LossyChannels() { return std::getenv("NM_FAULT_PROFILE") != nullptr; }

void ExpectShipped(uint64_t measured, uint64_t expected) {
  EXPECT_TRUE(LossyChannels() ? measured >= expected : measured == expected)
      << measured << " shipped, " << expected << " expected";
}

TEST(Placement, ChannelCountersMatchFilterFlowOnLinearChain) {
  auto stats = MeasureRun(LinearPlan(100));
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats->operator_stats[0].first, "Filter");
  const uint64_t filter_out = stats->operator_stats[0].second.bytes_out;
  ASSERT_GT(filter_out, 0u);

  // Executed deployment of the cut after the filter: its output crosses
  // every hop of the edge -> cloud route, and the uplink once; the
  // same-node transitions before and after the cut ship nothing.
  const Topology topo = Topology::SncbReference(1, 1e6, Millis(50));
  DeploymentReport measured;
  auto placed = MeasureRun(PlacedLinearPlan({kEdge, kEdge, kCloud, kCloud}),
                           &topo, &measured);
  ASSERT_TRUE(placed.ok()) << placed.status().ToString();
  auto route = topo.ShortestPath(kEdge, kCloud);
  ASSERT_TRUE(route.ok()) << route.status().ToString();
  EXPECT_EQ(measured.link_bytes.size(), route->size());
  for (const TopologyLink& link : *route) {
    ExpectShipped(measured.link_bytes.at({link.from, link.to}), filter_out);
  }
  ExpectShipped(measured.uplink_bytes, filter_out);
  // The wire adds exactly one frame header per shipped frame.
  ASSERT_GT(measured.frames, 0u);
  ExpectShipped(measured.wire_bytes,
                measured.uplink_bytes + measured.frames * kWireFrameHeaderBytes);
}

TEST(Deployment, EdgePushdownShipsOnlyResultsAndShipRawTheWholeStream) {
  const Topology topo = Topology::SncbReference(1, 1e6, Millis(50));
  // The filter keeps 1% of 2000 events.
  DeploymentReport edge, raw;
  auto edge_stats = MeasureRun(
      PlacedLinearPlan({kEdge, kEdge, kEdge, kCloud}, 2000, 1980.0), &topo,
      &edge);
  auto raw_stats = MeasureRun(
      PlacedLinearPlan({kEdge, kCloud, kCloud, kCloud}, 2000, 1980.0), &topo,
      &raw);
  ASSERT_TRUE(edge_stats.ok()) << edge_stats.status().ToString();
  ASSERT_TRUE(raw_stats.ok()) << raw_stats.status().ToString();
  // Edge pushdown ships only the results the sink took in; ship-raw ships
  // the whole source stream, so pushdown wins by the selectivity.
  EXPECT_EQ(edge_stats->events_emitted, 20u);
  ExpectShipped(edge.uplink_bytes, edge_stats->bytes_emitted);
  ExpectShipped(raw.uplink_bytes, raw_stats->bytes_ingested);
  EXPECT_GT(raw.uplink_bytes, edge.uplink_bytes * 50);
  EXPECT_GT(raw.total_transfer_seconds, edge.total_transfer_seconds);
}

// Two placed nodes without a direct link still communicate: the stream
// relays over the cheapest multi-hop route (train -> cloud worker ->
// coordinator in the SNCB reference topology, whose trains only link to
// the cloud worker). Each hop's time is its wire bytes over the link's
// bandwidth plus one latency per frame.
TEST(Deployment, RoutesOverMultiHopPathsAndPricesEachHop) {
  const Topology topo = Topology::SncbReference(1, 1e6, Millis(50));
  constexpr int kCoordinator = 0;
  DeploymentReport report;
  auto stats = MeasureRun(
      PlacedLinearPlan({kEdge, kCoordinator, kCoordinator, kCoordinator},
                       500, 0.0),
      &topo, &report);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  auto route = topo.ShortestPath(kEdge, kCoordinator);
  ASSERT_TRUE(route.ok());
  ASSERT_EQ(route->size(), 2u);
  ASSERT_EQ(report.link_bytes.size(), 2u);
  ASSERT_GT(report.frames, 0u);
  double hops = 0.0;
  for (const TopologyLink& link : *route) {
    // Both hops carried the stream.
    ExpectShipped(report.link_bytes.at({link.from, link.to}),
                  stats->bytes_ingested);
    const double seconds =
        static_cast<double>(report.wire_bytes) / link.bandwidth_bytes_per_sec +
        static_cast<double>(report.frames) * ToSeconds(link.latency);
    EXPECT_NEAR(report.link_seconds.at({link.from, link.to}), seconds,
                1e-9 * seconds);
    hops += seconds;
  }
  // The cellular hop counts as uplink once.
  ExpectShipped(report.uplink_bytes, stats->bytes_ingested);
  // Under faults the total also holds retransmission backoff.
  EXPECT_GE(report.total_transfer_seconds, hops * (1 - 1e-9));
  if (!LossyChannels()) {
    EXPECT_LE(report.total_transfer_seconds, hops * (1 + 1e-9));
  }
}

// A plan placed on one node ships nothing (see also the same-node
// transitions of the linear chain above).
TEST(Deployment, SameNodeTransfersAreFree) {
  const Topology topo = Topology::SncbReference(1, 1e6, Millis(50));
  DeploymentReport report;
  auto stats = MeasureRun(
      PlacedLinearPlan({kCloud, kCloud, kCloud, kCloud}, 200, 150.0), &topo,
      &report);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->events_emitted, 50u);
  EXPECT_EQ(report.frames, 0u);
  EXPECT_EQ(report.uplink_bytes, 0u);
  EXPECT_TRUE(report.link_bytes.empty());
  EXPECT_DOUBLE_EQ(report.total_transfer_seconds, 0.0);
}

TEST(Deployment, MissingRouteOrPlacementErrors) {
  // No link between the nodes: the transition has no channel to lower to.
  Topology unlinked;
  ASSERT_TRUE(unlinked.AddNode({1, NodeKind::kEdgeWorker, "edge", 1.0}).ok());
  ASSERT_TRUE(
      unlinked.AddNode({2, NodeKind::kCloudWorker, "cloud", 1.0}).ok());
  EXPECT_FALSE(MeasureRun(PlacedLinearPlan({1, 1, 2, 2}), &unlinked).ok());
  // An operator left unplaced inside a placed plan is refused by the
  // placement-soundness check instead of running wherever the previous
  // operator sits.
  const Topology topo = Topology::SncbReference(1, 1e6, Millis(50));
  EngineOptions options;
  options.topology = &topo;
  options.optimizer.verify_each = true;
  const auto partial = NodeEngine(options).Submit(
      PlacedLinearPlan({kEdge, kEdge, LogicalOperator::kUnplaced, kCloud}));
  ASSERT_FALSE(partial.ok());
  EXPECT_NE(partial.status().message().find("unplaced"), std::string::npos)
      << partial.status().ToString();
}

TEST(Placement, UnplacedQueryReportsNoTraffic) {
  std::shared_ptr<CollectSink> high, agg;
  auto plan = MakeFanOutPlan(10, &high, &agg);
  ASSERT_TRUE(plan.ok());
  NodeEngine engine;
  auto id = engine.Submit(std::move(*plan));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(engine.RunToCompletion(*id).ok());
  auto report = engine.Deployment(*id);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->uplink_bytes, 0u);
  EXPECT_EQ(report->frames, 0u);
  EXPECT_TRUE(report->link_bytes.empty());
}

}  // namespace
}  // namespace nebulameos::nebula
