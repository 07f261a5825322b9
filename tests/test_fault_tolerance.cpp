// Fault-tolerance tests: fault-profile parsing and combination, seeded
// injector determinism, the channel retransmit protocol (drop repair,
// disconnect, retain-queue shedding), engine-level row-set equivalence of
// lossy placed runs against fault-free references (reorder, duplicates,
// env-configured profiles), watermark monotonicity through the repair
// path, stateful-operator late-record guards, and worker-pool morsel
// shedding.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <mutex>

#include "common/logging.hpp"
#include "nebula/engine.hpp"
#include "nebula/fault.hpp"
#include "nebula/worker_pool.hpp"

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

std::vector<std::vector<Value>> Sorted(std::vector<std::vector<Value>> rows) {
  std::sort(rows.begin(), rows.end());
  return rows;
}

// A placed linear plan (edge filter+map, cloud sink) whose node cut
// lowers to exactly one network channel.
Result<LogicalPlan> MakePlacedLinearPlan(int n,
                                         std::shared_ptr<CollectSink>* sink) {
  auto plan = Query::From(std::make_unique<MemorySource>(EventSchema(),
                                                         MakeRows(n), 1, "ts"))
                  .Filter(Ge(Attribute("value"), Lit(2.0)))
                  .Map("scaled", Mul(Attribute("value"), Lit(2.0)))
                  .Build();
  if (!plan.ok()) return plan;
  NM_ASSIGN_OR_RETURN(const Schema schema, plan->OutputSchema());
  *sink = std::make_shared<CollectSink>(schema);
  plan->SetSink(*sink);
  plan->set_source_placement(kEdge);
  plan->mutable_ops()[0]->set_placement(kEdge);
  plan->mutable_ops()[1]->set_placement(kEdge);
  plan->mutable_ops()[2]->set_placement(kCloud);
  return plan;
}

// A placed windowed plan: the channel crosses mid-chain, upstream of the
// cloud-side window aggregation — reordered/lossy frames hit a stateful
// operator.
Result<LogicalPlan> MakePlacedWindowPlan(int n,
                                         std::shared_ptr<CollectSink>* sink) {
  auto plan = Query::From(std::make_unique<MemorySource>(EventSchema(),
                                                         MakeRows(n), 1, "ts"))
                  .Filter(Ge(Attribute("value"), Lit(0.0)))
                  .KeyBy("key")
                  .TumblingWindow(Seconds(10), "ts")
                  .Aggregate({AggregateSpec::Count("n")})
                  .Build();
  if (!plan.ok()) return plan;
  NM_ASSIGN_OR_RETURN(const Schema schema, plan->OutputSchema());
  *sink = std::make_shared<CollectSink>(schema);
  plan->SetSink(*sink);
  plan->set_source_placement(kEdge);
  auto& ops = plan->mutable_ops();
  ops[0]->set_placement(kEdge);  // Filter
  for (size_t i = 1; i < ops.size(); ++i) ops[i]->set_placement(kCloud);
  return plan;
}

// Overrides NM_FAULT_PROFILE for one test when the fault-injection gate
// (CHECK_FAULTS=1) armed it process-wide: the env profile takes
// precedence over `EngineOptions::faults.profile`, so a test scripting
// its own faults must speak through the same channel to stay
// deterministic under the gate. No-op when the gate is off — the test's
// EngineOptions profile then applies, covering that path too.
class ScopedProfileOverride {
 public:
  explicit ScopedProfileOverride(const char* spec) {
    const char* outer = std::getenv("NM_FAULT_PROFILE");
    if (outer == nullptr) return;
    saved_ = outer;
    active_ = true;
    setenv("NM_FAULT_PROFILE", spec, 1);
  }
  ~ScopedProfileOverride() {
    if (active_) setenv("NM_FAULT_PROFILE", saved_.c_str(), 1);
  }

 private:
  std::string saved_;
  bool active_ = false;
};

// Runs a (possibly placed) plan on a fresh engine with the given fault
// options, small buffers so runs ship many frames, optimizer off.
struct RunResult {
  Status status;
  DeploymentReport deployment;
};

RunResult RunPlan(LogicalPlan plan, const Topology* topology,
                  const FaultToleranceOptions& faults) {
  EngineOptions options;
  options.optimizer.enable = false;
  options.topology = topology;
  options.tuples_per_buffer = 8;
  options.faults = faults;
  NodeEngine engine(options);
  auto id = engine.Submit(std::move(plan));
  if (!id.ok()) return {id.status(), {}};
  RunResult result;
  result.status = engine.RunToCompletion(*id);
  auto report = engine.Deployment(*id);
  if (report.ok()) result.deployment = *report;
  return result;
}

// --- Profile parsing and combination -----------------------------------

TEST(FaultProfile, ParsesFullSpec) {
  auto profile = ParseFaultProfile(
      "drop=0.01,dup=0.002,reorder=0.005,delay=0.01,disconnect_after=100,"
      "seed=42");
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  EXPECT_DOUBLE_EQ(profile->drop_rate, 0.01);
  EXPECT_DOUBLE_EQ(profile->duplicate_rate, 0.002);
  EXPECT_DOUBLE_EQ(profile->reorder_rate, 0.005);
  EXPECT_DOUBLE_EQ(profile->delay_rate, 0.01);
  EXPECT_EQ(profile->disconnect_after_frames, 100u);
  EXPECT_EQ(profile->seed, 42u);
  EXPECT_TRUE(profile->Any());
}

TEST(FaultProfile, ParsesSubsetAndRejectsGarbage) {
  auto subset = ParseFaultProfile("drop=0.5");
  ASSERT_TRUE(subset.ok());
  EXPECT_DOUBLE_EQ(subset->drop_rate, 0.5);
  EXPECT_DOUBLE_EQ(subset->duplicate_rate, 0.0);
  EXPECT_FALSE(ParseFaultProfile("drop=1.5").ok());       // out of range
  EXPECT_FALSE(ParseFaultProfile("dorp=0.1").ok());       // unknown key
  EXPECT_FALSE(ParseFaultProfile("drop=banana").ok());    // not a number
}

TEST(FaultProfile, CombinesAsIndependentSources) {
  FaultProfile a;
  a.drop_rate = 0.5;
  a.disconnect_after_frames = 100;
  a.seed = 1;
  FaultProfile b;
  b.drop_rate = 0.5;
  b.reorder_rate = 0.25;
  b.disconnect_after_frames = 40;
  b.seed = 2;
  const FaultProfile c = CombineFaultProfiles(a, b);
  EXPECT_DOUBLE_EQ(c.drop_rate, 0.75);  // 1 - 0.5 * 0.5
  EXPECT_DOUBLE_EQ(c.reorder_rate, 0.25);
  EXPECT_EQ(c.disconnect_after_frames, 40u);  // smaller non-zero wins
  EXPECT_NE(c.seed, a.seed);
  EXPECT_NE(c.seed, b.seed);
}

TEST(FaultInjector, SameSeedSameFateStream) {
  FaultProfile profile;
  profile.drop_rate = 0.2;
  profile.duplicate_rate = 0.2;
  profile.reorder_rate = 0.2;
  profile.seed = 7;
  FaultInjector a(profile), b(profile);
  bool any_fault = false;
  for (int i = 0; i < 200; ++i) {
    const auto fate = a.NextFate();
    EXPECT_EQ(fate, b.NextFate()) << "diverged at frame " << i;
    any_fault = any_fault || fate != FaultInjector::Fate::kDeliver;
  }
  EXPECT_TRUE(any_fault);  // rates this high must fire within 200 draws
  // A different seed draws a different stream.
  profile.seed = 8;
  FaultInjector c(profile);
  FaultInjector d(FaultProfile{0.2, 0.2, 0.2, 0.0, 0, 7});
  int differing = 0;
  for (int i = 0; i < 200; ++i) {
    if (c.NextFate() != d.NextFate()) ++differing;
  }
  EXPECT_GT(differing, 0);
}

// --- Channel-level retransmit protocol ---------------------------------

std::shared_ptr<NetworkChannel> MakeLossyChannel(const Topology& topo,
                                                 double drop_rate,
                                                 const RetryOptions& retry) {
  auto channel = NetworkChannel::Connect(topo, kEdge, kCloud);
  EXPECT_TRUE(channel.ok());
  FaultProfile profile;
  profile.drop_rate = drop_rate;
  profile.seed = 11;
  (*channel)->ConfigureFaults(profile, retry);
  return *channel;
}

std::vector<uint8_t> Frame(uint8_t tag) { return {tag, tag, tag}; }

TEST(NetworkChannelFaults, DropsAreRepairedByRetransmit) {
  const Topology topo = Topology::SncbReference(1, 1e6, Millis(1));
  auto channel = MakeLossyChannel(topo, /*drop_rate=*/1.0, RetryOptions{});
  for (uint8_t i = 0; i < 5; ++i) {
    channel->Send(i, Frame(i), 3, 1);
  }
  // Everything dropped in transit...
  std::vector<uint8_t> frame;
  EXPECT_FALSE(channel->Receive(&frame));
  EXPECT_EQ(channel->frames_dropped(), 5u);
  EXPECT_EQ(channel->seq_end(), 5u);
  EXPECT_EQ(channel->health(), HealthState::kDegraded);
  // ...but every frame is recoverable from the retain queue, in order.
  for (uint8_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(channel->RequestRetransmit(i).ok());
    ASSERT_TRUE(channel->Receive(&frame));
    EXPECT_EQ(frame, Frame(i));
    channel->Ack(i);
  }
  EXPECT_EQ(channel->retransmits(), 5u);
  // Acked frames are no longer retained.
  EXPECT_EQ(channel->RequestRetransmit(3).code(), StatusCode::kOk);
}

TEST(NetworkChannelFaults, RetransmitAttemptsAreCapped) {
  const Topology topo = Topology::SncbReference(1, 1e6, Millis(1));
  RetryOptions retry;
  retry.max_attempts = 2;
  auto channel = MakeLossyChannel(topo, 1.0, retry);
  channel->Send(0, Frame(0), 3, 1);
  std::vector<uint8_t> frame;
  ASSERT_TRUE(channel->RequestRetransmit(0).ok());
  ASSERT_TRUE(channel->Receive(&frame));
  ASSERT_TRUE(channel->RequestRetransmit(0).ok());
  ASSERT_TRUE(channel->Receive(&frame));
  EXPECT_EQ(channel->RequestRetransmit(0).code(),
            StatusCode::kResourceExhausted);
}

TEST(NetworkChannelFaults, DisconnectKillsRecovery) {
  const Topology topo = Topology::SncbReference(1, 1e6, Millis(1));
  auto channel = NetworkChannel::Connect(topo, kEdge, kCloud);
  ASSERT_TRUE(channel.ok());
  FaultProfile profile;
  profile.disconnect_after_frames = 2;
  (*channel)->ConfigureFaults(profile, RetryOptions{});
  for (uint8_t i = 0; i < 4; ++i) {
    (*channel)->Send(i, Frame(i), 3, 1);
  }
  EXPECT_TRUE((*channel)->disconnected());
  EXPECT_EQ((*channel)->health(), HealthState::kDisconnected);
  // In-flight and retained frames died with the channel; later sends were
  // counted lost.
  std::vector<uint8_t> frame;
  EXPECT_FALSE((*channel)->Receive(&frame));
  EXPECT_EQ((*channel)->RequestRetransmit(0).code(),
            StatusCode::kUnavailable);
  EXPECT_GE((*channel)->frames_lost(), 2u);
}

TEST(NetworkChannelFaults, RetainQueueShedsByPolicy) {
  const Topology topo = Topology::SncbReference(1, 1e6, Millis(1));
  RetryOptions retry;
  retry.retain_limit = 2;
  retry.shed_policy = ShedPolicy::kDropOldest;
  auto channel = MakeLossyChannel(topo, 1.0, retry);
  for (uint8_t i = 0; i < 5; ++i) {
    channel->Send(i, Frame(i), 3, 1);
  }
  // Only the 2 newest frames are still retained; the shed ones are
  // DataLoss to a retransmit request.
  EXPECT_EQ(channel->frames_shed(), 3u);
  EXPECT_EQ(channel->RequestRetransmit(0).code(), StatusCode::kDataLoss);
  EXPECT_TRUE(channel->RequestRetransmit(3).ok());
  EXPECT_TRUE(channel->RequestRetransmit(4).ok());
}

TEST(NetworkChannelFaults, LossyLinkArmsChannelOnConnect) {
  Topology topo;
  ASSERT_TRUE(topo.AddNode({0, NodeKind::kEdgeWorker, "edge", 1.0}).ok());
  ASSERT_TRUE(topo.AddNode({1, NodeKind::kCloudWorker, "cloud", 1.0}).ok());
  TopologyLink link{0, 1, 1e6, Millis(1)};
  link.fault.drop_rate = 1.0;
  link.fault.seed = 5;
  ASSERT_TRUE(topo.AddLink(link).ok());
  auto channel = NetworkChannel::Connect(topo, 0, 1);
  ASSERT_TRUE(channel.ok());
  // No ConfigureFaults call: the link profile alone arms the injector.
  EXPECT_TRUE((*channel)->fault_profile().Any());
  (*channel)->Send(0, Frame(0), 3, 1);
  std::vector<uint8_t> frame;
  EXPECT_FALSE((*channel)->Receive(&frame));
  EXPECT_EQ((*channel)->frames_dropped(), 1u);
  // And the retained copy still repairs it.
  EXPECT_TRUE((*channel)->RequestRetransmit(0).ok());
  EXPECT_TRUE((*channel)->Receive(&frame));
}

// --- Engine-level delivery hardening -----------------------------------

// Reference rows of the linear plan, fault-free. "seed=1" parses to a
// profile with no fault behaviour — the reference stays clean even when
// the gate armed a lossy env profile.
std::vector<std::vector<Value>> LinearReference(int n) {
  ScopedProfileOverride clean("seed=1");
  std::shared_ptr<CollectSink> sink;
  auto plan = MakePlacedLinearPlan(n, &sink);
  EXPECT_TRUE(plan.ok());
  const Topology topo = Topology::SncbReference(1, 1e6, Millis(1));
  RunResult run = RunPlan(std::move(*plan), &topo, {});
  EXPECT_TRUE(run.status.ok()) << run.status.ToString();
  EXPECT_EQ(run.deployment.health, HealthState::kHealthy);
  return Sorted(sink->Rows());
}

TEST(EngineFaultTolerance, LossyRunMatchesFaultFreeRowSet) {
  const std::vector<std::vector<Value>> reference = LinearReference(200);
  ASSERT_FALSE(reference.empty());

  const Topology topo = Topology::SncbReference(1, 1e6, Millis(1));
  std::shared_ptr<CollectSink> sink;
  auto plan = MakePlacedLinearPlan(200, &sink);
  ASSERT_TRUE(plan.ok());
  ScopedProfileOverride lossy(
      "drop=0.2,dup=0.1,reorder=0.1,delay=0.1,seed=1234");
  FaultToleranceOptions faults;
  faults.profile.drop_rate = 0.2;
  faults.profile.duplicate_rate = 0.1;
  faults.profile.reorder_rate = 0.1;
  faults.profile.delay_rate = 0.1;
  faults.profile.seed = 1234;
  RunResult run = RunPlan(std::move(*plan), &topo, faults);
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  // Exactly the fault-free rows: dropped frames were retransmitted,
  // duplicates suppressed, reordered/delayed frames released in order.
  EXPECT_EQ(Sorted(sink->Rows()), reference);
  EXPECT_EQ(run.deployment.health, HealthState::kDegraded);
  EXPECT_GT(run.deployment.frames_dropped, 0u);
  EXPECT_GT(run.deployment.retransmits, 0u);
  EXPECT_EQ(run.deployment.frames_lost, 0u);
}

TEST(EngineFaultTolerance, DuplicateFramesAreIdempotent) {
  const std::vector<std::vector<Value>> reference = LinearReference(200);
  const Topology topo = Topology::SncbReference(1, 1e6, Millis(1));
  std::shared_ptr<CollectSink> sink;
  auto plan = MakePlacedLinearPlan(200, &sink);
  ASSERT_TRUE(plan.ok());
  ScopedProfileOverride dup("dup=0.5,seed=99");
  FaultToleranceOptions faults;
  faults.profile.duplicate_rate = 0.5;
  faults.profile.seed = 99;
  RunResult run = RunPlan(std::move(*plan), &topo, faults);
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  EXPECT_EQ(Sorted(sink->Rows()), reference);
  EXPECT_GT(run.deployment.frames_duplicated, 0u);
  EXPECT_GT(run.deployment.duplicates_suppressed, 0u);
}

TEST(EngineFaultTolerance, AdversarialReorderKeepsWindowsExact) {
  // Reference: the windowed plan, fault-free.
  std::shared_ptr<CollectSink> ref_sink;
  auto ref_plan = MakePlacedWindowPlan(200, &ref_sink);
  ASSERT_TRUE(ref_plan.ok());
  const Topology topo = Topology::SncbReference(1, 1e6, Millis(1));
  {
    ScopedProfileOverride clean("seed=1");
    RunResult ref_run = RunPlan(std::move(*ref_plan), &topo, {});
    ASSERT_TRUE(ref_run.status.ok()) << ref_run.status.ToString();
  }
  const auto reference = Sorted(ref_sink->Rows());
  ASSERT_FALSE(reference.empty());

  // Adversarial: heavy reorder + delay + drop upstream of the stateful
  // window operator. The repair buffer releases frames in sequence order
  // and the per-channel watermark clamp keeps watermarks monotonic, so
  // the window aggregation fires identically (the regression this guards:
  // a repaired frame carrying an older stored watermark must not pull the
  // operator's clock backwards and re-open fired panes).
  std::shared_ptr<CollectSink> sink;
  auto plan = MakePlacedWindowPlan(200, &sink);
  ASSERT_TRUE(plan.ok());
  ScopedProfileOverride reorder("reorder=0.4,delay=0.3,drop=0.1,seed=4321");
  FaultToleranceOptions faults;
  faults.profile.reorder_rate = 0.4;
  faults.profile.delay_rate = 0.3;
  faults.profile.drop_rate = 0.1;
  faults.profile.seed = 4321;
  RunResult run = RunPlan(std::move(*plan), &topo, faults);
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  EXPECT_EQ(Sorted(sink->Rows()), reference);
  EXPECT_GT(run.deployment.frames_reordered + run.deployment.frames_delayed,
            0u);
  EXPECT_EQ(run.deployment.frames_lost, 0u);
}

TEST(EngineFaultTolerance, EnvProfileOverridesEngineOptions) {
  const std::vector<std::vector<Value>> reference = LinearReference(100);
  const char* outer = std::getenv("NM_FAULT_PROFILE");
  const std::string saved = outer != nullptr ? outer : "";
  ASSERT_EQ(setenv("NM_FAULT_PROFILE", "drop=1.0,seed=3", 1), 0);
  const Topology topo = Topology::SncbReference(1, 1e6, Millis(1));
  std::shared_ptr<CollectSink> sink;
  auto plan = MakePlacedLinearPlan(100, &sink);
  ASSERT_TRUE(plan.ok());
  // Engine options say "reliable"; the env profile drops every frame.
  RunResult run = RunPlan(std::move(*plan), &topo, {});
  if (outer != nullptr) {
    setenv("NM_FAULT_PROFILE", saved.c_str(), 1);
  } else {
    unsetenv("NM_FAULT_PROFILE");
  }
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  EXPECT_EQ(Sorted(sink->Rows()), reference);
  EXPECT_GT(run.deployment.frames_dropped, 0u);
  EXPECT_EQ(run.deployment.frames_dropped, run.deployment.retransmits);
}

TEST(EngineFaultTolerance, MidStreamDisconnectFailsWithChannelStatus) {
  SetLogLevel(LogLevel::kOff);
  const Topology topo = Topology::SncbReference(1, 1e6, Millis(1));
  std::shared_ptr<CollectSink> sink;
  auto plan = MakePlacedWindowPlan(200, &sink);
  ASSERT_TRUE(plan.ok());
  ScopedProfileOverride disconnect("disconnect_after=3,seed=1");
  FaultToleranceOptions faults;
  faults.profile.disconnect_after_frames = 3;  // dies mid-window
  RunResult run = RunPlan(std::move(*plan), &topo, faults);
  EXPECT_EQ(run.status.code(), StatusCode::kUnavailable);
  EXPECT_NE(run.status.message().find("network channel"), std::string::npos);
  EXPECT_EQ(run.deployment.health, HealthState::kDisconnected);
  SetLogLevel(LogLevel::kWarn);
}

TEST(EngineFaultTolerance, ShedPolicySkipsUnrecoverableGaps) {
  SetLogLevel(LogLevel::kOff);
  const Topology topo = Topology::SncbReference(1, 1e6, Millis(1));
  std::shared_ptr<CollectSink> sink;
  auto plan = MakePlacedLinearPlan(200, &sink);
  ASSERT_TRUE(plan.ok());
  // The env override carries the profile; the shed policy rides on the
  // engine options either way (env never touches RetryOptions).
  ScopedProfileOverride disconnect("disconnect_after=3,seed=1");
  FaultToleranceOptions faults;
  faults.profile.disconnect_after_frames = 3;
  faults.retry.shed_policy = ShedPolicy::kDropOldest;
  RunResult run = RunPlan(std::move(*plan), &topo, faults);
  // Degradation instead of failure: the run completes, the missing tail
  // is counted, and what did arrive is a subset of the reference rows.
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  EXPECT_GT(run.deployment.frames_lost, 0u);
  const auto rows = Sorted(sink->Rows());
  const auto reference = LinearReference(200);
  EXPECT_LT(rows.size(), reference.size());
  EXPECT_TRUE(std::includes(reference.begin(), reference.end(), rows.begin(),
                            rows.end()));
  SetLogLevel(LogLevel::kWarn);
}

// --- Stateful-operator monotonicity guards -----------------------------

TEST(MonotonicityGuards, WindowAggShedsLateRecordsInsteadOfRefiring) {
  // Rows 0..15 advance the watermark past the [0,10s) pane; the final
  // out-of-order row at ts=1s lands in that already-fired pane and must
  // be shed, not re-open it.
  std::vector<std::vector<Value>> rows = MakeRows(16);
  std::vector<Value> late;
  late.emplace_back(int64_t{0});
  late.emplace_back(Seconds(1));
  late.emplace_back(99.0);
  rows.push_back(std::move(late));
  auto schema = Schema::Build()
                    .AddInt64("key")
                    .AddTimestamp("window_start")
                    .AddTimestamp("window_end")
                    .AddInt64("n")
                    .Finish();
  auto sink = std::make_shared<CollectSink>(schema);
  EngineOptions options;
  options.optimizer.enable = false;
  options.tuples_per_buffer = 8;  // the late row arrives in a later buffer
  NodeEngine engine(options);
  auto id = engine.Submit(
      Query::From(std::make_unique<MemorySource>(EventSchema(),
                                                 std::move(rows), 1, "ts"))
          .KeyBy("key")
          .TumblingWindow(Seconds(10), "ts")
          .Aggregate({AggregateSpec::Count("n")})
          .To(sink));
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  ASSERT_TRUE(engine.RunToCompletion(*id).ok());
  // No duplicate (key, window_start) pane: the late record was shed.
  auto result = sink->Rows();
  std::vector<std::pair<int64_t, int64_t>> panes;
  for (const auto& row : result) {
    panes.emplace_back(std::get<int64_t>(row[0]), std::get<int64_t>(row[1]));
  }
  std::sort(panes.begin(), panes.end());
  EXPECT_EQ(std::adjacent_find(panes.begin(), panes.end()), panes.end());
  auto stats = engine.Stats(*id);
  ASSERT_TRUE(stats.ok());
  uint64_t shed = 0;
  for (const auto& [name, op_stats] : stats->operator_stats) {
    shed += op_stats.events_shed;
  }
  EXPECT_EQ(shed, 1u);
}

// --- Worker-pool morsel shedding ---------------------------------------

// Blocks the pool's single worker until released, so the test controls
// exactly how many tasks are queued when the next post arrives.
struct WorkerGate {
  std::mutex mutex;
  std::condition_variable cv;
  bool entered = false;
  bool released = false;

  void Enter() {
    std::unique_lock<std::mutex> lock(mutex);
    entered = true;
    cv.notify_all();
    cv.wait(lock, [&] { return released; });
  }
  void AwaitEntered() {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return entered; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mutex);
    released = true;
    cv.notify_all();
  }
};

TEST(WorkerPoolShedding, DropLateRefusesNewMorsels) {
  WorkerPool pool(1, /*strand_capacity=*/1, ShedPolicy::kDropLate);
  auto strand = pool.MakeStrand();
  WorkerGate gate;
  std::atomic<int> ran{0};
  strand->Post([&] { gate.Enter(); });
  gate.AwaitEntered();  // worker busy, queue empty
  strand->Post([&] { ran += 1; });    // queued (size 1 = capacity)
  strand->Post([&] { ran += 100; });  // refused
  gate.Release();
  pool.Drain();
  EXPECT_EQ(ran.load(), 1);
  EXPECT_EQ(pool.tasks_shed(), 1u);
}

TEST(WorkerPoolShedding, DropOldestEvictsQueuedMorsel) {
  WorkerPool pool(1, /*strand_capacity=*/1, ShedPolicy::kDropOldest);
  auto strand = pool.MakeStrand();
  WorkerGate gate;
  std::atomic<int> ran{0};
  strand->Post([&] { gate.Enter(); });
  gate.AwaitEntered();
  strand->Post([&] { ran += 1; });    // queued, then evicted below
  strand->Post([&] { ran += 100; });  // evicts the previous morsel
  gate.Release();
  pool.Drain();
  EXPECT_EQ(ran.load(), 100);
  EXPECT_EQ(pool.tasks_shed(), 1u);
}

TEST(WorkerPoolShedding, BlockPolicyShedsNothing) {
  WorkerPool pool(2, /*strand_capacity=*/2);  // default kBlock
  auto strand = pool.MakeStrand();
  std::atomic<int> ran{0};
  for (int i = 0; i < 64; ++i) {
    strand->Post([&] { ran += 1; });
  }
  pool.Drain();
  EXPECT_EQ(ran.load(), 64);
  EXPECT_EQ(pool.tasks_shed(), 0u);
}

}  // namespace
}  // namespace nebulameos::nebula
