// Failure-injection and robustness tests: source errors mid-stream,
// logging levels, execution-context pooling, CSV parse errors, the
// all-errors root-cause model, fan-out branch failures, shared-host
// branch-failure isolation, and concurrent waiters.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>

#include "common/logging.hpp"
#include "nebula/engine.hpp"
#include "nebula/serving/shared_query_manager.hpp"

namespace nebulameos::nebula {
namespace {

Schema EventSchema() {
  return Schema::Build()
      .AddInt64("key")
      .AddTimestamp("ts")
      .AddDouble("value")
      .Finish();
}

// A source that produces `good` records and then fails.
class FailingSource : public Source {
 public:
  FailingSource(Schema schema, size_t good)
      : schema_(std::move(schema)), good_(good) {}

  const Schema& schema() const override { return schema_; }

  Result<bool> Fill(TupleBuffer* buffer) override {
    while (!buffer->full()) {
      if (produced_ >= good_) {
        return Status::Internal("sensor bus failure");
      }
      RecordWriter w = buffer->Append();
      w.SetInt64(0, 0);
      w.SetInt64(1, static_cast<Timestamp>(produced_) * Seconds(1));
      w.SetDouble(2, 0.0);
      ++produced_;
    }
    return true;
  }

 private:
  Schema schema_;
  size_t good_;
  size_t produced_ = 0;
};

TEST(EngineFailures, SourceErrorPropagatesFromWait) {
  SetLogLevel(LogLevel::kOff);  // keep the expected error quiet
  NodeEngine engine;
  auto sink = std::make_shared<CountingSink>(EventSchema());
  auto id = engine.Submit(
      Query::From(std::make_unique<FailingSource>(EventSchema(), 100))
          .To(sink));
  ASSERT_TRUE(id.ok());
  const Status status = engine.RunToCompletion(*id);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInternal);

  // The same failure feeding a fan-out plan on 4 workers: small buffers
  // keep both branch strands queued with batches when the source fails,
  // and the ingest error still comes back from Wait as the root cause.
  EngineOptions options;
  options.worker_threads = 4;
  options.tuples_per_buffer = 8;
  NodeEngine pooled(options);
  auto kept = std::make_shared<CountingSink>(EventSchema());
  auto all = std::make_shared<CountingSink>(EventSchema());
  SplitQuery split =
      Query::From(std::make_unique<FailingSource>(EventSchema(), 2000))
          .Split(2);
  std::move(split[0]).Filter(Ge(Attribute("value"), Lit(0.0))).To(kept);
  std::move(split[1]).To(all);
  auto plan = std::move(split).Build();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto fan_out = pooled.Submit(std::move(*plan));
  ASSERT_TRUE(fan_out.ok()) << fan_out.status().ToString();
  const Status pooled_status = pooled.RunToCompletion(*fan_out);
  EXPECT_EQ(pooled_status.code(), StatusCode::kInternal);
  EXPECT_NE(pooled_status.message().find("[root] sensor bus failure"),
            std::string::npos)
      << pooled_status.ToString();
  SetLogLevel(LogLevel::kWarn);
}

TEST(EngineFailures, CsvSourceRejectsMalformedRows) {
  const std::string path = "/tmp/nm_bad_csv_test.csv";
  FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("key,ts,value\n1,1000,2.5\nnot,enough\n", f);
  std::fclose(f);
  auto source = CsvSource::Open(EventSchema(), path, true, "ts");
  ASSERT_TRUE(source.ok());
  TupleBuffer buffer(EventSchema(), 16);
  auto more = (*source)->Fill(&buffer);
  EXPECT_FALSE(more.ok());
  std::remove(path.c_str());
}

TEST(EngineFailures, CsvSourceRejectsBadNumbers) {
  const std::string path = "/tmp/nm_bad_csv_numbers.csv";
  FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("key,ts,value\nabc,1000,2.5\n", f);
  std::fclose(f);
  auto source = CsvSource::Open(EventSchema(), path, true, "ts");
  ASSERT_TRUE(source.ok());
  TupleBuffer buffer(EventSchema(), 16);
  EXPECT_FALSE((*source)->Fill(&buffer).ok());
  std::remove(path.c_str());
}

TEST(EngineFailures, CsvSourceMissingFile) {
  EXPECT_FALSE(
      CsvSource::Open(EventSchema(), "/tmp/does-not-exist-nm.csv").ok());
}

TEST(EngineFailures, CsvSinkBadPath) {
  EXPECT_FALSE(
      CsvSink::Open(EventSchema(), "/no/such/dir/nm-out.csv").ok());
}

TEST(ExecutionContextTest, PoolsPerSchemaAndReuses) {
  ExecutionContext ctx(/*tuples_per_buffer=*/8, /*pool_size=*/4);
  const Schema a = EventSchema();
  const Schema b = Schema::Build().AddInt64("x").Finish();
  TupleBufferPtr buf_a = ctx.Allocate(a);
  TupleBufferPtr buf_b = ctx.Allocate(b);
  EXPECT_EQ(buf_a->capacity(), 8u);
  EXPECT_TRUE(buf_a->schema() == a);
  EXPECT_TRUE(buf_b->schema() == b);
  // Returned buffers come back reset.
  buf_a->Append();
  buf_a->set_watermark(5);
  buf_a.reset();
  TupleBufferPtr again = ctx.Allocate(a);
  EXPECT_TRUE(again->empty());
  EXPECT_EQ(again->watermark(), 0);
}

TEST(Logging, LevelsGateEmission) {
  const LogLevel original = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  // These must not crash and must be cheap when below the level.
  NM_LOG_DEBUG() << "dropped " << 42;
  NM_LOG_INFO() << "dropped too";
  SetLogLevel(LogLevel::kOff);
  NM_LOG_ERROR() << "also dropped at kOff";
  SetLogLevel(original);
}

TEST(EngineFailures, EmptySourceCompletesCleanly) {
  NodeEngine engine;
  auto source = std::make_unique<MemorySource>(
      EventSchema(), std::vector<std::vector<Value>>{}, 1, "ts");
  auto sink = std::make_shared<CountingSink>(EventSchema());
  auto id = engine.Submit(Query::From(std::move(source))
                              .Filter(Gt(Attribute("value"), Lit(0.0)))
                              .To(sink));
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(engine.RunToCompletion(*id).ok());
  EXPECT_EQ(sink->events(), 0u);
}

// A sink that accepts `good` events and then fails every Consume.
class FailingSink : public SinkOperator {
 public:
  FailingSink(Schema schema, uint64_t good)
      : SinkOperator(std::move(schema)), good_(good) {}
  std::string name() const override { return "FailingSink"; }

 protected:
  Status Consume(const exec::Batch& batch) override {
    if (consumed_.fetch_add(batch.NumRows()) >= good_) {
      return Status::Internal("downstream store rejected the write");
    }
    return Status::OK();
  }

 private:
  uint64_t good_;
  std::atomic<uint64_t> consumed_{0};
};

std::vector<std::vector<Value>> FailureRows(int n) {
  std::vector<std::vector<Value>> rows;
  for (int i = 0; i < n; ++i) {
    rows.push_back({Value(int64_t{i % 3}), Value(Seconds(i)),
                    Value(static_cast<double>(i))});
  }
  return rows;
}

SourcePtr SharedNamedSource(int n) {
  auto src = std::make_unique<MemorySource>(EventSchema(), FailureRows(n), 1,
                                            "ts");
  src->SetLogicalName("trains");
  return src;
}

TEST(EngineFailures, RootCauseCarriesTaskPath) {
  SetLogLevel(LogLevel::kOff);
  NodeEngine engine;
  auto sink = std::make_shared<CountingSink>(EventSchema());
  auto id = engine.Submit(
      Query::From(std::make_unique<FailingSource>(EventSchema(), 100))
          .To(sink));
  ASSERT_TRUE(id.ok());
  const Status status = engine.RunToCompletion(*id);
  ASSERT_FALSE(status.ok());
  // The all-errors model tags every recorded failure with its task path
  // and reports the first *root* cause (non-Cancelled) with that path.
  EXPECT_NE(status.message().find("[root]"), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("sensor bus failure"), std::string::npos);
  SetLogLevel(LogLevel::kWarn);
}

// One member of a shared host fails mid-stream (its sink rejects writes):
// the failed branch detaches with a descriptive Status while the sibling
// member and the shared ingest keep running to completion.
void RunSharedHostBranchIsolation(size_t workers) {
  SetLogLevel(LogLevel::kOff);
  EngineOptions options;
  options.worker_threads = workers;
  options.tuples_per_buffer = 8;
  NodeEngine engine(options);
  serving::SharedQueryManager manager(&engine);

  auto healthy_sink = std::make_shared<CollectSink>(EventSchema());
  auto healthy = manager.Submit(Query::From(SharedNamedSource(200))
                                    .Filter(Ge(Attribute("value"), Lit(0.0)))
                                    .To(healthy_sink));
  ASSERT_TRUE(healthy.ok()) << healthy.status().ToString();
  auto failing_sink = std::make_shared<FailingSink>(EventSchema(), 32);
  auto failing = manager.Submit(Query::From(SharedNamedSource(200))
                                    .Filter(Ge(Attribute("value"), Lit(0.0)))
                                    .To(failing_sink));
  ASSERT_TRUE(failing.ok()) << failing.status().ToString();
  ASSERT_EQ(manager.NumHostedPlans(), 1u);  // one shared host for both

  ASSERT_TRUE(manager.Start(*healthy).ok());
  // The host completes despite the failed branch...
  EXPECT_TRUE(manager.Wait(*healthy).ok());
  // ...the healthy member saw the whole stream...
  EXPECT_EQ(healthy_sink->RowCount(), 200u);
  // ...and the failed member's owner sees its branch's own failure,
  // carrying the detachment context.
  const Status failed = manager.Wait(*failing);
  EXPECT_FALSE(failed.ok());
  EXPECT_NE(failed.message().find("detached"), std::string::npos)
      << failed.ToString();
  EXPECT_NE(failed.message().find("downstream store rejected"),
            std::string::npos)
      << failed.ToString();
  // Its stats stay readable after the branch detached.
  const auto failing_stats = manager.Stats(*failing);
  EXPECT_TRUE(failing_stats.ok()) << failing_stats.status().ToString();
  // Cancelling the already-failed member is clean (idempotent detach).
  EXPECT_TRUE(manager.Cancel(*failing).ok());
  EXPECT_TRUE(manager.Cancel(*healthy).ok());
  SetLogLevel(LogLevel::kWarn);
}

TEST(EngineFailures, SharedHostIsolatesFailedBranchSingleWorker) {
  RunSharedHostBranchIsolation(1);
}

TEST(EngineFailures, SharedHostIsolatesFailedBranchFourWorkers) {
  RunSharedHostBranchIsolation(4);
}

// A submitted fan-out whose branch-1 sink fails: the query fails with the
// branch's path, inline at one worker as posted at four, and every later
// hand-off is skipped, so the status carries no secondary error.
void RunFanOutBranchFailure(size_t workers) {
  SetLogLevel(LogLevel::kOff);
  EngineOptions options;
  options.worker_threads = workers;
  options.tuples_per_buffer = 8;
  NodeEngine engine(options);
  auto healthy = std::make_shared<CountingSink>(EventSchema());
  SplitQuery split = Query::From(SharedNamedSource(200)).Split(2);
  std::move(split[0]).To(healthy);
  std::move(split[1]).To(std::make_shared<FailingSink>(EventSchema(), 32));
  auto plan = std::move(split).Build();
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto id = engine.Submit(std::move(*plan));
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  const Status status = engine.RunToCompletion(*id);
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_EQ(status.message(), "[1] downstream store rejected the write")
      << status.ToString();
  SetLogLevel(LogLevel::kWarn);
}

TEST(EngineFailures, FanOutBranchFailureCarriesBranchPathSingleWorker) {
  RunFanOutBranchFailure(1);
}

TEST(EngineFailures, FanOutBranchFailureCarriesBranchPathFourWorkers) {
  RunFanOutBranchFailure(4);
}

// Calls every `waits[i]` on its own thread and returns their statuses,
// or nullopt when a waiter is still blocked after 20 s. The waiters run
// detached, so a hang fails the test instead of stalling the suite.
std::optional<std::vector<Status>> WaitConcurrently(
    std::vector<std::function<Status()>> waits) {
  struct Shared {
    std::mutex mu;
    std::condition_variable cv;
    std::vector<Status> statuses;
    size_t done = 0;
  };
  auto shared = std::make_shared<Shared>();
  shared->statuses.resize(waits.size());
  for (size_t i = 0; i < waits.size(); ++i) {
    std::thread([shared, i, wait = std::move(waits[i])] {
      const Status st = wait();
      std::lock_guard<std::mutex> lock(shared->mu);
      shared->statuses[i] = st;
      ++shared->done;
      shared->cv.notify_all();
    }).detach();
  }
  std::unique_lock<std::mutex> lock(shared->mu);
  if (!shared->cv.wait_for(lock, std::chrono::seconds(20), [&shared] {
        return shared->done == shared->statuses.size();
      })) {
    return std::nullopt;
  }
  return shared->statuses;
}

TEST(EngineFailures, ConcurrentWaitersOnOneQueryAllReturn) {
  auto engine = std::make_unique<NodeEngine>();
  auto sink = std::make_shared<CountingSink>(EventSchema());
  auto id = engine->Submit(
      Query::From(std::make_unique<MemorySource>(EventSchema(),
                                                 FailureRows(2000), 1, "ts"))
          .To(sink));
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  ASSERT_TRUE(engine->Start(*id).ok());
  NodeEngine* e = engine.get();
  const auto wait = [e, query = *id] { return e->Wait(query); };
  const auto statuses = WaitConcurrently({wait, wait});
  if (!statuses) {
    (void)engine.release();  // a waiter still holds it
    FAIL() << "a concurrent Wait did not return";
  }
  for (const Status& st : *statuses) EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(sink->events(), 2000u);
}

// Two clients of one shared host wait on their own threads: both reach
// the host's Wait, and both get their own branch's status.
TEST(EngineFailures, SharedHostClientsWaitConcurrently) {
  auto engine = std::make_unique<NodeEngine>();
  auto manager = std::make_unique<serving::SharedQueryManager>(engine.get());
  auto sink_a = std::make_shared<CountingSink>(EventSchema());
  auto sink_b = std::make_shared<CountingSink>(EventSchema());
  auto a = manager->Submit(Query::From(SharedNamedSource(2000))
                               .Filter(Ge(Attribute("value"), Lit(0.0)))
                               .To(sink_a));
  auto b = manager->Submit(Query::From(SharedNamedSource(2000))
                               .Filter(Ge(Attribute("value"), Lit(0.0)))
                               .To(sink_b));
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(manager->NumHostedPlans(), 1u);
  ASSERT_TRUE(manager->Start(*a).ok());
  serving::SharedQueryManager* m = manager.get();
  const auto statuses = WaitConcurrently(
      {[m, vid = *a] { return m->Wait(vid); },
       [m, vid = *b] { return m->Wait(vid); }});
  if (!statuses) {
    (void)manager.release();  // a waiter still holds them
    (void)engine.release();
    FAIL() << "a concurrent client Wait did not return";
  }
  for (const Status& st : *statuses) EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(sink_a->events(), 2000u);
  EXPECT_EQ(sink_b->events(), 2000u);
}

// EngineOptions::tuples_per_buffer outside [1, 2^32 - 1] is refused by
// Submit and SubmitShared before anything compiles or allocates: at 0 the
// ingest loop would spin on zero-row buffers, and above UINT32_MAX
// selection-vector row indices would truncate.
TEST(EngineFailures, OutOfRangeTuplesPerBufferRejected) {
  for (const size_t tuples : {size_t{0}, size_t{1} << 32}) {
    EngineOptions options;
    options.tuples_per_buffer = tuples;
    NodeEngine engine(options);
    auto sink = std::make_shared<CountingSink>(EventSchema());
    auto plain = engine.Submit(Query::From(SharedNamedSource(10)).To(sink));
    ASSERT_FALSE(plain.ok()) << tuples;
    EXPECT_EQ(plain.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(plain.status().message().find("tuples_per_buffer"),
              std::string::npos)
        << plain.status().ToString();

    LogicalPlan prefix;
    prefix.SetSource(SharedNamedSource(10));
    auto shared = engine.SubmitShared(std::move(prefix));
    ASSERT_FALSE(shared.ok()) << tuples;
    EXPECT_EQ(shared.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(shared.status().message().find("tuples_per_buffer"),
              std::string::npos)
        << shared.status().ToString();
  }
  // One record per buffer is in range and runs.
  EngineOptions one;
  one.tuples_per_buffer = 1;
  NodeEngine engine(one);
  auto sink = std::make_shared<CountingSink>(EventSchema());
  auto id = engine.Submit(Query::From(SharedNamedSource(10)).To(sink));
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_TRUE(engine.RunToCompletion(*id).ok());
  EXPECT_EQ(sink->events(), 10u);
}

TEST(EngineFailures, DoubleStartRejected) {
  NodeEngine engine;
  auto source = std::make_unique<MemorySource>(
      EventSchema(), std::vector<std::vector<Value>>{{Value(int64_t{1}),
                                                      Value(int64_t{1}),
                                                      Value(1.0)}},
      1, "ts");
  auto sink = std::make_shared<CountingSink>(EventSchema());
  auto id = engine.Submit(Query::From(std::move(source)).To(sink));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(engine.Start(*id).ok());
  EXPECT_FALSE(engine.Start(*id).ok());
  EXPECT_TRUE(engine.Wait(*id).ok());
}

}  // namespace
}  // namespace nebulameos::nebula
