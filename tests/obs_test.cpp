// Unit coverage for the observability layer (src/obs/): metric
// registry semantics, the sharded counter's exactness under contention,
// histogram `le` bucket boundaries, the Prometheus exposition golden
// text, structured-log formatting, and Chrome trace JSON structure.
#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace scoris::obs {
namespace {

// ---------------------------------------------------------------------------
// Counter

TEST(CounterTest, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(CounterTest, ConcurrentIncrementsSumExactly) {
  // The sharded cells trade snapshot atomicity for contention-free
  // increments; the total must still be exact once writers quiesce.
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.inc();
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(c.value(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

// ---------------------------------------------------------------------------
// Gauge

TEST(GaugeTest, SetAddSubMax) {
  Gauge g;
  EXPECT_EQ(g.value(), 0);
  g.add(5);
  g.sub(2);
  EXPECT_EQ(g.value(), 3);
  g.set(-7);
  EXPECT_EQ(g.value(), -7);
  g.max_of(10);
  EXPECT_EQ(g.value(), 10);
  g.max_of(4);  // smaller: no effect
  EXPECT_EQ(g.value(), 10);
}

// ---------------------------------------------------------------------------
// Histogram

TEST(HistogramTest, BoundaryValueLandsInItsLeBucket) {
  // Prometheus `le` semantics: an observation exactly equal to a bound
  // belongs to that bucket, not the next one.
  Histogram h({1.0, 2.0, 4.0});
  h.observe(1.0);  // le="1"
  h.observe(2.0);  // le="2"
  h.observe(2.5);  // le="4"
  h.observe(4.0);  // le="4"
  h.observe(9.0);  // +Inf
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 2u);
  EXPECT_EQ(h.bucket_count(3), 1u);  // overflow slot
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 1.0 + 2.0 + 2.5 + 4.0 + 9.0);
}

TEST(HistogramTest, RejectsUnsortedBounds) {
  EXPECT_THROW(Histogram({2.0, 1.0}), std::logic_error);
  EXPECT_THROW(Histogram({1.0, 1.0}), std::logic_error);
}

TEST(HistogramTest, LatencyBucketsAreStrictlyAscending) {
  const std::vector<double> b = latency_buckets();
  ASSERT_FALSE(b.empty());
  for (std::size_t i = 1; i < b.size(); ++i) EXPECT_LT(b[i - 1], b[i]);
}

// ---------------------------------------------------------------------------
// Registry

TEST(RegistryTest, DeduplicatesByName) {
  Registry r;
  Counter& a = r.counter("x_total", "help");
  Counter& b = r.counter("x_total");
  EXPECT_EQ(&a, &b);
  a.inc();
  EXPECT_EQ(b.value(), 1u);
}

TEST(RegistryTest, KindMismatchThrows) {
  Registry r;
  r.counter("thing");
  EXPECT_THROW(r.gauge("thing"), std::logic_error);
  EXPECT_THROW(r.histogram("thing", "", {1.0}), std::logic_error);
}

TEST(RegistryTest, PrometheusExpositionGoldenText) {
  Registry r;
  r.counter("zz_requests_total", "Requests served").inc(3);
  r.gauge("aa_depth", "Queue depth").set(-2);
  Histogram& h = r.histogram("mm_seconds", "Latency", {0.5, 1});
  h.observe(0.25);
  h.observe(0.25);
  h.observe(3.0);
  // Name-ordered, HELP before TYPE, cumulative buckets, +Inf last.
  const std::string expected =
      "# HELP aa_depth Queue depth\n"
      "# TYPE aa_depth gauge\n"
      "aa_depth -2\n"
      "# HELP mm_seconds Latency\n"
      "# TYPE mm_seconds histogram\n"
      "mm_seconds_bucket{le=\"0.5\"} 2\n"
      "mm_seconds_bucket{le=\"1\"} 2\n"
      "mm_seconds_bucket{le=\"+Inf\"} 3\n"
      "mm_seconds_sum 3.5\n"
      "mm_seconds_count 3\n"
      "# HELP zz_requests_total Requests served\n"
      "# TYPE zz_requests_total counter\n"
      "zz_requests_total 3\n";
  EXPECT_EQ(r.render_prometheus(), expected);
}

TEST(RegistryTest, GlobalRegistryExposesDaemonMetricNames) {
  // The daemon/engine use-sites register lazily on first use, but the
  // registry itself must accept the full inventory and render it.
  Registry& g = Registry::global();
  g.counter("obs_test_probe_total", "Probe").inc();
  const std::string text = g.render_prometheus();
  EXPECT_NE(text.find("obs_test_probe_total"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Logger

TEST(LogTest, ParseAndNameRoundTrip) {
  EXPECT_EQ(parse_log_level("error"), LogLevel::kError);
  EXPECT_EQ(parse_log_level("warn"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("info"), LogLevel::kInfo);
  EXPECT_EQ(parse_log_level("debug"), LogLevel::kDebug);
  EXPECT_FALSE(parse_log_level("INFO").has_value());
  EXPECT_FALSE(parse_log_level("verbose").has_value());
  EXPECT_EQ(log_level_name(LogLevel::kWarn), "WARN");
}

TEST(LogTest, LineFormatTimestampLevelMessageFields) {
  std::ostringstream out;
  Logger logger(out);
  logger.info("query served", {kv("conn", 3), kv("seconds", 0.5)});
  const std::string line = out.str();
  // 2026-08-08T12:34:56.789Z INFO query served conn=3 seconds=0.5
  ASSERT_GE(line.size(), 25u);
  EXPECT_EQ(line[4], '-');
  EXPECT_EQ(line[10], 'T');
  EXPECT_EQ(line[23], 'Z');
  EXPECT_NE(line.find(" INFO query served conn=3 seconds=0.5\n"),
            std::string::npos);
}

TEST(LogTest, ValuesWithSpacesAreQuotedAndEscaped) {
  std::ostringstream out;
  Logger logger(out);
  logger.warn("oops", {kv("reason", std::string("busy \"now\"\n"))});
  EXPECT_NE(out.str().find("reason=\"busy \\\"now\\\"\\n\""),
            std::string::npos);
}

TEST(LogTest, LevelFilteringSuppressesBelowThreshold) {
  std::ostringstream out;
  Logger logger(out, LogLevel::kWarn);
  logger.info("hidden");
  logger.debug("hidden too");
  EXPECT_TRUE(out.str().empty());
  logger.error("shown");
  EXPECT_NE(out.str().find("ERROR shown"), std::string::npos);
  EXPECT_TRUE(logger.enabled(LogLevel::kWarn));
  EXPECT_FALSE(logger.enabled(LogLevel::kInfo));
}

TEST(Log, LevelGateStored) {
  std::ostringstream out;
  Logger logger(out);
  EXPECT_EQ(logger.level(), LogLevel::kInfo);
  logger.set_level(LogLevel::kError);
  EXPECT_EQ(logger.level(), LogLevel::kError);
  EXPECT_FALSE(logger.enabled(LogLevel::kWarn));
  logger.set_level(LogLevel::kDebug);
  EXPECT_EQ(logger.level(), LogLevel::kDebug);
  EXPECT_TRUE(logger.enabled(LogLevel::kDebug));
}

TEST(Log, EmitFunctionsDoNotCrash) {
  std::ostringstream out;
  Logger logger(out, LogLevel::kError);
  logger.debug("debug", {kv("n", 1)});
  logger.info("info", {kv("x", 2.5)});
  logger.warn("warn", {kv("s", "x")});
  EXPECT_TRUE(out.str().empty());
  logger.set_level(LogLevel::kDebug);
  logger.debug("debug", {kv("n", 1)});
  logger.info("info", {kv("x", 2.5)});
  logger.warn("warn", {kv("s", "x")});
  logger.error("error");
  EXPECT_NE(out.str().find("DEBUG debug n=1\n"), std::string::npos);
  EXPECT_NE(out.str().find("INFO info x=2.5\n"), std::string::npos);
  EXPECT_NE(out.str().find("WARN warn s=x\n"), std::string::npos);
  EXPECT_NE(out.str().find("ERROR error\n"), std::string::npos);
}

TEST(LogTest, Rfc3339TimestampShape) {
  const std::string ts = rfc3339_utc_now();
  ASSERT_EQ(ts.size(), 24u);  // YYYY-MM-DDTHH:MM:SS.mmmZ
  EXPECT_EQ(ts[4], '-');
  EXPECT_EQ(ts[7], '-');
  EXPECT_EQ(ts[10], 'T');
  EXPECT_EQ(ts[13], ':');
  EXPECT_EQ(ts[16], ':');
  EXPECT_EQ(ts[19], '.');
  EXPECT_EQ(ts[23], 'Z');
}

// ---------------------------------------------------------------------------
// Tracing

TEST(TraceTest, NullRecorderSpansAreNoOps) {
  Span outer(nullptr, "index");
  outer.finish();  // must not crash
}

TEST(TraceTest, SpansRecordNameGroupAndOrdering) {
  TraceRecorder rec;
  {
    Span s1(&rec, "index", "bank1");
    s1.finish();
    Span s2(&rec, "scan", "g0+");
  }  // s2 records at destruction
  const std::vector<TraceEvent> events = rec.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "index");
  EXPECT_EQ(events[0].group, "bank1");
  EXPECT_EQ(events[1].name, "scan");
  EXPECT_LE(events[0].start_micros,
            events[1].start_micros + events[1].duration_micros);
}

TEST(TraceTest, FinishIsIdempotent) {
  TraceRecorder rec;
  {
    Span s(&rec, "merge", "global");
    s.finish();
    s.finish();
  }  // destructor must not double-record
  EXPECT_EQ(rec.events().size(), 1u);
}

TEST(TraceTest, ChromeJsonShape) {
  TraceRecorder rec;
  { Span s(&rec, "scan", "g0+"); }
  { Span s(&rec, "ga\"pped"); }  // name needing escaping
  const std::string json = rec.to_chrome_json();
  EXPECT_EQ(json.find("{\"traceEvents\":["), 0u);
  EXPECT_NE(json.find("\"name\":\"scan\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"scoris\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"group\":\"g0+\"}"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"ga\\\"pped\""), std::string::npos);
}

TEST(TraceTest, ThreadsGetStableSmallIds) {
  TraceRecorder rec;
  { Span s(&rec, "main1"); }
  std::thread worker([&rec] { Span s(&rec, "worker"); });
  worker.join();
  { Span s(&rec, "main2"); }
  const std::vector<TraceEvent> events = rec.events();
  ASSERT_EQ(events.size(), 3u);
  int main_tid = -1;
  int worker_tid = -1;
  for (const TraceEvent& e : events) {
    if (e.name == "worker") {
      worker_tid = e.tid;
    } else {
      if (main_tid == -1) main_tid = e.tid;
      EXPECT_EQ(e.tid, main_tid);  // both main spans share an id
    }
  }
  EXPECT_NE(main_tid, worker_tid);
}

// Lock-discipline audit regression (PR 10): max_of's CAS loop must
// converge on the true maximum under contention — compare_exchange_weak
// refreshes `cur` on failure and the loop exits as soon as cur >= v, so
// no thread can regress the gauge or spin forever.  Each thread also
// drives values in *descending* order to exercise the early-exit arm.
TEST(GaugeTest, MaxOfConvergesUnderContention) {
  Gauge gauge;
  constexpr int kThreads = 8;
  constexpr std::int64_t kPerThread = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&gauge, t] {
      for (std::int64_t v = kPerThread; v >= 1; --v) {
        gauge.max_of(t * kPerThread + v);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(gauge.value(), (kThreads - 1) * kPerThread + kPerThread);
}

// Logger::set_level vs enabled() is an atomic handoff (PR 10 fixed a
// plain-field data race there): concurrent level flips while another
// thread logs must neither tear nor deadlock, and the final level wins.
TEST(LoggerTest, ConcurrentSetLevelWhileLogging) {
  std::ostringstream out;
  Logger logger(out, LogLevel::kInfo);
  std::thread flipper([&logger] {
    for (int i = 0; i < 2000; ++i) {
      logger.set_level(i % 2 == 0 ? LogLevel::kDebug : LogLevel::kError);
    }
    logger.set_level(LogLevel::kWarn);
  });
  for (int i = 0; i < 2000; ++i) {
    logger.info("spin", {kv("i", i)});
  }
  flipper.join();
  EXPECT_EQ(logger.level(), LogLevel::kWarn);
  EXPECT_FALSE(logger.enabled(LogLevel::kInfo));
  EXPECT_TRUE(logger.enabled(LogLevel::kError));
}

}  // namespace
}  // namespace scoris::obs
