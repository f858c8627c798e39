#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <future>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "util/csv.hpp"
#include "util/retry.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace abg::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng r(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.uniform_int(2, 5);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 5);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);
}

TEST(Rng, UniformIntDegenerateRange) {
  Rng r(3);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(r.uniform_int(9, 9), 9);
}

TEST(Rng, NormalHasRoughMoments) {
  Rng r(11);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal(1.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 1.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(Rng, ChanceExtremes) {
  Rng r(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
  }
}

TEST(Rng, ExponentialPositiveWithRoughMean) {
  Rng r(13);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = r.exponential(2.0);
    EXPECT_GT(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / n, 0.5, 0.05);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng r(17);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  r.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(Rng, SampleIndicesDistinct) {
  Rng r(19);
  auto idx = r.sample_indices(10, 5);
  ASSERT_EQ(idx.size(), 5u);
  std::set<std::size_t> s(idx.begin(), idx.end());
  EXPECT_EQ(s.size(), 5u);
  for (auto i : idx) EXPECT_LT(i, 10u);
}

TEST(Rng, SampleIndicesCapsAtN) {
  Rng r(19);
  EXPECT_EQ(r.sample_indices(3, 10).size(), 3u);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(23);
  Rng child = a.fork();
  EXPECT_NE(a.next_u64(), child.next_u64());
}

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 100; ++i) {
    futs.push_back(pool.submit([&count] { count.fetch_add(1); }));
  }
  for (auto& f : futs) f.get();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ReturnsValues) {
  ThreadPool pool(2);
  auto f = pool.submit([] { return 41 + 1; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, ParallelForCoversIndices) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(64);
  pool.parallel_for(64, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForZeroIsNoop) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL(); });
}

TEST(ThreadPool, PropagatesExceptionsThroughFuture) {
  ThreadPool pool(1);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(Csv, RoundTripsSimpleRows) {
  CsvWriter w;
  w.add_row({"a", "b", "c"});
  w.add_row({"1", "2", "3"});
  auto rows = parse_csv(w.str());
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"1", "2", "3"}));
}

TEST(Csv, QuotesFieldsWithSeparators) {
  CsvWriter w;
  w.add_row({"x,y", "plain", "has\"quote"});
  auto rows = parse_csv(w.str());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], "x,y");
  EXPECT_EQ(rows[0][2], "has\"quote");
}

TEST(Csv, NumericRowsRoundTripPrecisely) {
  CsvWriter w;
  w.add_row_numeric({1.0 / 3.0, 1e-9, 123456789.123});
  auto rows = parse_csv(w.str());
  ASSERT_EQ(rows[0].size(), 3u);
  EXPECT_NEAR(std::stod(rows[0][0]), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(std::stod(rows[0][1]), 1e-9, 1e-18);
}

// Trace CSVs are written through append_number; it must print exactly what
// "%.12g" prints, or saved traces (and every search on them) would change.
TEST(Csv, AppendNumberPrintsLikePrintfG12) {
  std::vector<double> values = {0.0,    -0.0,   1.0,    -1.0,     0.1,      1.0 / 3.0,
                                1e-9,   1e21,   1e-300, 5e-324,   1448.0,   123456789.123,
                                1e12,   1e11,   999999999999.5, 0.04, 10e6, 2.5e-5,
                                std::numeric_limits<double>::infinity(),
                                -std::numeric_limits<double>::infinity(),
                                std::numeric_limits<double>::quiet_NaN(),
                                std::numeric_limits<double>::max(),
                                std::numeric_limits<double>::denorm_min()};
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 2000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    double d;
    std::memcpy(&d, &x, sizeof d);
    values.push_back(d);
    values.push_back(static_cast<double>(x % 100000000) / 1000.0);
  }
  for (double v : values) {
    char want[64];
    std::snprintf(want, sizeof want, "%.12g", v);
    std::string got;
    append_number(got, v);
    EXPECT_EQ(got, want) << std::hexfloat << v;
  }
}

TEST(Csv, ParsesCrlf) {
  auto rows = parse_csv("a,b\r\nc,d\r\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1][1], "d");
}

TEST(Stopwatch, MeasuresElapsedTime) {
  Stopwatch sw;
  EXPECT_GE(sw.elapsed_seconds(), 0.0);
  sw.reset();
  EXPECT_LT(sw.elapsed_seconds(), 1.0);
}

// --- util::Retry under a deterministic clock (ISSUE 8 satellite) ------------

TEST(Retry, SucceedsWithoutSleepingWhenFirstAttemptPasses) {
  std::vector<double> sleeps;
  RetryPolicy policy;
  policy.max_attempts = 5;
  Retry retry(policy, [&](double s) { sleeps.push_back(s); });
  int calls = 0;
  const Status st = retry.run([&] {
    ++calls;
    return Status::ok();
  });
  EXPECT_TRUE(st.is_ok());
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(sleeps.empty());
}

TEST(Retry, BackoffScheduleIsExponentialCappedAndDeterministic) {
  RetryPolicy policy;
  policy.max_attempts = 6;
  policy.initial_backoff_s = 0.1;
  policy.multiplier = 2.0;
  policy.max_backoff_s = 0.5;
  policy.jitter_frac = 0.0;  // exact schedule
  std::vector<double> sleeps;
  Retry retry(policy, [&](double s) { sleeps.push_back(s); });
  int calls = 0;
  const Status st = retry.run([&] {
    ++calls;
    return Status(StatusCode::kIoError, "transient");
  });
  EXPECT_FALSE(st.is_ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_EQ(calls, 6);
  // 0.1, 0.2, 0.4, then capped at 0.5 — one delay per retry (5 of them).
  ASSERT_EQ(sleeps.size(), 5u);
  EXPECT_DOUBLE_EQ(sleeps[0], 0.1);
  EXPECT_DOUBLE_EQ(sleeps[1], 0.2);
  EXPECT_DOUBLE_EQ(sleeps[2], 0.4);
  EXPECT_DOUBLE_EQ(sleeps[3], 0.5);
  EXPECT_DOUBLE_EQ(sleeps[4], 0.5);
  // Exhaustion is reported in the message so operators see the budget.
  EXPECT_NE(st.message().find("after 6 attempts"), std::string::npos);
}

TEST(Retry, JitterStaysWithinConfiguredBandAndIsSeeded) {
  RetryPolicy policy;
  policy.initial_backoff_s = 1.0;
  policy.multiplier = 1.0;
  policy.max_backoff_s = 10.0;
  policy.jitter_frac = 0.25;
  policy.seed = 99;
  Retry a(policy), b(policy);
  for (int attempt = 1; attempt <= 20; ++attempt) {
    const double da = a.backoff_s(attempt);
    EXPECT_GE(da, 0.75);
    EXPECT_LE(da, 1.25);
    // Same seed => same jitter stream (deterministic schedules in tests).
    EXPECT_DOUBLE_EQ(da, b.backoff_s(attempt));
  }
}

TEST(Retry, NonRetryableCodeFailsImmediately) {
  std::vector<double> sleeps;
  RetryPolicy policy;
  policy.max_attempts = 5;
  Retry retry(policy, [&](double s) { sleeps.push_back(s); });
  int calls = 0;
  const Status st = retry.run([&] {
    ++calls;
    return Status(StatusCode::kInvalidArgument, "permanent");
  });
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(sleeps.empty());
  // No "after N attempts" context: the retry loop never engaged.
  EXPECT_EQ(st.message(), "permanent");
}

TEST(Retry, RecoversWhenALaterAttemptSucceeds) {
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.jitter_frac = 0.0;
  Retry retry(policy, [](double) {});
  int calls = 0;
  const Status st = retry.run([&] {
    return ++calls < 3 ? Status(StatusCode::kIoError, "flaky") : Status::ok();
  });
  EXPECT_TRUE(st.is_ok());
  EXPECT_EQ(calls, 3);
}

}  // namespace
}  // namespace abg::util
