/**
 * @file
 * Unit tests for src/util: RNG, statistics, tables, thread pool,
 * CRC-32.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "util/hash.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/stats.hh"
#include "util/table.hh"
#include "util/thread_pool.hh"

using namespace socflow;

// ------------------------------------------------------------------ Rng

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(same, 4);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformRangeRespectsBounds)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(-3.0, 5.5);
        EXPECT_GE(u, -3.0);
        EXPECT_LT(u, 5.5);
    }
}

TEST(Rng, UniformIntBounds)
{
    Rng rng(9);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 5000; ++i) {
        const std::uint64_t v = rng.uniformInt(7);
        EXPECT_LT(v, 7u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u);  // all outcomes reachable
}

TEST(Rng, UniformIntOneAlwaysZero)
{
    Rng rng(11);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.uniformInt(1), 0u);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(13);
    RunningStat s;
    for (int i = 0; i < 50000; ++i)
        s.add(rng.gaussian());
    EXPECT_NEAR(s.mean(), 0.0, 0.03);
    EXPECT_NEAR(s.stddev(), 1.0, 0.03);
}

TEST(Rng, GaussianScaled)
{
    Rng rng(17);
    RunningStat s;
    for (int i = 0; i < 50000; ++i)
        s.add(rng.gaussian(3.0, 0.5));
    EXPECT_NEAR(s.mean(), 3.0, 0.02);
    EXPECT_NEAR(s.stddev(), 0.5, 0.02);
}

TEST(Rng, BernoulliFrequency)
{
    Rng rng(19);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += rng.bernoulli(0.3) ? 1 : 0;
    EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, ShuffleIsPermutation)
{
    Rng rng(21);
    std::vector<int> v;
    for (int i = 0; i < 100; ++i)
        v.push_back(i);
    std::vector<int> orig = v;
    rng.shuffle(v);
    EXPECT_NE(v, orig);  // astronomically unlikely to match
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, orig);
}

TEST(Rng, SplitProducesIndependentStream)
{
    Rng a(23);
    Rng b = a.split();
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(same, 4);
}

// ---------------------------------------------------------- RunningStat

TEST(RunningStat, EmptyIsZero)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
    EXPECT_EQ(s.min(), 0.0);
    EXPECT_EQ(s.max(), 0.0);
}

TEST(RunningStat, MatchesNaiveComputation)
{
    Rng rng(31);
    std::vector<double> xs;
    RunningStat s;
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.uniform(-10, 10);
        xs.push_back(x);
        s.add(x);
    }
    double mean = 0.0;
    for (double x : xs)
        mean += x;
    mean /= xs.size();
    double var = 0.0;
    for (double x : xs)
        var += (x - mean) * (x - mean);
    var /= (xs.size() - 1);
    EXPECT_NEAR(s.mean(), mean, 1e-9);
    EXPECT_NEAR(s.variance(), var, 1e-9);
    EXPECT_EQ(s.count(), xs.size());
    EXPECT_EQ(s.min(), *std::min_element(xs.begin(), xs.end()));
    EXPECT_EQ(s.max(), *std::max_element(xs.begin(), xs.end()));
}

TEST(RunningStat, ResetClearsState)
{
    RunningStat s;
    s.add(5.0);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.sum(), 0.0);
}

TEST(PercentileTracker, NearestRank)
{
    PercentileTracker p;
    for (int i = 1; i <= 100; ++i)
        p.add(i);
    EXPECT_EQ(p.percentile(0), 1.0);
    EXPECT_EQ(p.percentile(50), 50.0);
    EXPECT_EQ(p.percentile(100), 100.0);
    EXPECT_EQ(p.percentile(99), 99.0);
}

TEST(PercentileTracker, EmptyIsZero)
{
    PercentileTracker p;
    EXPECT_EQ(p.percentile(50), 0.0);
}

TEST(Ema, FirstSampleSeeds)
{
    Ema e(0.5);
    EXPECT_FALSE(e.initialized());
    e.add(10.0);
    EXPECT_TRUE(e.initialized());
    EXPECT_EQ(e.value(), 10.0);
}

TEST(Ema, ConvergesToConstant)
{
    Ema e(0.3);
    for (int i = 0; i < 100; ++i)
        e.add(4.0);
    EXPECT_NEAR(e.value(), 4.0, 1e-9);
}

TEST(Ema, SmoothsSteps)
{
    Ema e(0.5);
    e.add(0.0);
    e.add(10.0);
    EXPECT_NEAR(e.value(), 5.0, 1e-9);
}

// ---------------------------------------------------------------- Table

TEST(Table, AlignedOutputContainsCells)
{
    Table t("demo");
    t.setHeader({"a", "bbb"});
    t.addRow({"1", "2"});
    t.addRow({"333", "4"});
    const std::string s = t.str();
    EXPECT_NE(s.find("demo"), std::string::npos);
    EXPECT_NE(s.find("333"), std::string::npos);
    EXPECT_NE(s.find("bbb"), std::string::npos);
    EXPECT_EQ(t.rowCount(), 2u);
}

TEST(Table, CsvFormat)
{
    Table t;
    t.setHeader({"x", "y"});
    t.addRow({"1", "2"});
    EXPECT_EQ(t.csv(), "x,y\n1,2\n");
}

TEST(Table, RowWidthMismatchPanics)
{
    Table t;
    t.setHeader({"a", "b"});
    EXPECT_DEATH(t.addRow({"only-one"}), "row width");
}

TEST(Format, Double)
{
    EXPECT_EQ(formatDouble(3.14159, 2), "3.14");
    EXPECT_EQ(formatDouble(-1.0, 0), "-1");
}

TEST(Format, Duration)
{
    EXPECT_EQ(formatDuration(0.5e-3), "500.0us");
    EXPECT_EQ(formatDuration(0.25), "250.0ms");
    EXPECT_EQ(formatDuration(5.0), "5.00s");
    EXPECT_EQ(formatDuration(600.0), "10.0min");
    EXPECT_EQ(formatDuration(7200.0), "2.00h");
}

TEST(Format, Bytes)
{
    EXPECT_EQ(formatBytes(100), "100B");
    EXPECT_EQ(formatBytes(2048), "2.0KiB");
    EXPECT_EQ(formatBytes(3.5 * 1024 * 1024), "3.5MiB");
}

// ----------------------------------------------------------- ThreadPool

TEST(ThreadPool, RunsAllTasks)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ParallelForCoversRange)
{
    ThreadPool pool(3);
    std::vector<std::atomic<int>> hits(50);
    pool.parallelFor(50, [&](std::size_t i) { ++hits[i]; });
    for (auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmpty)
{
    ThreadPool pool(2);
    pool.parallelFor(0, [](std::size_t) { FAIL(); });
}

TEST(ThreadPool, SizeMatchesRequest)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4u);
}

// -------------------------------------------------------------- logging

TEST(Logging, LevelGatesOutput)
{
    const LogLevel saved = logLevel();
    setLogLevel(LogLevel::Silent);
    EXPECT_EQ(logLevel(), LogLevel::Silent);
    // Nothing to assert on stderr portably; exercise the paths.
    inform("suppressed");
    warn("suppressed");
    debugLog("suppressed");
    setLogLevel(LogLevel::Debug);
    EXPECT_EQ(logLevel(), LogLevel::Debug);
    setLogLevel(saved);
}

TEST(Logging, ComposeMessageConcatenates)
{
    EXPECT_EQ(detail::composeMessage("a", 1, '-', 2.5), "a1-2.5");
    EXPECT_EQ(detail::composeMessage(), "");
}

TEST(LoggingDeath, FatalExitsWithOne)
{
    EXPECT_EXIT(fatal("boom ", 42), ::testing::ExitedWithCode(1),
                "boom 42");
}

TEST(LoggingDeath, PanicAborts)
{
    EXPECT_DEATH(panic("invariant ", "broken"), "invariant broken");
}

TEST(LoggingDeath, AssertMacroCarriesCondition)
{
    EXPECT_DEATH(SOCFLOW_ASSERT(1 == 2, "context ", 7),
                 "1 == 2.*context 7");
}

// ---------------------------------------------------------------- crc32

namespace {

/** Reference CRC-32: two 16-entry nibble lookups per byte. */
std::uint32_t
nibbleCrc32(const unsigned char *p, std::size_t len)
{
    std::uint32_t table[16];
    for (std::uint32_t i = 0; i < 16; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 4; ++k)
            c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        table[i] = c;
    }
    std::uint32_t c = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < len; ++i) {
        c = table[(c ^ p[i]) & 0x0Fu] ^ (c >> 4);
        c = table[(c ^ (p[i] >> 4)) & 0x0Fu] ^ (c >> 4);
    }
    return c ^ 0xFFFFFFFFu;
}

} // namespace

TEST(Crc32, KnownAnswers)
{
    const std::string check = "123456789";
    EXPECT_EQ(crc32(check.data(), check.size()), 0xCBF43926u);
    EXPECT_EQ(crc32(nullptr, 0), 0u);
    const std::string fox = "The quick brown fox jumps over the lazy dog";
    EXPECT_EQ(crc32(fox.data(), fox.size()), 0x414FA339u);
}

TEST(Crc32, MatchesNibbleReferenceOnRandomBuffers)
{
    Rng rng(2024);
    std::vector<unsigned char> buf(4099);
    for (auto &b : buf)
        b = static_cast<unsigned char>(rng.uniformInt(256));
    // Every length 0..64 covers each 8-byte-block/tail split, and
    // unaligned starts exercise the bytewise word assembly.
    for (std::size_t start : {0, 1, 3, 7}) {
        for (std::size_t len = 0; len <= 64; ++len)
            EXPECT_EQ(crc32(buf.data() + start, len),
                      nibbleCrc32(buf.data() + start, len))
                << "start " << start << " len " << len;
        EXPECT_EQ(crc32(buf.data() + start, buf.size() - start),
                  nibbleCrc32(buf.data() + start, buf.size() - start));
    }
}
