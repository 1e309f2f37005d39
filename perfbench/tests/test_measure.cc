/**
 * @file
 * Tests of the benchmark's own measurement code: the percentile rule,
 * due-time latency, seeded schedules, the RSS reader, the grid-digest
 * pin and the timer-cost probe.
 */

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <thread>

#include "measure.hh"
#include "workloads.hh"

using namespace perfbench;

TEST(Percentile, ReportsHighestWithTenSamplesBeyond)
{
    EXPECT_EQ(highestReportableQuantile(0), 0.0);
    EXPECT_EQ(highestReportableQuantile(19), 0.0);
    EXPECT_EQ(highestReportableQuantile(20), 0.5);
    EXPECT_EQ(highestReportableQuantile(99), 0.5);
    EXPECT_EQ(highestReportableQuantile(100), 0.9);
    EXPECT_EQ(highestReportableQuantile(999), 0.9);
    EXPECT_EQ(highestReportableQuantile(1000), 0.99);
    EXPECT_EQ(highestReportableQuantile(9999), 0.99);
    EXPECT_EQ(highestReportableQuantile(10000), 0.999);
}

TEST(Percentile, NearestRankAndFailuresSortLast)
{
    std::vector<double> v;
    for (int i = 1; i <= 100; ++i)
        v.push_back(i);
    EXPECT_EQ(quantile(v, 0.5), 50.0);
    EXPECT_EQ(quantile(v, 0.9), 90.0);
    EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_EQ(quantile({}, 0.9), 0.0);

    // Ten failed operations push p90 past every finite latency.
    for (int i = 0; i < 10; ++i)
        v[static_cast<std::size_t>(i)] =
            std::numeric_limits<double>::infinity();
    EXPECT_EQ(quantile(v, 0.9), 100.0);
    v[10] = std::numeric_limits<double>::infinity();
    EXPECT_TRUE(std::isinf(quantile(v, 0.9)));
}

TEST(OpenLoop, LatencyRunsFromDueTimeUnderADelayedReply)
{
    // Five arrivals 10 ms apart on one connection; every reply takes
    // 30 ms. Request i is due at 10i ms but can only start when request
    // i-1 replied, at 30i ms, so it completes at 30(i+1) ms.
    std::vector<Arrival> schedule;
    for (std::size_t i = 0; i < 5; ++i)
        schedule.push_back(Arrival{0.010 * static_cast<double>(i), i});
    const auto samples =
        runOpenLoop(schedule, 1, [](const Arrival &, std::size_t) {
            std::this_thread::sleep_for(std::chrono::milliseconds(30));
            return true;
        });
    ASSERT_EQ(samples.size(), 5u);
    for (std::size_t i = 0; i < 5; ++i) {
        const double expect = 30.0 * static_cast<double>(i + 1)
            - 10.0 * static_cast<double>(i);
        EXPECT_TRUE(samples[i].ok);
        EXPECT_GE(samples[i].latency_ms, expect - 1.0) << i;
        EXPECT_LT(samples[i].latency_ms, expect + 25.0) << i;
        // The connection was busy, not the generator late.
        EXPECT_LT(samples[i].late_ms, 10.0) << i;
    }
}

TEST(OpenLoop, FreeConnectionTakesTheNextArrival)
{
    // Two connections, replies take 30 ms, arrivals at 0, 0 and 10 ms:
    // the third waits for the first free connection (at 30 ms), not for
    // a fixed one, and its wait counts from its due time.
    const std::vector<Arrival> schedule = {
        Arrival{0.0, 0}, Arrival{0.0, 1}, Arrival{0.010, 2}};
    const auto samples =
        runOpenLoop(schedule, 2, [](const Arrival &, std::size_t) {
            std::this_thread::sleep_for(std::chrono::milliseconds(30));
            return true;
        });
    EXPECT_GE(samples[2].latency_ms, 50.0 - 1.0);
    EXPECT_LT(samples[2].latency_ms, 50.0 + 25.0);
}

TEST(OpenLoop, FailedRequestMissesEveryLimit)
{
    const std::vector<Arrival> schedule = {Arrival{0.0, 0},
                                           Arrival{0.0, 1}};
    const auto samples =
        runOpenLoop(schedule, 2, [](const Arrival &a, std::size_t) {
            return a.index == 0;
        });
    EXPECT_TRUE(samples[0].ok);
    EXPECT_FALSE(samples[1].ok);
    EXPECT_TRUE(std::isinf(samples[1].latency_ms));
}

TEST(Schedule, SameSeedSameInputsOtherSeedOtherInputs)
{
    const auto a = poissonSchedule(7, 100.0, 5.0);
    const auto b = poissonSchedule(7, 100.0, 5.0);
    const auto c = poissonSchedule(8, 100.0, 5.0);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].due_s, b[i].due_s);
    EXPECT_TRUE(a.size() != c.size() || a[0].due_s != c[0].due_s);
    // About rate x duration arrivals, in due order.
    EXPECT_GT(a.size(), 400u);
    EXPECT_LT(a.size(), 600u);
    for (std::size_t i = 1; i < a.size(); ++i) {
        EXPECT_GT(a[i].due_s, a[i - 1].due_s);
        EXPECT_EQ(a[i].index, i);
    }

    const auto x = coldSpecs(7, 50);
    const auto y = coldSpecs(7, 50);
    const auto z = coldSpecs(8, 50);
    bool differs = false;
    for (std::size_t i = 0; i < x.size(); ++i) {
        EXPECT_EQ(x[i].benchmark, y[i].benchmark);
        EXPECT_EQ(x[i].policy, y[i].policy);
        EXPECT_EQ(x[i].measure_cycles, y[i].measure_cycles);
        differs |= x[i].benchmark != z[i].benchmark
            || x[i].policy != z[i].policy;
        if (i > 0) {
            EXPECT_NE(x[i].measure_cycles, x[i - 1].measure_cycles);
        }
    }
    EXPECT_TRUE(differs);
}

TEST(Rss, ReaderSeesTouchedMemory)
{
    const double before = readPeakRssMb(getpid());
    ASSERT_GT(before, 0.0);
    constexpr std::size_t kBytes = 64u << 20;
    std::vector<char> block(kBytes);
    std::memset(block.data(), 1, kBytes);
    const double after = readPeakRssMb(getpid());
    EXPECT_GE(after - before, 60.0);
    EXPECT_GT(block[kBytes / 2], 0);
    EXPECT_LT(readPeakRssMb(-1), 0.0);
}

TEST(ClockRead, CostIsPositiveAndBelowAMicrosecond)
{
    const double ns = clockReadNs();
    EXPECT_GT(ns, 0.0);
    EXPECT_LT(ns, 1000.0);

    // A timed interval around nothing holds about one read.
    std::vector<double> empty;
    for (int i = 0; i < 1001; ++i) {
        const Clock::time_point a = Clock::now();
        const Clock::time_point b = Clock::now();
        empty.push_back(static_cast<double>(nanosBetween(a, b)));
    }
    EXPECT_LT(median(empty), 4.0 * ns + 50.0);
}

TEST(GridDigest, PinDoesNotDependOnPointOrder)
{
    std::vector<std::pair<std::string, std::string>> grid = {
        {"176.gcc/PID", "alpha"},
        {"164.gzip/none", "beta"},
        {"179.art/PI", "gamma"},
    };
    const std::uint64_t d = gridDigest(grid);
    std::swap(grid[0], grid[2]);
    EXPECT_EQ(gridDigest(grid), d);
    std::swap(grid[0], grid[1]);
    EXPECT_EQ(gridDigest(grid), d);
    grid[1].second[0] = 'B';
    EXPECT_NE(gridDigest(grid), d);
}

TEST(GridDigest, PinsFileLookup)
{
    const std::string path = ::testing::TempDir() + "perfbench_pins.txt";
    {
        std::ofstream out(path);
        out << "# comment line\npaper_grid 00000000000000ff\n"
               "chip16 0123456789abcdef\n";
    }
    EXPECT_EQ(pinnedDigest(path, "paper_grid"), 0xffu);
    EXPECT_EQ(pinnedDigest(path, "chip16"), 0x0123456789abcdefu);
    EXPECT_EQ(pinnedDigest(path, "serve_split"), 0u);
    EXPECT_EQ(pinnedDigest(path + ".missing", "chip16"), 0u);
}
