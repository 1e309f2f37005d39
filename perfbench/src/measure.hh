/**
 * @file
 * Measurement primitives of the repository benchmark: percentiles with
 * the "ten samples beyond" rule, seeded open-loop arrival schedules,
 * due-time latency, the peak-RSS reader, the order-independent grid
 * digest, and the metric report every workload fills in.
 */

#ifndef PERFBENCH_MEASURE_HH
#define PERFBENCH_MEASURE_HH

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** @return seconds between two steady-clock instants. */
inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** @return nanoseconds between two steady-clock instants. */
inline std::int64_t
nanosBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
        .count();
}

/** Batches of back-to-back reads clockReadNs() takes its median over. */
constexpr std::size_t kClockReadBatches = 31;

/**
 * Host ns of one steady-clock read: the median over kClockReadBatches
 * batches of back-to-back reads. A timed interval holds about this much
 * of the timer beyond the work it times.
 */
double clockReadNs();

/**
 * Nearest-rank quantile of `samples` (q in [0, 1]). Infinite samples
 * (failed operations) sort last, so they count as missing every limit.
 * @return 0 for an empty sample.
 */
double quantile(std::vector<double> samples, double q);

/** @return the median of `samples` (nearest rank). */
double median(std::vector<double> samples);

/**
 * The highest percentile from the ladder 50, 90, 99, 99.9, 99.99 that
 * has at least ten samples beyond it, as a fraction (0.9 for p90).
 * @return 0 when even the median lacks ten samples beyond it.
 */
double highestReportableQuantile(std::size_t samples);

/** One arrival of an open-loop schedule. */
struct Arrival
{
    double due_s = 0.0;    ///< offset from the phase start, seconds
    std::size_t index = 0; ///< request index (selects its config)
};

/**
 * Seeded Poisson arrivals at `rate_per_s` over `duration_s`, in due
 * order. Same seed, same schedule.
 */
std::vector<Arrival> poissonSchedule(std::uint64_t seed, double rate_per_s,
                                     double duration_s);

/** Timing of one open-loop request. */
struct OpenLoopSample
{
    double latency_ms = 0.0; ///< due time to reply; +inf when it failed
    double late_ms = 0.0;    ///< generator lateness: sent - max(due,
                             ///< when its connection became free)
    bool ok = false;
};

/**
 * Drive an open-loop schedule over a pool of connections, first come
 * first served: each arrival goes out on the first connection free at
 * or after its due time, through `send(arrival, connection)` (which
 * blocks until the reply and returns success). Latency runs from the
 * due time, so when every connection is busy the wait is counted (no
 * coordinated omission).
 * @return one sample per arrival, in schedule order.
 */
std::vector<OpenLoopSample>
runOpenLoop(const std::vector<Arrival> &schedule, std::size_t connections,
            const std::function<bool(const Arrival &, std::size_t)> &send);

/**
 * Peak resident set size (VmHWM) of a process, MiB.
 * @return a negative value when /proc/<pid>/status has no VmHWM line.
 */
double readPeakRssMb(pid_t pid);

/**
 * FNV-1a over (key, bytes) pairs taken in key order, so the digest of a
 * grid does not depend on the order its points ran in.
 */
std::uint64_t gridDigest(std::vector<std::pair<std::string, std::string>>
                             keyed_bytes);

/**
 * One traced span: a layer boundary the benchmark timed. Spans are kept
 * in memory and written once, when the run ends.
 */
struct Span
{
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = root
    std::string ref;           ///< point key or request id
    double start_s = 0.0;      ///< offset from the run's trace epoch
    double end_s = 0.0;
    std::map<std::string, double> attrs; ///< per-layer counts and busy ns
};

/** Write spans as a JSON array. @return false when the file failed. */
bool writeSpans(const std::string &path, const std::vector<Span> &spans);

/**
 * Host-speed probe: a fixed workload owned by the benchmark (branchy
 * integer code with dependent loads over a 4 MiB table per thread), run
 * on `threads` threads in a child process so its memory never shows in
 * the caller's peak RSS.
 * @return wall seconds of one probe slice; negative when it failed.
 */
double probeHostSeconds(unsigned threads);

/** A reported metric value with its unit and sample count. */
struct Metric
{
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0;
};

/** Everything one workload run reports. */
struct Report
{
    std::string workload;
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::map<std::string, Metric> metrics;
    std::vector<std::string> notes; ///< correctness findings, printed

    void set(const std::string &name, double value, const std::string &unit,
             std::size_t samples)
    {
        metrics[name] = Metric{value, unit, samples};
    }

    /** Record a failed correctness check covering `count` operations. */
    void mismatch(std::string what, std::uint64_t count = 1)
    {
        correct = false;
        failed += count;
        notes.push_back(std::move(what));
    }
};

} // namespace perfbench

#endif // PERFBENCH_MEASURE_HH
