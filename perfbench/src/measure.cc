#include "measure.hh"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <thread>

#include "common/hash.hh"

namespace perfbench
{

namespace
{

/** Nearest rank of quantile q in n samples (1-based), robust to q*n
 * landing a rounding error above an integer (0.99 * 1000). */
std::size_t
nearestRank(double q, std::size_t n)
{
    return static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n) - 1e-9));
}

} // namespace

double
clockReadNs()
{
    constexpr int kReads = 10000;
    std::vector<double> per_read;
    for (std::size_t b = 0; b < kClockReadBatches; ++b) {
        const Clock::time_point first = Clock::now();
        Clock::time_point last = first;
        for (int i = 0; i < kReads; ++i)
            last = Clock::now();
        per_read.push_back(static_cast<double>(nanosBetween(first, last))
                           / kReads);
    }
    return median(std::move(per_read));
}

double
quantile(std::vector<double> samples, double q)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const std::size_t rank = nearestRank(q, samples.size());
    return samples[std::clamp<std::size_t>(rank, 1, samples.size()) - 1];
}

double
median(std::vector<double> samples)
{
    return quantile(std::move(samples), 0.5);
}

double
highestReportableQuantile(std::size_t samples)
{
    static constexpr double kLadder[] = {0.5, 0.9, 0.99, 0.999, 0.9999};
    double best = 0.0;
    for (double q : kLadder) {
        // Samples strictly above the nearest-rank position of q.
        if (samples >= nearestRank(q, samples) + 10)
            best = q;
    }
    return best;
}

std::vector<Arrival>
poissonSchedule(std::uint64_t seed, double rate_per_s, double duration_s)
{
    std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ULL);
    std::vector<Arrival> out;
    double t = 0.0;
    for (;;) {
        // Uniform in (0, 1] from the top 53 bits, then an exponential gap.
        const double u =
            (static_cast<double>(rng() >> 11) + 1.0) * 0x1.0p-53;
        t += -std::log(u) / rate_per_s;
        if (t >= duration_s)
            break;
        out.push_back(Arrival{t, out.size()});
    }
    return out;
}

std::vector<OpenLoopSample>
runOpenLoop(const std::vector<Arrival> &schedule, std::size_t connections,
            const std::function<bool(const Arrival &, std::size_t)> &send)
{
    std::vector<OpenLoopSample> samples(schedule.size());
    std::atomic<std::size_t> next{0};
    const Clock::time_point start = Clock::now();
    auto worker = [&](std::size_t conn) {
        Clock::time_point free_at = start;
        for (;;) {
            // A free connection claims the earliest unsent arrival.
            const std::size_t i = next.fetch_add(1);
            if (i >= schedule.size())
                return;
            const Clock::time_point due =
                start
                + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(schedule[i].due_s));
            std::this_thread::sleep_until(due);
            const Clock::time_point sent = Clock::now();
            const bool ok = send(schedule[i], conn);
            const Clock::time_point done = Clock::now();
            OpenLoopSample &s = samples[i];
            s.ok = ok;
            s.late_ms = std::max(
                0.0, secondsBetween(std::max(due, free_at), sent) * 1e3);
            s.latency_ms = ok ? secondsBetween(due, done) * 1e3
                              : std::numeric_limits<double>::infinity();
            free_at = done;
        }
    };
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < connections; ++c)
        threads.emplace_back(worker, c);
    for (auto &t : threads)
        t.join();
    return samples;
}

double
readPeakRssMb(pid_t pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream fields(line.substr(6));
            double kib = -1.0;
            fields >> kib;
            return kib < 0.0 ? -1.0 : kib / 1024.0;
        }
    }
    return -1.0;
}

std::uint64_t
gridDigest(std::vector<std::pair<std::string, std::string>> keyed_bytes)
{
    std::sort(keyed_bytes.begin(), keyed_bytes.end());
    thermctl::HashStream h;
    for (const auto &[key, bytes] : keyed_bytes)
        h.str(key).str(bytes);
    return h.digest();
}

namespace
{

/** One thread's share of the probe; returns a value to keep it live. */
std::uint64_t
probeWork(std::uint64_t seed)
{
    std::vector<std::uint64_t> table(std::size_t{1} << 19);
    for (std::size_t i = 0; i < table.size(); ++i)
        table[i] = i * 0x9e3779b97f4a7c15ULL;
    const std::size_t mask = table.size() - 1;
    std::uint64_t x = seed, acc = 0, idx = 0;
    for (long i = 0; i < 12000000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        idx = (idx + (table[idx] ^ x)) & mask;
        if (x & 1)
            acc += table[idx] >> 3;
        else
            acc ^= table[(idx * 7) & mask];
        if ((x >> 5) % 3 == 0)
            table[idx] += acc;
    }
    return acc;
}

} // namespace

double
probeHostSeconds(unsigned threads)
{
    int fds[2];
    if (pipe(fds) != 0)
        return -1.0;
    const pid_t pid = fork();
    if (pid < 0) {
        close(fds[0]);
        close(fds[1]);
        return -1.0;
    }
    if (pid == 0) {
        close(fds[0]);
        std::vector<std::uint64_t> sink(threads);
        const Clock::time_point t0 = Clock::now();
        std::vector<std::thread> pool;
        for (unsigned t = 0; t < threads; ++t)
            pool.emplace_back([&sink, t] { sink[t] = probeWork(t + 1); });
        for (auto &th : pool)
            th.join();
        double s = secondsBetween(t0, Clock::now());
        if (sink[0] == 0x5eed)
            s += 1e-12; // keeps the probe's result observable
        const bool ok = write(fds[1], &s, sizeof(s)) == sizeof(s);
        _exit(ok ? 0 : 1);
    }
    close(fds[1]);
    double s = -1.0;
    if (read(fds[0], &s, sizeof(s)) != sizeof(s))
        s = -1.0;
    close(fds[0]);
    int status = 0;
    waitpid(pid, &status, 0);
    return s;
}

bool
writeSpans(const std::string &path, const std::vector<Span> &spans)
{
    std::ofstream out(path);
    out.precision(12);
    out << "[\n";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        out << "  {\"name\": \"" << s.name << "\", \"id\": " << s.id
            << ", \"parent\": " << s.parent << ", \"ref\": \"" << s.ref
            << "\", \"start_s\": " << s.start_s << ", \"end_s\": "
            << s.end_s;
        for (const auto &[k, v] : s.attrs)
            out << ", \"" << k << "\": " << v;
        out << (i + 1 < spans.size() ? "},\n" : "}\n");
    }
    out << "]\n";
    return static_cast<bool>(out);
}

} // namespace perfbench
