/**
 * @file
 * serve_split: the built thermctl_serve daemon driven through
 * ServeClient in two phases that never overlap. Hot is a closed loop
 * of cache hits (the read path); cold is a seeded open loop of unique
 * requests at a fixed rate (the write path: queue, engine, publish).
 */

#include <sched.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <mutex>
#include <random>
#include <thread>

#include "common/logging.hh"
#include "mirror.hh"
#include "serve/client.hh"
#include "serve/scheduler.hh"
#include "workload/spec_profiles.hh"
#include "workloads.hh"

namespace perfbench
{

using namespace thermctl;
using namespace thermctl::serve;

namespace
{

constexpr std::size_t kConnections = 2;
constexpr int kSetupReps = 5;

/** Hot pool: fixed, so set-up does the same work on every seed. */
constexpr std::size_t kHotPool = 16;
constexpr std::uint64_t kHotWarmup = 10000;
constexpr std::uint64_t kHotMeasure = 30000;

/** Cold request i measures kColdMeasure + i cycles: every one unique. */
constexpr std::uint64_t kColdWarmup = 4000;
constexpr std::uint64_t kColdMeasure = 12000;

/**
 * Cold arrivals per second: about 0.4 of the daemon's cold capacity (two
 * engine threads at ~13 ms of service per request, ~150 req/s) on the
 * 4-vCPU reference machine, a little under half so that queueing does
 * not amplify host-speed noise. A constant on purpose: deriving it at run
 * time would let the offered load follow the code under test.
 */
constexpr double kColdRate = 60.0;

/** Share of the timed phase given to the hot loop. */
constexpr double kHotShare = 0.25;

/** Hot/cold rounds per run. */
constexpr int kRounds = 4;

/** A cold reply later than this after its due time is a deadline miss. */
constexpr double kColdLimitMs = 2000.0;

/** Cold replies re-simulated in-process and byte-compared. */
constexpr std::size_t kColdRecheck = 6;

/** Bounds for readiness and for the drain before SIGKILL. */
constexpr double kReadyTimeoutS = 20.0;
constexpr double kDrainBoundS = 20.0;

PointSpec
hotSpec(std::size_t i)
{
    const std::vector<std::string> names = specProfileNames();
    PointSpec p;
    p.benchmark = names[i % names.size()];
    p.policy = dtmPolicyKindName(kAllPolicies[i % kAllPolicies.size()]);
    p.warmup_cycles = kHotWarmup;
    p.measure_cycles = kHotMeasure;
    return p;
}

RunRequest
request(const PointSpec &p)
{
    RunRequest r;
    r.point = p;
    return r;
}

/**
 * One spawned daemon. The destructor reaps it on every exit path:
 * SIGTERM starts a graceful drain, SIGKILL follows after kDrainBoundS.
 */
class Daemon
{
  public:
    Daemon(const RunOptions &opts, int rep)
        : dir_(opts.tmp_dir + "/daemon" + std::to_string(rep)),
          socket_(dir_ + "/s.sock")
    {
        std::filesystem::create_directories(dir_ + "/cache");
        const std::string log = dir_ + "/daemon.log";
        std::vector<std::string> args = {
            opts.daemon_path, "--socket", socket_, "--cache-dir",
            dir_ + "/cache", "--jobs", "1", "--dispatchers", "2",
            "--workers", "2"};
        pid_ = fork();
        if (pid_ < 0)
            fatal("perfbench: fork failed");
        if (pid_ == 0) {
            if (!freopen(log.c_str(), "w", stderr))
                _exit(127);
            std::vector<char *> argv;
            for (auto &a : args)
                argv.push_back(a.data());
            argv.push_back(nullptr);
            execv(argv[0], argv.data());
            _exit(127);
        }
    }

    ~Daemon() { stop(); }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    const std::string &socket() const { return socket_; }
    std::string cacheDir() const { return dir_ + "/cache"; }
    pid_t pid() const { return pid_; }

    /** Connect and ping until the daemon answers. */
    ServeClient
    waitReady()
    {
        const Clock::time_point t0 = Clock::now();
        while (secondsBetween(t0, Clock::now()) < kReadyTimeoutS) {
            std::string error;
            ServeClient c = ServeClient::tryConnect(socket_, 200, error);
            PingReply ping;
            if (c.connected() && c.ping(ping, error))
                return c;
            int status = 0;
            if (waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                fatal("perfbench: thermctl_serve exited during start-up; "
                      "see ", dir_, "/daemon.log");
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        fatal("perfbench: thermctl_serve not ready after ", kReadyTimeoutS,
              " s");
    }

    /** Ask for a graceful drain without waiting for it. */
    void
    requestDrain()
    {
        if (pid_ > 0 && !drain_sent_) {
            kill(pid_, SIGTERM);
            drain_sent_ = true;
        }
    }

    /**
     * Drain and reap, SIGKILL after the bound.
     * @return seconds from the drain request to exit (negative when it
     * had to be killed or was already gone).
     */
    double
    stop()
    {
        if (pid_ <= 0)
            return -1.0;
        const Clock::time_point t0 = Clock::now();
        requestDrain();
        double took = -1.0;
        while (secondsBetween(t0, Clock::now()) < kDrainBoundS) {
            int status = 0;
            if (waitpid(pid_, &status, WNOHANG) == pid_) {
                took = secondsBetween(t0, Clock::now());
                pid_ = -1;
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        if (pid_ > 0) {
            kill(pid_, SIGKILL);
            waitpid(pid_, nullptr, 0);
            pid_ = -1;
        }
        std::error_code ec;
        std::filesystem::remove_all(dir_, ec);
        return took;
    }

  private:
    std::string dir_;
    std::string socket_;
    pid_t pid_ = -1;
    bool drain_sent_ = false;
};

/**
 * CPU placement of the two phases. A closed loop of ~100 us round trips
 * spread over several vCPUs is bound by cross-CPU wake-up latency, which
 * on a shared virtual machine swings throughput 4x from run to run. With
 * the daemon and the client on one CPU, hot_rps measures the read path's
 * CPU cost instead. For a cold round the daemon moves to the other CPUs:
 * widening a mask would leave its threads stacked on the hot CPU until
 * the load balancer happened to spread them, while a mask that excludes
 * that CPU forces an immediate, spread-out migration.
 */
class Placement
{
  public:
    Placement()
    {
        cpu_set_t all;
        CPU_ZERO(&all);
        if (sched_getaffinity(0, sizeof(all), &all) != 0)
            fatal("perfbench: sched_getaffinity failed");
        CPU_ZERO(&hot_);
        for (int c = CPU_SETSIZE - 1; c >= 0; --c) {
            if (CPU_ISSET(c, &all)) {
                CPU_SET(c, &hot_);
                break;
            }
        }
        cold_ = all;
        if (CPU_COUNT(&all) > 1)
            CPU_XOR(&cold_, &all, &hot_);
    }

    const cpu_set_t &hot() const { return hot_; }
    const cpu_set_t &cold() const { return cold_; }

    /** Apply `set` to every thread of process `pid`. */
    static void
    pin(pid_t pid, const cpu_set_t &set)
    {
        const std::string dir = "/proc/" + std::to_string(pid) + "/task";
        std::error_code ec;
        for (const auto &e : std::filesystem::directory_iterator(dir, ec)) {
            const pid_t tid = std::stoi(e.path().filename().string());
            (void)sched_setaffinity(tid, sizeof(set), &set);
        }
    }

  private:
    cpu_set_t hot_;
    cpu_set_t cold_;
};

/** A started daemon with its prefilled hot pool and open connections. */
struct Stack
{
    std::unique_ptr<Daemon> daemon;
    std::vector<ServeClient> conns;
    std::vector<std::string> pool_bytes; ///< prefill result per hot spec
};

/** Set-up: spawn, first Ping reply, hot-pool prefill, connections. */
Stack
setUp(const RunOptions &opts, int rep, Report &report)
{
    Stack s;
    s.daemon = std::make_unique<Daemon>(opts, rep);
    s.conns.push_back(s.daemon->waitReady());
    while (s.conns.size() < kConnections)
        s.conns.push_back(ServeClient::connect(s.daemon->socket()));

    s.pool_bytes.resize(kHotPool);
    std::vector<std::thread> fill;
    std::mutex mu;
    for (std::size_t c = 0; c < kConnections; ++c) {
        fill.emplace_back([&, c] {
            for (std::size_t i = c; i < kHotPool; i += kConnections) {
                PointReply r;
                try {
                    r = s.conns[c].run(request(hotSpec(i)));
                } catch (const FatalError &e) {
                    r.error = ServeError::Transport;
                    r.message = e.what();
                }
                std::lock_guard<std::mutex> lock(mu);
                ++report.attempted;
                if (r.error != ServeError::None || r.cache_hit) {
                    report.mismatch("prefill of hot config "
                                    + std::to_string(i) + " failed: "
                                    + serveErrorName(r.error) + " "
                                    + r.message);
                } else {
                    s.pool_bytes[i] = serializeRunResult(r.result);
                }
            }
        });
    }
    for (auto &t : fill)
        t.join();
    return s;
}

/** The spans of a traced run; ids are positions + 1. */
class SpanLog
{
  public:
    explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {}

    std::uint64_t
    open(std::string name, std::uint64_t parent, std::string ref)
    {
        std::lock_guard<std::mutex> lock(mu_);
        spans_.push_back(Span{std::move(name), spans_.size() + 1, parent,
                              std::move(ref), offset(Clock::now()), 0.0,
                              {}});
        return spans_.size();
    }

    void
    close(std::uint64_t id)
    {
        std::lock_guard<std::mutex> lock(mu_);
        spans_[id - 1].end_s = offset(Clock::now());
    }

    void
    add(std::string name, std::uint64_t parent, std::string ref,
        Clock::time_point start, Clock::time_point end,
        std::map<std::string, double> attrs)
    {
        std::lock_guard<std::mutex> lock(mu_);
        spans_.push_back(Span{std::move(name), spans_.size() + 1, parent,
                              std::move(ref), offset(start), offset(end),
                              std::move(attrs)});
    }

    double
    offset(Clock::time_point t) const
    {
        return secondsBetween(epoch_, t);
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    Clock::time_point epoch_;
    std::mutex mu_;
    std::vector<Span> spans_;
};

/** What the hot loop saw, summed over connections and rounds. */
struct HotTally
{
    std::uint64_t sent = 0;
    /** Replies that were an error, not a cache hit, or not byte-equal to
     * their prefill result. Only the other replies count as completed. */
    std::uint64_t failed = 0;
    std::vector<double> window_rps;    ///< completions per window / window
    std::vector<double> round_trip_us; ///< traced only

    void
    add(const HotTally &o)
    {
        sent += o.sent;
        failed += o.failed;
        window_rps.insert(window_rps.end(), o.window_rps.begin(),
                          o.window_rps.end());
        round_trip_us.insert(round_trip_us.end(), o.round_trip_us.begin(),
                             o.round_trip_us.end());
    }
};

/** Client-side layer calls of the hot path, timed apart from the loop. */
struct HotLayers
{
    std::uint64_t calls = 0;
    std::uint64_t failed = 0;
    std::int64_t encode_ns = 0, decode_ns = 0, digest_ns = 0;
    std::int64_t lookup_ns = 0, result_decode_ns = 0;
};

/** Passes over the hot pool after each traced round. */
constexpr std::size_t kLayerPasses = 64;

/** Hot throughput is counted in windows of this length; hot_rps is the
 * median window, so a burst of host noise moves few windows. */
constexpr double kWindowS = 0.25;

/** The hot pool as requests, and the reply payload each should get. */
struct HotPool
{
    std::vector<RunRequest> reqs;
    std::vector<std::string> reply_payloads;
};

/** Time the client-visible layers one hot request passes through. */
void
timeHotLayers(const Stack &s, const HotPool &pool, std::size_t i,
              HotLayers &t)
{
    auto a = Clock::now();
    const std::string enc = pool.reqs[i].encode();
    auto b = Clock::now();
    t.encode_ns += nanosBetween(a, b);
    RunReply decoded;
    a = Clock::now();
    const bool decoded_ok = RunReply::decode(pool.reply_payloads[i], decoded);
    b = Clock::now();
    t.decode_ns += nanosBetween(a, b);
    const ResolvedPoint pt = resolvePoint(pool.reqs[i].point, SimConfig{});
    a = Clock::now();
    const std::uint64_t digest = sweepConfigDigest(pt.config, pt.proto);
    b = Clock::now();
    t.digest_ns += nanosBetween(a, b);
    RunResult cached;
    a = Clock::now();
    const bool hit = sweepCacheLookup(s.daemon->cacheDir(), digest, cached);
    b = Clock::now();
    t.lookup_ns += nanosBetween(a, b);
    a = Clock::now();
    const RunResultDecodeStatus st =
        deserializeRunResult(s.pool_bytes[i], cached);
    b = Clock::now();
    t.result_decode_ns += nanosBetween(a, b);
    ++t.calls;
    if (!decoded_ok || !hit || enc.empty()
        || st != RunResultDecodeStatus::Ok)
        ++t.failed;
}

/**
 * One hot segment: a closed loop on every connection for `seconds`.
 * Each connection owns half the pool, so no two requests in flight
 * share a digest and none is coalesced: every reply is a cache lookup.
 * Only good cache-hit replies count as completed. When `traced`, each
 * round trip is also timed and logged as a span.
 */
HotTally
hotSegment(Stack &s, const HotPool &pool, const Placement &place,
           std::uint64_t seed, double seconds, bool traced, SpanLog &log,
           std::uint64_t parent)
{
    Placement::pin(s.daemon->pid(), place.hot());
    std::vector<HotTally> tally(kConnections);
    std::vector<std::vector<double>> done_s(kConnections);
    const Clock::time_point start = Clock::now();
    const Clock::time_point end =
        start
        + std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(seconds));
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kConnections; ++c) {
        threads.emplace_back([&, c] {
            (void)sched_setaffinity(0, sizeof(place.hot()), &place.hot());
            std::mt19937_64 rng(seed * 31 + c);
            HotTally &t = tally[c];
            while (Clock::now() < end) {
                const std::size_t i =
                    c + kConnections * (rng() % (kHotPool / kConnections));
                const Clock::time_point a = Clock::now();
                bool ok = false;
                try {
                    const PointReply r = s.conns[c].run(pool.reqs[i]);
                    ok = r.error == ServeError::None && r.cache_hit
                        && serializeRunResult(r.result) == s.pool_bytes[i];
                } catch (const FatalError &) {
                    ok = false;
                }
                const Clock::time_point b = Clock::now();
                ++t.sent;
                if (!ok) {
                    ++t.failed;
                    continue;
                }
                done_s[c].push_back(secondsBetween(start, b));
                if (traced) {
                    t.round_trip_us.push_back(secondsBetween(a, b) * 1e6);
                    log.add("serve.client.run", parent,
                            "hot-" + std::to_string(c) + "-"
                                + std::to_string(t.sent),
                            a, b, {{"pool_index", static_cast<double>(i)}});
                }
            }
        });
    }
    for (auto &th : threads)
        th.join();
    Placement::pin(s.daemon->pid(), place.cold());

    HotTally out;
    for (const HotTally &t : tally)
        out.add(t);
    const auto windows = static_cast<std::size_t>(seconds / kWindowS);
    std::vector<double> count(windows, 0.0);
    for (const auto &conn : done_s) {
        for (double d : conn) {
            const auto w = static_cast<std::size_t>(d / kWindowS);
            if (w < windows)
                count[w] += 1.0;
        }
    }
    for (double n : count)
        out.window_rps.push_back(n / kWindowS);
    return out;
}

/** Server-side latency sum and count between two StatsReply snapshots. */
struct ServerLatency
{
    double sum_ms = 0.0;
    double count = 0.0;

    void
    add(const StatsReply &a, const StatsReply &b)
    {
        sum_ms += b.latency_mean_ms * static_cast<double>(b.latency_count)
            - a.latency_mean_ms * static_cast<double>(a.latency_count);
        count += static_cast<double>(b.latency_count)
            - static_cast<double>(a.latency_count);
    }

    double mean() const { return count > 0.0 ? sum_ms / count : 0.0; }
};

} // namespace

std::vector<PointSpec>
coldSpecs(std::uint64_t seed, std::size_t count)
{
    const std::vector<std::string> names = specProfileNames();
    std::mt19937_64 rng(seed * 0x2545f4914f6cdd1dULL + 17);
    std::vector<PointSpec> out(count);
    for (std::size_t i = 0; i < count; ++i) {
        out[i].benchmark = names[rng() % names.size()];
        out[i].policy =
            dtmPolicyKindName(kAllPolicies[rng() % kAllPolicies.size()]);
        out[i].warmup_cycles = kColdWarmup;
        out[i].measure_cycles = kColdMeasure + i;
    }
    return out;
}

Report
runServeSplit(const RunOptions &opts)
{
    Report report;
    report.workload = opts.workload;
    SpanLog log(Clock::now());

    // Set-up, repeated: earlier stacks are told to drain at once and
    // reaped when the run ends; the last one is measured.
    std::vector<double> setup_s;
    std::vector<std::unique_ptr<Daemon>> retired;
    Stack stack;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        if (stack.daemon) {
            stack.conns.clear();
            stack.daemon->requestDrain();
            retired.push_back(std::move(stack.daemon));
        }
        const Clock::time_point t0 = Clock::now();
        stack = setUp(opts, rep, report);
        setup_s.push_back(secondsBetween(t0, Clock::now()));
    }
    if (!report.correct)
        return report;

    HotPool pool;
    for (std::size_t i = 0; i < kHotPool; ++i) {
        pool.reqs.push_back(request(hotSpec(i)));
        RunReply reply;
        (void)deserializeRunResult(stack.pool_bytes[i], reply.point.result);
        reply.point.cache_hit = true;
        pool.reply_payloads.push_back(reply.encode());
    }

    // The phases alternate in rounds and never overlap: hot, then cold,
    // then hot again. Spreading each phase over the whole run averages
    // slow stretches of a shared host into every metric alike.
    const double hot_round_s = opts.seconds * kHotShare / kRounds;
    const double cold_round_s = opts.seconds * (1.0 - kHotShare) / kRounds;
    const std::vector<Arrival> schedule =
        poissonSchedule(opts.seed, kColdRate, cold_round_s * kRounds);
    const std::vector<PointSpec> cold = coldSpecs(opts.seed,
                                                  schedule.size());
    std::vector<std::string> cold_bytes(schedule.size());
    std::vector<OpenLoopSample> samples(schedule.size());

    const Placement place;
    HotTally plain, traced;
    HotLayers layers;
    ServerLatency hot_server, cold_server;
    const StatsReply first = stack.conns[0].stats();
    StatsReply before = first;
    std::uint64_t hot_hits_server = 0;
    for (int round = 0; round < kRounds; ++round) {
        // A traced run alternates untraced and traced hot rounds; their
        // throughput ratio is the tracing overhead.
        const bool trace_round = opts.trace && round % 2 == 1;
        const std::uint64_t hot_span = log.open(
            trace_round ? "phase.hot.traced" : "phase.hot", 0,
            "round-" + std::to_string(round));
        const HotTally t = hotSegment(stack, pool, place, opts.seed + round,
                                      hot_round_s, trace_round, log,
                                      hot_span);
        log.close(hot_span);
        (trace_round ? traced : plain).add(t);
        // The client-side layers are timed in a pass of their own, so a
        // traced round differs from an untraced one only by its spans.
        for (std::size_t k = 0; trace_round && k < kLayerPasses * kHotPool;
             ++k)
            timeHotLayers(stack, pool, k % kHotPool, layers);
        const StatsReply after_hot = stack.conns[0].stats();
        hot_server.add(before, after_hot);
        hot_hits_server += after_hot.cache_hits - before.cache_hits;

        std::vector<Arrival> sub;
        const double lo = round * cold_round_s;
        for (const Arrival &a : schedule) {
            if (a.due_s >= lo && a.due_s < lo + cold_round_s) {
                sub.push_back(a);
                sub.back().due_s -= lo;
            }
        }
        const std::uint64_t cold_span =
            log.open("phase.cold", 0, "round-" + std::to_string(round));
        const Clock::time_point cold_start = Clock::now();
        const std::vector<OpenLoopSample> got = runOpenLoop(
            sub, kConnections, [&](const Arrival &a, std::size_t conn) {
                try {
                    const PointReply r =
                        stack.conns[conn].run(request(cold[a.index]));
                    if (r.error != ServeError::None || r.cache_hit)
                        return false;
                    cold_bytes[a.index] = serializeRunResult(r.result);
                    return true;
                } catch (const FatalError &) {
                    return false;
                }
            });
        log.close(cold_span);
        for (std::size_t k = 0; k < sub.size(); ++k) {
            samples[sub[k].index] = got[k];
            if (opts.trace) {
                const auto due =
                    cold_start
                    + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(sub[k].due_s));
                const auto done =
                    due
                    + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(
                            got[k].ok ? got[k].latency_ms / 1e3 : 0.0));
                log.add("serve.client.run", cold_span,
                        "cold-" + std::to_string(sub[k].index), due, done,
                        {{"late_ms", got[k].late_ms},
                         {"ok", got[k].ok ? 1.0 : 0.0}});
            }
        }
        before = stack.conns[0].stats();
        cold_server.add(after_hot, before);
    }
    const StatsReply last = before;

    const double rss_mb = readPeakRssMb(stack.daemon->pid());

    HotTally hot = plain;
    hot.add(traced);
    report.attempted += hot.sent;
    if (hot.failed) {
        report.mismatch(std::to_string(hot.failed)
                            + " hot replies were errors, cache misses or "
                              "differ from their prefill result",
                        hot.failed);
    }
    report.attempted += layers.calls;
    if (layers.failed) {
        report.mismatch(std::to_string(layers.failed)
                            + " hot layer calls failed to encode, decode "
                              "or find the cached result",
                        layers.failed);
    }

    // Cold percentiles are taken per round; the reported value is their
    // median over rounds, so one round that met a slow stretch of a
    // shared host does not move it. A failed request is +inf.
    std::vector<std::vector<double>> round_ms(kRounds);
    std::vector<double> latency_ms, late_ms;
    std::uint64_t cold_refused = 0;
    for (std::size_t i = 0; i < samples.size(); ++i) {
        OpenLoopSample s = samples[i];
        ++report.attempted;
        if (!s.ok) {
            ++cold_refused;
        } else if (s.latency_ms > kColdLimitMs) {
            s.ok = false; // a deadline miss: failed, but not a wrong output
            ++report.failed;
        }
        const double ms =
            s.ok ? s.latency_ms : std::numeric_limits<double>::infinity();
        latency_ms.push_back(ms);
        late_ms.push_back(s.late_ms);
        const auto round = std::min<std::size_t>(
            kRounds - 1,
            static_cast<std::size_t>(schedule[i].due_s / cold_round_s));
        round_ms[round].push_back(ms);
    }
    if (cold_refused) {
        report.mismatch(std::to_string(cold_refused)
                            + " cold requests failed, were refused or were "
                              "answered from the cache",
                        cold_refused);
    }
    const auto roundMedian = [&](double q) {
        std::vector<double> per_round;
        for (const auto &r : round_ms)
            per_round.push_back(quantile(r, q));
        return median(per_round);
    };

    // Re-simulate a seeded sample of cold replies in-process.
    std::vector<std::size_t> recheck(schedule.size());
    for (std::size_t i = 0; i < recheck.size(); ++i)
        recheck[i] = i;
    std::shuffle(recheck.begin(), recheck.end(),
                 std::mt19937_64(opts.seed + 99));
    recheck.resize(std::min(kColdRecheck, recheck.size()));
    LayerTimes engine_layers;
    for (std::size_t i : recheck) {
        if (cold_bytes[i].empty())
            continue;
        const ResolvedPoint pt = resolvePoint(cold[i], SimConfig{});
        ++report.attempted;
        const std::string direct = serializeRunResult(
            ExperimentRunner(pt.proto).runOne(pt.config.workload,
                                              pt.config.policy, pt.config));
        if (direct != cold_bytes[i])
            report.mismatch("cold reply " + std::to_string(i)
                            + " differs from an in-process runOne");
        if (opts.trace) {
            const std::string mirrored = serializeRunResult(
                runTimedSingleCore(pt.config, pt.proto, engine_layers));
            if (mirrored != direct)
                report.mismatch("timing mirror disagrees on cold "
                                + std::to_string(i));
        }
    }

    // ---------------------------------------------------------- drain
    stack.conns.clear();
    const double shutdown_s = stack.daemon->stop();
    retired.clear();

    const std::size_t n_cold = latency_ms.size();
    const double hot_rps = median(plain.window_rps);
    if (!opts.trace) {
        report.set("setup_s", median(setup_s), "s", setup_s.size());
        report.set("ops_per_s", hot_rps, "1/s", plain.window_rps.size());
        report.set("op_p50_ms", roundMedian(0.5), "ms", n_cold);
        report.set("op_p90_ms", roundMedian(0.9), "ms", n_cold);
        report.set("peak_rss_mb", rss_mb, "MiB", 1);
        report.set("hot_rps", hot_rps, "req/s", plain.window_rps.size());
        report.set("hot_sent", static_cast<double>(plain.sent), "count",
                   plain.sent);
        report.set("cold_p50_ms", roundMedian(0.5), "ms", n_cold);
        report.set("cold_p90_ms", roundMedian(0.9), "ms", n_cold);
        report.set("cold_pooled_p90_ms", quantile(latency_ms, 0.9), "ms",
                   n_cold);
        const double q = highestReportableQuantile(n_cold);
        if (q > 0.9) {
            report.set("cold_p" + std::to_string(static_cast<int>(q * 100))
                           + "_ms",
                       quantile(latency_ms, q), "ms", n_cold);
        }
        report.set("cold_offered_per_s", kColdRate, "1/s", n_cold);
        return report;
    }

    if (!mirrorSelfCheck(opts.seed, report))
        return report;
    const double n_layer = static_cast<double>(layers.calls);
    const auto per = [n_layer](std::int64_t ns) {
        return n_layer > 0 ? static_cast<double>(ns) / n_layer : 0.0;
    };
    report.set("serve.client.hot_round_trip_p50_us",
               quantile(traced.round_trip_us, 0.5), "us",
               traced.round_trip_us.size());
    report.set("serve.client.hot_round_trip_p90_us",
               quantile(traced.round_trip_us, 0.9), "us",
               traced.round_trip_us.size());
    report.set("serve.protocol.encode_ns", per(layers.encode_ns), "ns",
               layers.calls);
    report.set("serve.protocol.decode_ns", per(layers.decode_ns), "ns",
               layers.calls);
    report.set("sim.digest_ns", per(layers.digest_ns), "ns", layers.calls);
    report.set("sim.result_cache.lookup_us", per(layers.lookup_ns) / 1e3,
               "us", layers.calls);
    report.set("sim.result_decode_ns", per(layers.result_decode_ns), "ns",
               layers.calls);
    report.set("serve.server.hot_mean_ms", hot_server.mean(), "ms",
               static_cast<std::size_t>(hot_server.count));
    report.set("serve.server.cold_mean_ms", cold_server.mean(), "ms",
               static_cast<std::size_t>(cold_server.count));
    report.set("serve.scheduler.queue_high_water",
               static_cast<double>(last.queue_high_water), "count", 1);
    report.set("serve.scheduler.rejected_overload",
               static_cast<double>(last.rejected_overload
                                   - first.rejected_overload),
               "count", 1);
    report.set("serve.hot_hit_share",
               hot.sent ? static_cast<double>(hot_hits_server)
                       / static_cast<double>(hot.sent)
                        : 0.0,
               "share", hot.sent);
    report.set("serve.loadgen.late_p90_ms", quantile(late_ms, 0.9), "ms",
               n_cold);
    report.set("serve.server.shutdown_s", shutdown_s, "s", 1);
    const double traced_rps = median(traced.window_rps);
    report.set("trace.overhead_share",
               traced_rps > 0.0 ? hot_rps / traced_rps - 1.0 : 0.0, "share",
               traced.window_rps.size());
    reportSingleCoreLayers(engine_layers, report);

    if (!writeSpans(opts.trace_path, log.spans()))
        report.mismatch("cannot write spans to " + opts.trace_path);
    return report;
}

} // namespace perfbench
