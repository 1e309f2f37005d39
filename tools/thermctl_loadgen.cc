/**
 * @file
 * thermctl_loadgen — open-loop load generator for thermctl_serve.
 *
 * Usage:
 *   thermctl_loadgen [options]
 *     --socket ENDPOINT  "unix:PATH", "tcp:HOST:PORT", or a bare socket
 *                        path (default: the daemon's default socket)
 *     --connect ENDPOINT same as --socket but meant to be repeated: with
 *                        several endpoints the connection pool is dealt
 *                        round-robin across them, so one loadgen drives
 *                        a whole cluster of serve nodes
 *     --rate R           target arrivals per second (default 50)
 *     --conns N          persistent connections (default 4)
 *     --duration S       seconds of arrivals (default 10)
 *     --seed S           arrival/mix randomness seed (default 1)
 *     --mix SPEC         request mix weights, e.g. "run=8,cache=2,sweep=0"
 *                        (default run=8,cache=2)
 *     --bench NAME       benchmark for generated points (default
 *                        186.crafty)
 *     --policy NAME      policy for generated points (default none)
 *     --warmup N         warm-up cycles per point (default 1000)
 *     --cycles N         measured cycles per point (default 10000)
 *     --cores N          cores per generated point (default 1; >1 routes
 *                        through the multicore engine, DESIGN.md §15)
 *     --fake-work-us N   calibrated client-side work per completion,
 *                        microseconds (default 0)
 *     --max-wait-ms N    grace for outstanding replies after the last
 *                        arrival (default 10000)
 *     --json PATH        benchmark record ("" = none; default
 *                        BENCH_serve.json)
 *
 * Methodology (after the mutated load generator): arrivals are OPEN
 * LOOP — request i is due at a precomputed, seeded exponential arrival
 * time whether or not earlier requests have completed, and latency is
 * measured from that scheduled arrival, so queueing a request behind a
 * slow server counts against the server (no coordinated omission). The
 * protocol allows one outstanding request per connection; arrivals are
 * assigned round-robin and wait in a per-connection queue when the
 * connection is busy, with that wait included in the reported latency.
 *
 * --fake-work-us models per-completion application work: a spin loop
 * touching random cache lines, calibrated against the wall clock at
 * startup so the knob is in microseconds, not iterations.
 *
 * Reports throughput and p50/p90/p99/p999 latency, overall and broken
 * down per request type (run/cache/sweep — mixes have very different
 * cost per type, so one aggregate histogram hides the tail that
 * matters); exits 0 only when every scheduled request completed without
 * transport or protocol errors (server refusals are reported but also
 * exit nonzero).
 */

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <ctime>
#include <deque>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "sim/config.hh"
#include "serve/server.hh"

using namespace thermctl;
using namespace thermctl::serve;

namespace
{

using Clock = std::chrono::steady_clock;

void
usage()
{
    std::cout <<
        "usage: thermctl_loadgen [--socket ENDPOINT]\n"
        "                        [--connect ENDPOINT ...] [--rate R]\n"
        "                        [--conns N] [--duration S] [--seed S]\n"
        "                        [--mix run=W,cache=W,sweep=W]\n"
        "                        [--bench NAME] [--policy NAME]\n"
        "                        [--warmup N] [--cycles N] [--cores N]\n"
        "                        [--fake-work-us N] [--max-wait-ms N]\n"
        "                        [--json PATH]\n";
}

// ------------------------------------------------------- fake work

/**
 * Calibrated busy work standing in for per-completion application
 * processing (the mutated methodology): chase random cache lines so
 * the loop cannot be optimized away, calibrate iterations-per-µs once.
 */
class FakeWork
{
  public:
    explicit FakeWork(std::uint64_t seed) : rng_(seed)
    {
        lines_.assign(kLines, 1);
        // Time a fixed chunk to learn iterations per microsecond.
        const std::uint64_t probe = 200000;
        const Clock::time_point t0 = Clock::now();
        spin(probe);
        const double us =
            std::chrono::duration<double, std::micro>(Clock::now() - t0)
                .count();
        iters_per_us_ = us > 0.0 ? double(probe) / us : 1.0;
        if (iters_per_us_ < 1.0)
            iters_per_us_ = 1.0;
    }

    void
    run(std::uint64_t us)
    {
        if (us > 0)
            spin(static_cast<std::uint64_t>(double(us) * iters_per_us_));
    }

    double itersPerUs() const { return iters_per_us_; }

  private:
    static constexpr std::size_t kLines = 4096; // 16 pages of u64s

    void
    spin(std::uint64_t iters)
    {
        std::uint64_t acc = sink_;
        for (std::uint64_t i = 0; i < iters; ++i) {
            const std::size_t at = rng_.below(kLines);
            acc += lines_[at];
            lines_[at] = acc;
        }
        sink_ = acc; // volatile store defeats dead-code elimination
    }

    Rng rng_;
    std::vector<std::uint64_t> lines_;
    double iters_per_us_ = 1.0;
    volatile std::uint64_t sink_ = 0;
};

/** One scheduled arrival. */
struct Arrival
{
    double due_s = 0.0; ///< seconds after test start
    MsgType type = MsgType::RunRequest;
};

/** One persistent connection with at most one request in flight. */
struct Conn
{
    int fd = -1;
    std::string endpoint; ///< where this connection (re)dials
    FrameAssembler assembler;
    std::string wbuf;
    std::size_t woff = 0;
    std::deque<std::size_t> queue; ///< indices into the schedule
    bool in_flight = false;
    std::size_t current = 0; ///< schedule index of the in-flight request

    /**
     * Dial `endpoint` through the shared serve dial. The socket is made
     * non-blocking (the poll loop owns it) with Nagle off, which a Unix
     * socket refuses harmlessly.
     * @return false with the cause in `error` when unreachable.
     */
    bool
    open(std::string &error)
    {
        fd = dialEndpoint(endpoint, 0, error);
        if (fd < 0)
            return false;
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
        return true;
    }
};

struct Tally
{
    std::uint64_t completed = 0;
    std::uint64_t ok = 0;
    std::uint64_t refused = 0;         ///< typed server-side errors
    std::uint64_t transport_errors = 0;
    std::uint64_t protocol_errors = 0; ///< bad frames, wrong reply types
};

MsgType
expectedReply(MsgType req)
{
    switch (req) {
      case MsgType::RunRequest:
        return MsgType::RunReply;
      case MsgType::SweepRequest:
        return MsgType::SweepReply;
      case MsgType::CacheQueryRequest:
        return MsgType::CacheQueryReply;
      default:
        return MsgType::ErrorReply;
    }
}

/** Stable index per request type for the latency breakdown. */
std::size_t
typeIndex(MsgType req)
{
    switch (req) {
      case MsgType::RunRequest:
        return 0;
      case MsgType::CacheQueryRequest:
        return 1;
      default:
        return 2; // SweepRequest
    }
}

constexpr const char *kTypeNames[3] = {"run", "cache", "sweep"};

double
quantile(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    const double pos = q * double(sorted.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = pos - double(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

void
parseMix(const std::string &spec, double &run_w, double &cache_w,
         double &sweep_w)
{
    run_w = cache_w = sweep_w = 0.0;
    std::size_t start = 0;
    while (start < spec.size()) {
        const std::size_t comma = spec.find(',', start);
        const std::size_t end =
            comma == std::string::npos ? spec.size() : comma;
        const std::string part = spec.substr(start, end - start);
        const std::size_t eq = part.find('=');
        if (eq == std::string::npos)
            fatal("loadgen: bad mix clause '", part, "'");
        const std::string name = part.substr(0, eq);
        const double w = std::stod(part.substr(eq + 1));
        if (w < 0.0)
            fatal("loadgen: negative mix weight in '", part, "'");
        if (name == "run")
            run_w = w;
        else if (name == "cache")
            cache_w = w;
        else if (name == "sweep")
            sweep_w = w;
        else
            fatal("loadgen: unknown mix component '", name, "'");
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    if (run_w + cache_w + sweep_w <= 0.0)
        fatal("loadgen: mix has no positive weight");
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> endpoints;
    double rate = 50.0;
    unsigned conns = 4;
    double duration_s = 10.0;
    std::uint64_t seed = 1;
    std::string mix = "run=8,cache=2";
    PointSpec knobs;
    knobs.warmup_cycles = 1000;
    knobs.measure_cycles = 10000;
    std::uint64_t fake_work_us = 0;
    std::uint64_t max_wait_ms = 10000;
    std::string json_path = "BENCH_serve.json";

    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            auto next = [&]() -> std::string {
                if (i + 1 >= argc)
                    fatal("missing value for ", arg);
                return argv[++i];
            };
            if (arg == "--socket" || arg == "--connect") {
                endpoints.push_back(next());
            } else if (arg == "--rate") {
                rate = std::stod(next());
                if (rate <= 0.0)
                    fatal("--rate must be positive");
            } else if (arg == "--conns") {
                const long v = std::stol(next());
                if (v < 1)
                    fatal("--conns must be >= 1");
                conns = static_cast<unsigned>(v);
            } else if (arg == "--duration") {
                duration_s = std::stod(next());
                if (duration_s <= 0.0)
                    fatal("--duration must be positive");
            } else if (arg == "--seed") {
                seed = std::stoull(next());
            } else if (arg == "--mix") {
                mix = next();
            } else if (arg == "--bench") {
                knobs.benchmark = next();
            } else if (arg == "--policy") {
                knobs.policy = next();
            } else if (arg == "--warmup") {
                knobs.warmup_cycles = std::stoull(next());
            } else if (arg == "--cycles") {
                knobs.measure_cycles = std::stoull(next());
            } else if (arg == "--cores") {
                const unsigned long v = std::stoul(next());
                if (v > kMaxCores)
                    fatal("--cores must be <= ", kMaxCores);
                knobs.num_cores = static_cast<std::uint32_t>(v);
            } else if (arg == "--fake-work-us") {
                fake_work_us = std::stoull(next());
            } else if (arg == "--max-wait-ms") {
                max_wait_ms = std::stoull(next());
            } else if (arg == "--json") {
                json_path = next();
            } else if (arg == "--help" || arg == "-h") {
                usage();
                return 0;
            } else {
                usage();
                fatal("unknown option ", arg);
            }
        }
        if (endpoints.empty())
            endpoints = {defaultSocketPath()};

        double run_w = 0, cache_w = 0, sweep_w = 0;
        parseMix(mix, run_w, cache_w, sweep_w);

        FakeWork fake(seed ^ 0x5ca1ab1eULL);
        if (fake_work_us > 0) {
            std::cerr << "thermctl_loadgen: fake work calibrated at "
                      << fake.itersPerUs() << " iters/us\n";
        }

        // ---- precompute the open-loop schedule
        Rng arrivals_rng(seed);
        Rng mix_rng = Rng(seed).fork(1);
        std::vector<Arrival> schedule;
        const double total_w = run_w + cache_w + sweep_w;
        double t = 0.0;
        for (;;) {
            // Exponential inter-arrival: -ln(U)/rate, U in (0, 1].
            const double u = 1.0 - arrivals_rng.uniform();
            t += -std::log(u) / rate;
            if (t >= duration_s)
                break;
            Arrival a;
            a.due_s = t;
            const double pick = mix_rng.uniform() * total_w;
            a.type = pick < run_w ? MsgType::RunRequest
                     : pick < run_w + cache_w
                         ? MsgType::CacheQueryRequest
                         : MsgType::SweepRequest;
            schedule.push_back(a);
        }
        if (schedule.empty())
            fatal("loadgen: schedule is empty (rate x duration too low)");

        // Pre-encode one request frame per type; every arrival of a
        // type sends identical bytes, so the server's coalescing and
        // cache layers see realistic duplicate traffic.
        RunRequest run_req;
        run_req.point = knobs;
        SweepRequest sweep_req;
        sweep_req.benchmarks = {knobs.benchmark};
        sweep_req.policies = {knobs.policy};
        sweep_req.warmup_cycles = knobs.warmup_cycles;
        sweep_req.measure_cycles = knobs.measure_cycles;
        sweep_req.num_cores = knobs.num_cores;
        sweep_req.coupling_r = knobs.coupling_r;
        sweep_req.chip_budget = knobs.chip_budget;
        sweep_req.budget_policy = knobs.budget_policy;
        CacheQueryRequest cache_req;
        cache_req.point = knobs;
        const std::string run_frame =
            encodeFrame(MsgType::RunRequest, run_req.encode());
        const std::string sweep_frame =
            encodeFrame(MsgType::SweepRequest, sweep_req.encode());
        const std::string cache_frame =
            encodeFrame(MsgType::CacheQueryRequest, cache_req.encode());
        auto frameFor = [&](MsgType type) -> const std::string & {
            if (type == MsgType::RunRequest)
                return run_frame;
            if (type == MsgType::SweepRequest)
                return sweep_frame;
            return cache_frame;
        };

        // ---- dial the connection pool, dealt round-robin across the
        // endpoints so a multi-node cluster sees an even share of
        // connections (and each connection redials its own node).
        std::vector<Conn> pool(conns);
        for (std::size_t i = 0; i < pool.size(); ++i) {
            pool[i].endpoint = endpoints[i % endpoints.size()];
            std::string error;
            if (!pool[i].open(error))
                fatal("loadgen: ", error);
        }

        Tally tally;
        std::vector<double> latencies_ms;
        latencies_ms.reserve(schedule.size());
        std::vector<double> latencies_by_type_ms[3];

        auto kick = [&](Conn &c) {
            // Start the next queued request if the line is free.
            if (c.in_flight || c.queue.empty())
                return;
            c.current = c.queue.front();
            c.queue.pop_front();
            c.in_flight = true;
            c.wbuf += frameFor(schedule[c.current].type);
        };

        auto failConn = [&](Conn &c) {
            // Count everything this connection still owed as transport
            // failures, then redial so the remaining schedule can run.
            // The redial itself may fail (server draining/restarting):
            // mark the connection dead (fd -1, ignored by poll) and
            // retry it when the next arrival lands on it.
            tally.transport_errors +=
                (c.in_flight ? 1 : 0) + c.queue.size();
            tally.completed += (c.in_flight ? 1 : 0) + c.queue.size();
            c.queue.clear();
            c.in_flight = false;
            c.wbuf.clear();
            c.woff = 0;
            c.assembler = FrameAssembler();
            ::close(c.fd);
            std::string error;
            if (!c.open(error)) {
                std::cerr << "thermctl_loadgen: reconnect failed: "
                          << error << " (will retry on the next arrival)\n";
            }
        };

        const Clock::time_point start = Clock::now();
        std::size_t next_arrival = 0;
        std::size_t rr = 0; // round-robin cursor

        while (tally.completed < schedule.size()) {
            const double now_s =
                std::chrono::duration<double>(Clock::now() - start)
                    .count();

            // ---- admit due arrivals
            while (next_arrival < schedule.size()
                   && schedule[next_arrival].due_s <= now_s) {
                Conn &c = pool[rr++ % pool.size()];
                std::string error;
                if (c.fd < 0 && !c.open(error)) {
                    // Still unreachable: this arrival is a transport
                    // failure, charged now (open loop — it was due).
                    tally.transport_errors++;
                    tally.completed++;
                    next_arrival++;
                    continue;
                }
                c.queue.push_back(next_arrival++);
                kick(c);
            }

            // ---- grace period bookkeeping
            if (next_arrival == schedule.size()
                && now_s > duration_s + double(max_wait_ms) / 1000.0) {
                std::cerr << "thermctl_loadgen: gave up on "
                          << schedule.size() - tally.completed
                          << " outstanding request(s)\n";
                tally.transport_errors +=
                    schedule.size() - tally.completed;
                tally.completed = schedule.size();
                break;
            }

            // ---- poll for readiness
            std::vector<pollfd> fds(pool.size());
            for (std::size_t i = 0; i < pool.size(); ++i) {
                short events = 0;
                if (pool[i].woff < pool[i].wbuf.size())
                    events |= POLLOUT;
                if (pool[i].in_flight)
                    events |= POLLIN;
                fds[i] = {pool[i].fd, events, 0};
            }
            int timeout = 50;
            if (next_arrival < schedule.size()) {
                const double wait_s =
                    schedule[next_arrival].due_s - now_s;
                timeout = std::max(
                    0, static_cast<int>(std::ceil(wait_s * 1000.0)));
                timeout = std::min(timeout, 50);
            }
            const int rc = ::poll(fds.data(), fds.size(), timeout);
            if (rc < 0 && errno != EINTR)
                fatal("loadgen: poll: ", std::strerror(errno));

            // ---- service connections
            for (std::size_t i = 0; i < pool.size(); ++i) {
                Conn &c = pool[i];
                const short re = fds[i].revents;
                if (re & (POLLERR | POLLNVAL | POLLHUP)) {
                    failConn(c);
                    continue;
                }
                if (re & POLLOUT) {
                    const ssize_t n =
                        ::send(c.fd, c.wbuf.data() + c.woff,
                               c.wbuf.size() - c.woff, MSG_NOSIGNAL);
                    if (n < 0 && errno != EAGAIN && errno != EINTR) {
                        failConn(c);
                        continue;
                    }
                    if (n > 0)
                        c.woff += static_cast<std::size_t>(n);
                    if (c.woff == c.wbuf.size()) {
                        c.wbuf.clear();
                        c.woff = 0;
                    }
                }
                if (!(re & POLLIN))
                    continue;
                char buf[16384];
                const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
                if (n <= 0) {
                    if (n < 0 && (errno == EAGAIN || errno == EINTR))
                        continue;
                    failConn(c);
                    continue;
                }
                c.assembler.feed(std::string_view(
                    buf, static_cast<std::size_t>(n)));
                for (;;) {
                    MsgType type;
                    std::string payload;
                    const FrameAssembler::Next what =
                        c.assembler.next(type, payload);
                    if (what == FrameAssembler::Next::NeedMore)
                        break;
                    if (what == FrameAssembler::Next::Bad) {
                        tally.protocol_errors++;
                        failConn(c);
                        break;
                    }
                    if (!c.in_flight) {
                        tally.protocol_errors++; // unsolicited reply
                        failConn(c);
                        break;
                    }
                    const Arrival &a = schedule[c.current];
                    const double lat_ms =
                        (std::chrono::duration<double>(Clock::now()
                                                       - start)
                             .count()
                         - a.due_s)
                        * 1000.0;
                    c.in_flight = false;
                    tally.completed++;
                    bool refused = false;
                    if (type == MsgType::ErrorReply) {
                        refused = true;
                    } else if (type != expectedReply(a.type)) {
                        tally.protocol_errors++;
                        failConn(c);
                        break;
                    } else if (type == MsgType::RunReply) {
                        RunReply r;
                        if (!RunReply::decode(payload, r)) {
                            tally.protocol_errors++;
                            failConn(c);
                            break;
                        }
                        refused = r.point.error != ServeError::None;
                    } else if (type == MsgType::SweepReply) {
                        SweepReply r;
                        if (!SweepReply::decode(payload, r)) {
                            tally.protocol_errors++;
                            failConn(c);
                            break;
                        }
                        for (const auto &p : r.points)
                            refused |= p.error != ServeError::None;
                    } else {
                        CacheQueryReply r;
                        if (!CacheQueryReply::decode(payload, r)) {
                            tally.protocol_errors++;
                            failConn(c);
                            break;
                        }
                    }
                    if (refused)
                        tally.refused++;
                    else
                        tally.ok++;
                    latencies_ms.push_back(lat_ms);
                    latencies_by_type_ms[typeIndex(a.type)].push_back(
                        lat_ms);
                    fake.run(fake_work_us);
                    kick(c);
                }
            }
        }
        const double elapsed_s =
            std::chrono::duration<double>(Clock::now() - start).count();

        for (auto &c : pool) {
            if (c.fd >= 0)
                ::close(c.fd);
        }

        // ---- report
        std::sort(latencies_ms.begin(), latencies_ms.end());
        const double p50 = quantile(latencies_ms, 0.50);
        const double p90 = quantile(latencies_ms, 0.90);
        const double p99 = quantile(latencies_ms, 0.99);
        const double p999 = quantile(latencies_ms, 0.999);
        double mean = 0.0;
        for (double v : latencies_ms)
            mean += v;
        if (!latencies_ms.empty())
            mean /= double(latencies_ms.size());
        const double max_ms =
            latencies_ms.empty() ? 0.0 : latencies_ms.back();
        const double throughput =
            elapsed_s > 0.0 ? double(tally.ok) / elapsed_s : 0.0;

        std::cout << "scheduled    : " << schedule.size() << "\n"
                  << "completed ok : " << tally.ok << "\n"
                  << "refused      : " << tally.refused << "\n"
                  << "transport err: " << tally.transport_errors << "\n"
                  << "protocol err : " << tally.protocol_errors << "\n"
                  << "elapsed      : " << elapsed_s << " s\n"
                  << "throughput   : " << throughput << " req/s\n"
                  << "latency p50  : " << p50 << " ms\n"
                  << "latency p90  : " << p90 << " ms\n"
                  << "latency p99  : " << p99 << " ms\n"
                  << "latency p999 : " << p999 << " ms\n";
        for (std::size_t ti = 0; ti < 3; ++ti) {
            auto &v = latencies_by_type_ms[ti];
            if (v.empty())
                continue;
            std::sort(v.begin(), v.end());
            std::cout << "latency[" << kTypeNames[ti]
                      << "] : n=" << v.size() << " p50="
                      << quantile(v, 0.50) << " p90=" << quantile(v, 0.90)
                      << " p99=" << quantile(v, 0.99) << " ms\n";
        }

        if (!json_path.empty()) {
            std::ofstream out(json_path);
            if (!out)
                fatal("loadgen: cannot write ", json_path);
            out << "{\n"
                << "  \"benchmark\": \"serve_loadgen\",\n"
                << "  \"unix_time\": " << std::time(nullptr) << ",\n"
                << "  \"config\": {\n"
                << "    \"endpoints\": " << endpoints.size() << ",\n"
                << "    \"rate\": " << rate << ",\n"
                << "    \"conns\": " << conns << ",\n"
                << "    \"duration_s\": " << duration_s << ",\n"
                << "    \"seed\": " << seed << ",\n"
                << "    \"mix\": \"" << mix << "\",\n"
                << "    \"benchmark\": \"" << knobs.benchmark << "\",\n"
                << "    \"policy\": \"" << knobs.policy << "\",\n"
                << "    \"warmup_cycles\": " << knobs.warmup_cycles
                << ",\n"
                << "    \"measure_cycles\": " << knobs.measure_cycles
                << ",\n"
                << "    \"fake_work_us\": " << fake_work_us << "\n"
                << "  },\n"
                << "  \"requests\": {\n"
                << "    \"scheduled\": " << schedule.size() << ",\n"
                << "    \"ok\": " << tally.ok << ",\n"
                << "    \"refused\": " << tally.refused << ",\n"
                << "    \"transport_errors\": "
                << tally.transport_errors << ",\n"
                << "    \"protocol_errors\": " << tally.protocol_errors
                << "\n"
                << "  },\n"
                << "  \"elapsed_s\": " << elapsed_s << ",\n"
                << "  \"throughput_rps\": " << throughput << ",\n"
                << "  \"latency_ms\": {\n"
                << "    \"mean\": " << mean << ",\n"
                << "    \"p50\": " << p50 << ",\n"
                << "    \"p90\": " << p90 << ",\n"
                << "    \"p99\": " << p99 << ",\n"
                << "    \"p999\": " << p999 << ",\n"
                << "    \"max\": " << max_ms << "\n"
                << "  },\n"
                << "  \"latency_by_type_ms\": {\n";
            for (std::size_t ti = 0; ti < 3; ++ti) {
                const auto &v = latencies_by_type_ms[ti]; // sorted above
                double tmean = 0.0;
                for (double x : v)
                    tmean += x;
                if (!v.empty())
                    tmean /= double(v.size());
                out << "    \"" << kTypeNames[ti] << "\": {\n"
                    << "      \"count\": " << v.size() << ",\n"
                    << "      \"mean\": " << tmean << ",\n"
                    << "      \"p50\": " << quantile(v, 0.50) << ",\n"
                    << "      \"p90\": " << quantile(v, 0.90) << ",\n"
                    << "      \"p99\": " << quantile(v, 0.99) << ",\n"
                    << "      \"max\": " << (v.empty() ? 0.0 : v.back())
                    << "\n"
                    << "    }" << (ti + 1 < 3 ? "," : "") << "\n";
            }
            out << "  }\n"
                << "}\n";
        }

        if (tally.transport_errors > 0 || tally.protocol_errors > 0)
            return 2;
        return tally.refused > 0 ? 3 : 0;
    } catch (const FatalError &e) {
        std::cerr << e.what() << "\n";
        return 2;
    }
}
