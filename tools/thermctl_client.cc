/**
 * @file
 * thermctl_client — command-line client for a running thermctl_serve.
 *
 * Usage:
 *   thermctl_client [options]
 *     --socket ENDPOINT  "unix:PATH", "tcp:HOST:PORT", or a bare socket
 *                        path (default: the daemon's default socket)
 *     --bench NAMES      comma-separated benchmark profiles (default
 *                        186.crafty)
 *     --policy NAMES     comma-separated policy names (default none)
 *     --warmup N         warm-up cycles (default 300000)
 *     --cycles N         measured cycles (default 1000000)
 *     --setpoint T       CT setpoint in C (0 = server default)
 *     --sample N         controller sampling interval (0 = default)
 *     --cores N          number of cores (0 = server default)
 *     --coupling R       inter-core coupling resistance in K/W
 *     --budget W         chip power budget in W (0 = server default)
 *     --budget-policy P  uniform|demand|headroom
 *     --deadline MS      per-request deadline; expired requests fail
 *                        with a typed deadline error (default: none)
 *     --csv PATH         append one CSV record per result
 *     --cache-query      ask whether the point is cached; no simulation
 *     --stats            print server counters and exit
 *     --drain            ask the server to drain and shut down
 *     --retries N        attempts per request incl. the first (default 1
 *                        = no retries, exactly the plain client)
 *     --retry-base-ms N  backoff base sleep (default 50)
 *     --retry-deadline-ms N
 *                        total retry budget across attempts and sleeps
 *                        (default 0 = bounded by --retries alone)
 *     --fault-plan SPEC  arm the deterministic fault injector on the
 *                        client side (chaos testing; needs a
 *                        THERMCTL_FAULTS build)
 *
 * Result blocks are formatted exactly like thermctl_run so outputs can
 * be compared byte-for-byte. Server refusals (overloaded, draining,
 * deadline) exit 3; transport and usage errors exit 2.
 */

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/table.hh"
#include "fault/fault.hh"
#include "serve/retry.hh"
#include "serve/server.hh"
#include "sim/policy_factory.hh"

using namespace thermctl;
using namespace thermctl::serve;

namespace
{

std::vector<std::string>
splitList(const std::string &arg)
{
    std::vector<std::string> parts;
    std::size_t start = 0;
    while (start <= arg.size()) {
        const std::size_t comma = arg.find(',', start);
        const std::size_t end =
            comma == std::string::npos ? arg.size() : comma;
        if (end > start)
            parts.push_back(arg.substr(start, end - start));
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    if (parts.empty())
        fatal("empty name list '", arg, "'");
    return parts;
}

void
usage()
{
    std::cout <<
        "usage: thermctl_client [--socket ENDPOINT]\n"
        "                       [--bench NAME[,NAME...]]\n"
        "                       [--policy NAME[,NAME...]]\n"
        "                       [--warmup N] [--cycles N] [--setpoint T]\n"
        "                       [--sample N] [--cores N] [--coupling R]\n"
        "                       [--budget W]\n"
        "                       [--budget-policy uniform|demand|headroom]\n"
        "                       [--deadline MS] [--csv PATH]\n"
        "                       [--cache-query] [--stats] [--drain]\n"
        "                       [--retries N] [--retry-base-ms N]\n"
        "                       [--retry-deadline-ms N]\n"
        "                       [--fault-plan SPEC]\n";
}

/** Identical layout to thermctl_run's printResult (bit-compare safe). */
void
printResult(const RunResult &r, std::uint64_t cycles)
{
    std::cout << "benchmark     : " << r.benchmark << "\n"
              << "policy        : " << r.policy << "\n"
              << "cycles        : " << cycles << "\n"
              << "performance   : " << r.ipc << " (IPC " << r.raw_ipc
              << ")\n"
              << "avg power     : " << r.avg_power << " W\n"
              << "max temp      : " << r.max_temperature << " C\n"
              << "emergency     : "
              << formatPercent(r.emergency_fraction, 3) << "\n"
              << "stress        : " << formatPercent(r.stress_fraction, 1)
              << "\n"
              << "mean duty     : " << r.mean_duty << "\n";
}

void
appendCsv(const std::string &csv_path, const RunResult &r,
          std::uint64_t cycles)
{
    const bool fresh = [&] {
        std::ifstream probe(csv_path);
        return !probe.good();
    }();
    std::ofstream csv(csv_path, std::ios::app);
    if (!csv)
        fatal("cannot open ", csv_path);
    if (fresh) {
        csv << "benchmark,policy,cycles,performance,avg_power,"
               "max_temp,emergency_frac,stress_frac\n";
    }
    csv << r.benchmark << ',' << r.policy << ',' << cycles << ','
        << r.ipc << ',' << r.avg_power << ',' << r.max_temperature << ','
        << r.emergency_fraction << ',' << r.stress_fraction << "\n";
}

void
printStats(const StatsReply &s)
{
    std::cout << "requests_total      : " << s.requests_total << "\n"
              << "run_requests        : " << s.run_requests << "\n"
              << "sweep_requests      : " << s.sweep_requests << "\n"
              << "cache_queries       : " << s.cache_queries << "\n"
              << "points_submitted    : " << s.points_submitted << "\n"
              << "points_simulated    : " << s.points_simulated << "\n"
              << "cache_hits          : " << s.cache_hits << "\n"
              << "coalesced           : " << s.coalesced << "\n"
              << "rejected_overload   : " << s.rejected_overload << "\n"
              << "rejected_deadline   : " << s.rejected_deadline << "\n"
              << "failed              : " << s.failed << "\n"
              << "stalled             : " << s.stalled << "\n"
              << "queue_depth         : " << s.queue_depth << "\n"
              << "queue_high_water    : " << s.queue_high_water << "\n"
              << "connections_accepted: " << s.connections_accepted << "\n"
              << "active_connections  : " << s.active_connections << "\n"
              << "uptime_seconds      : " << s.uptime_seconds << "\n"
              << "latency_count       : " << s.latency_count << "\n"
              << "latency_mean_ms     : " << s.latency_mean_ms << "\n"
              << "latency_p50_ms      : " << s.latency_p50_ms << "\n"
              << "latency_p90_ms      : " << s.latency_p90_ms << "\n"
              << "latency_p99_ms      : " << s.latency_p99_ms << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    std::string endpoint;
    std::vector<std::string> benches;
    std::vector<std::string> policies;
    PointSpec knobs;
    std::uint64_t deadline_ms = 0;
    std::string csv_path;
    bool do_cache_query = false;
    bool do_stats = false;
    bool do_drain = false;
    BackoffConfig backoff;
    backoff.max_attempts = 1; // default: exactly the plain client
    std::string fault_plan_spec;

    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            auto next = [&]() -> std::string {
                if (i + 1 >= argc)
                    fatal("missing value for ", arg);
                return argv[++i];
            };
            if (arg == "--socket") {
                endpoint = next();
            } else if (arg == "--bench") {
                benches = splitList(next());
            } else if (arg == "--policy") {
                policies = splitList(next());
            } else if (arg == "--warmup") {
                knobs.warmup_cycles = std::stoull(next());
            } else if (arg == "--cycles") {
                knobs.measure_cycles = std::stoull(next());
            } else if (arg == "--setpoint") {
                knobs.ct_setpoint = std::stod(next());
            } else if (arg == "--sample") {
                knobs.sample_interval = std::stoull(next());
            } else if (arg == "--cores") {
                const unsigned long v = std::stoul(next());
                if (v > kMaxCores)
                    fatal("--cores must be <= ", kMaxCores);
                knobs.num_cores = static_cast<std::uint32_t>(v);
            } else if (arg == "--coupling") {
                knobs.coupling_r = std::stod(next());
            } else if (arg == "--budget") {
                knobs.chip_budget = std::stod(next());
            } else if (arg == "--budget-policy") {
                const std::string name = next();
                BudgetPolicy policy;
                if (!parseBudgetPolicy(name, policy)) {
                    fatal("unknown budget policy '", name,
                          "' (expected uniform|demand|headroom)");
                }
                knobs.budget_policy =
                    static_cast<std::uint8_t>(policy);
            } else if (arg == "--deadline") {
                deadline_ms = std::stoull(next());
            } else if (arg == "--csv") {
                csv_path = next();
            } else if (arg == "--retries") {
                const long v = std::stol(next());
                if (v < 1)
                    fatal("--retries must be >= 1");
                backoff.max_attempts = static_cast<std::uint32_t>(v);
            } else if (arg == "--retry-base-ms") {
                backoff.base_ms =
                    static_cast<std::uint32_t>(std::stoul(next()));
            } else if (arg == "--retry-deadline-ms") {
                backoff.deadline_ms = std::stoull(next());
            } else if (arg == "--fault-plan") {
                fault_plan_spec = next();
            } else if (arg == "--cache-query") {
                do_cache_query = true;
            } else if (arg == "--stats") {
                do_stats = true;
            } else if (arg == "--drain") {
                do_drain = true;
            } else if (arg == "--help" || arg == "-h") {
                usage();
                return 0;
            } else {
                usage();
                fatal("unknown option ", arg);
            }
        }

        if (endpoint.empty())
            endpoint = defaultSocketPath();
        if (benches.empty())
            benches = {"186.crafty"};
        if (policies.empty())
            policies = {"none"};

        if (!fault_plan_spec.empty()) {
#if defined(THERMCTL_FAULTS_ENABLED) && THERMCTL_FAULTS_ENABLED
            fault::FaultInjector::instance().arm(
                fault::FaultPlan::parse(fault_plan_spec));
#else
            fatal("--fault-plan needs a build with THERMCTL_FAULTS=ON "
                  "(fault points are compiled out of this binary)");
#endif
        }

        // One client for every command; the default --retries 1 is
        // exactly one attempt. Control-plane calls never retry; a
        // transport failure there throws FatalError and exits 2.
        RetryingClient client(endpoint, backoff);

        if (do_stats) {
            printStats(client.stats());
            return 0;
        }
        if (do_drain) {
            const bool was = client.drain();
            std::cout << (was ? "server was already draining\n"
                              : "drain requested\n");
            return 0;
        }
        if (do_cache_query) {
            if (benches.size() > 1 || policies.size() > 1)
                fatal("--cache-query takes a single benchmark and "
                      "policy");
            CacheQueryRequest req;
            req.point = knobs;
            req.point.benchmark = benches.front();
            req.point.policy = policies.front();
            const CacheQueryReply reply = client.cacheQuery(req);
            std::cout << (reply.cached ? "cached" : "not cached")
                      << " (digest " << std::hex << reply.digest
                      << std::dec << ")\n";
            return reply.cached ? 0 : 1;
        }

        std::vector<PointReply> points;
        if (benches.size() == 1 && policies.size() == 1) {
            RunRequest req;
            req.point = knobs;
            req.point.benchmark = benches.front();
            req.point.policy = policies.front();
            req.deadline_ms = deadline_ms;
            points.push_back(client.run(req));
        } else {
            SweepRequest req;
            req.benchmarks = benches;
            req.policies = policies;
            req.warmup_cycles = knobs.warmup_cycles;
            req.measure_cycles = knobs.measure_cycles;
            req.ct_setpoint = knobs.ct_setpoint;
            req.sample_interval = knobs.sample_interval;
            req.num_cores = knobs.num_cores;
            req.coupling_r = knobs.coupling_r;
            req.chip_budget = knobs.chip_budget;
            req.budget_policy = knobs.budget_policy;
            req.deadline_ms = deadline_ms;
            points = client.sweep(req).points;
        }

        int failures = 0;
        bool transport_failure = false;
        bool first = true;
        for (const auto &p : points) {
            if (p.error != ServeError::None) {
                std::cerr << "thermctl_client: "
                          << serveErrorName(p.error) << ": " << p.message
                          << "\n";
                failures++;
                transport_failure |= p.error == ServeError::Transport;
                continue;
            }
            if (!first)
                std::cout << "\n";
            first = false;
            printResult(p.result, knobs.measure_cycles);
            if (!csv_path.empty())
                appendCsv(csv_path, p.result, knobs.measure_cycles);
        }
        if (failures == 0)
            return 0;
        return transport_failure ? 2 : 3;
    } catch (const FatalError &e) {
        std::cerr << e.what() << "\n";
        return 2;
    }
}
