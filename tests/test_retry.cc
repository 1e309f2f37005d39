/**
 * @file
 * Tests for the client retry/backoff policy (serve/retry.hh): the
 * backoff sequence is deterministic per seed, sleeps respect base/cap
 * and the decorrelated-jitter growth bound, the server retry-after hint
 * floors the sleep, and an exhausted deadline budget answers
 * immediately — no final pointless sleep. RetryingClient end-to-end
 * behaviour against an unreachable server is covered here, and so is
 * the shared endpoint parser and dial (dialEndpoint); behaviour under
 * live injected faults is the chaos harness's job (tests/chaos).
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "serve/retry.hh"

using namespace thermctl;
using namespace thermctl::serve;

namespace
{

/** Drain a policy: every granted sleep until it refuses. */
std::vector<std::uint32_t>
drainSleeps(const BackoffConfig &config, std::uint32_t hint = 0)
{
    BackoffPolicy policy(config);
    std::vector<std::uint32_t> sleeps;
    for (;;) {
        const auto d = policy.next(/*elapsed_ms=*/0, hint);
        if (!d.retry)
            break;
        sleeps.push_back(d.sleep_ms);
    }
    return sleeps;
}

/**
 * A TCP listener whose accept backlog is pre-filled and never drained:
 * further connects stay pending until the dialer's own timeout fires.
 * Reproduces a worker whose accept queue hung (flapping restart, SYN
 * backlog full) without any server code.
 */
struct HungListener
{
    int fd = -1;
    int port = 0;
    std::vector<int> fillers;

    HungListener()
    {
        fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0)
            return;
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = 0;
        if (::bind(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr))
                != 0
            || ::listen(fd, /*backlog=*/1) != 0)
            return;
        socklen_t len = sizeof(addr);
        if (::getsockname(fd, reinterpret_cast<sockaddr *>(&addr), &len)
            != 0)
            return;
        port = ntohs(addr.sin_port);

        // Fill the accept backlog so further connects stay pending.
        for (int i = 0; i < 4; ++i) {
            const int cfd = ::socket(AF_INET, SOCK_STREAM, 0);
            if (cfd < 0)
                continue;
            const int flags = ::fcntl(cfd, F_GETFL, 0);
            ::fcntl(cfd, F_SETFL, flags | O_NONBLOCK);
            (void)::connect(cfd, reinterpret_cast<sockaddr *>(&addr),
                            sizeof(addr));
            fillers.push_back(cfd);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }

    ~HungListener()
    {
        for (int cfd : fillers)
            ::close(cfd);
        if (fd >= 0)
            ::close(fd);
    }

    std::string
    endpoint() const
    {
        return "tcp:127.0.0.1:" + std::to_string(port);
    }
};

/** A live listener; connects complete in the kernel's accept queue. */
struct Listener
{
    int fd = -1;
    std::string endpoint;
    std::string unix_path;

    /** TCP on 127.0.0.1 (ephemeral port). */
    Listener()
    {
        fd = ::socket(AF_INET, SOCK_STREAM, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        socklen_t len = sizeof(addr);
        if (fd < 0
            || ::bind(fd, reinterpret_cast<sockaddr *>(&addr), len) != 0
            || ::listen(fd, 8) != 0
            || ::getsockname(fd, reinterpret_cast<sockaddr *>(&addr),
                             &len)
                   != 0)
            return;
        endpoint = "tcp:127.0.0.1:" + std::to_string(ntohs(addr.sin_port));
    }

    /** Unix socket at `path`. */
    explicit Listener(const std::string &path) : unix_path(path)
    {
        ::unlink(path.c_str());
        fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
        if (fd < 0
            || ::bind(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr))
                   != 0
            || ::listen(fd, 8) != 0)
            return;
        endpoint = path;
    }

    ~Listener()
    {
        if (fd >= 0)
            ::close(fd);
        if (!unix_path.empty())
            ::unlink(unix_path.c_str());
    }

    Listener(const Listener &) = delete;
    Listener &operator=(const Listener &) = delete;
};

/** Dial and close; @return the error, empty on success. */
std::string
dialError(const std::string &endpoint, unsigned timeout_ms)
{
    std::string error;
    const int fd = dialEndpoint(endpoint, timeout_ms, error);
    if (fd >= 0) {
        ::close(fd);
        return "";
    }
    EXPECT_FALSE(error.empty()) << endpoint;
    return error.empty() ? "failed without a message" : error;
}

} // namespace

TEST(BackoffPolicy, DeterministicPerSeedAndDivergentAcrossSeeds)
{
    BackoffConfig config;
    config.max_attempts = 8;

    const auto a = drainSleeps(config);
    const auto b = drainSleeps(config);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.size(), 7u); // max_attempts - 1 retries granted

    BackoffConfig other = config;
    other.seed = config.seed + 1;
    EXPECT_NE(drainSleeps(other), a);
}

TEST(BackoffPolicy, SleepsRespectBaseCapAndGrowthBound)
{
    BackoffConfig config;
    config.base_ms = 50;
    config.cap_ms = 400;
    config.max_attempts = 32;

    std::uint32_t prev = 0;
    for (std::uint32_t sleep : drainSleeps(config)) {
        EXPECT_GE(sleep, config.base_ms);
        EXPECT_LE(sleep, config.cap_ms);
        // Decorrelated jitter: each sleep < 3 * previous (first draw
        // is bounded by 3 * base).
        const std::uint32_t bound = prev > 0 ? prev : config.base_ms;
        EXPECT_LT(sleep, std::max(bound * 3, config.base_ms + 1));
        prev = sleep;
    }
}

TEST(BackoffPolicy, ServerHintFloorsSleepButCapStillWins)
{
    BackoffConfig config;
    config.base_ms = 10;
    config.cap_ms = 500;
    config.max_attempts = 6;

    // Every sleep must be at least the server's retry-after hint.
    for (std::uint32_t sleep : drainSleeps(config, /*hint=*/200))
        EXPECT_GE(sleep, 200u);

    // ... unless the hint exceeds the cap; then the cap wins.
    for (std::uint32_t sleep : drainSleeps(config, /*hint=*/9000))
        EXPECT_EQ(sleep, config.cap_ms);
}

TEST(BackoffPolicy, MaxAttemptsOneMeansNoRetries)
{
    BackoffConfig config;
    config.max_attempts = 1;
    BackoffPolicy policy(config);
    const auto d = policy.next(0);
    EXPECT_FALSE(d.retry);
    EXPECT_EQ(d.sleep_ms, 0u);
    EXPECT_EQ(policy.attempts(), 1u);

    // max_attempts=0 is treated as 1, not as unlimited.
    config.max_attempts = 0;
    BackoffPolicy zero(config);
    EXPECT_FALSE(zero.next(0).retry);
}

TEST(BackoffPolicy, DeadlineExhaustionRefusesWithoutFinalSleep)
{
    BackoffConfig config;
    config.base_ms = 100;
    config.cap_ms = 100; // deterministic sleep of exactly 100
    config.max_attempts = 100;
    config.deadline_ms = 450;

    BackoffPolicy policy(config);
    std::uint64_t elapsed = 0;
    int granted = 0;
    for (;;) {
        const auto d = policy.next(elapsed);
        if (!d.retry) {
            // Refusal must be immediate: a sleep that would land on or
            // past the deadline is never handed out.
            EXPECT_EQ(d.sleep_ms, 0u);
            break;
        }
        EXPECT_LT(elapsed + d.sleep_ms, config.deadline_ms);
        elapsed += d.sleep_ms;
        ++granted;
    }
    // 100ms sleeps under a 450ms budget: granted at 100, 200, 300;
    // the 4th (elapsed 300 + 100 >= 450? no, 400 < 450) — granted;
    // the 5th (500 >= 450) refused. So exactly 4 grants.
    EXPECT_EQ(granted, 4);
}

TEST(BackoffPolicy, ElapsedTimeAloneExhaustsBudget)
{
    BackoffConfig config;
    config.deadline_ms = 50;
    config.max_attempts = 10;
    BackoffPolicy policy(config);
    // The attempt itself burned the whole budget: no retry, no sleep.
    const auto d = policy.next(/*elapsed_ms=*/60);
    EXPECT_FALSE(d.retry);
    EXPECT_EQ(d.sleep_ms, 0u);
}

// ------------------------------------------------------ RetryingClient

TEST(RetryingClient, NoRetriesSurfacesTypedTransportError)
{
    // max_attempts=1 must behave exactly like the plain client: the
    // typed Transport error comes back unchanged, not wrapped.
    BackoffConfig config;
    config.max_attempts = 1;
    RetryingClient client("unix:/nonexistent/thermctl-test.sock", config);

    RunRequest req;
    req.point.benchmark = "186.crafty";
    req.point.policy = "none";
    const PointReply reply = client.run(req);
    EXPECT_EQ(reply.error, ServeError::Transport);
    EXPECT_EQ(client.attemptsTotal(), 1u);
}

TEST(RetryingClient, ExhaustedRetriesWrapInDeadlineExceeded)
{
    BackoffConfig config;
    config.base_ms = 1;
    config.cap_ms = 2;
    config.max_attempts = 3;
    RetryingClient client("unix:/nonexistent/thermctl-test.sock", config);

    RunRequest req;
    req.point.benchmark = "186.crafty";
    req.point.policy = "none";
    const PointReply reply = client.run(req);
    EXPECT_EQ(reply.error, ServeError::DeadlineExceeded);
    EXPECT_NE(reply.message.find("transport"), std::string::npos);
    EXPECT_EQ(client.attemptsTotal(), 3u);

    // A sweep against a dead server retries as a unit and reports the
    // same exhaustion shape: one typed point.
    SweepRequest sweep;
    sweep.benchmarks = {"186.crafty"};
    sweep.policies = {"none"};
    const SweepReply sr = client.sweep(sweep);
    ASSERT_EQ(sr.points.size(), 1u);
    EXPECT_EQ(sr.points[0].error, ServeError::DeadlineExceeded);
    EXPECT_EQ(client.attemptsTotal(), 6u);
}

TEST(RetryingClient, DeadlineBudgetBoundsTotalWallTime)
{
    BackoffConfig config;
    config.base_ms = 20;
    config.cap_ms = 40;
    config.max_attempts = 1000;
    config.deadline_ms = 120;
    RetryingClient client("unix:/nonexistent/thermctl-test.sock", config);

    RunRequest req;
    req.point.benchmark = "186.crafty";
    req.point.policy = "none";
    const auto started = std::chrono::steady_clock::now();
    const PointReply reply = client.run(req);
    const auto wall = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - started);
    EXPECT_EQ(reply.error, ServeError::DeadlineExceeded);
    // Budget 120ms + one last (sleepless) attempt; give generous slack
    // for slow CI but catch unbounded retrying outright.
    EXPECT_LT(wall.count(), 2000);
    EXPECT_GT(client.attemptsTotal(), 1u);
}

TEST(RetryingClient, ReconnectTimeIsChargedAgainstTheDeadline)
{
    // Regression: ensureConnected() used to dial with an unbounded
    // blocking connect, and the deadline was only consulted *after*
    // each attempt — a worker whose accept queue hung could stretch
    // one request far past its budget. Demand the deadline holds.
    HungListener listener;
    ASSERT_GT(listener.port, 0);

    BackoffConfig config;
    config.base_ms = 10;
    config.cap_ms = 20;
    config.max_attempts = 1000;
    config.deadline_ms = 300;
    config.connect_timeout_ms = 100; // each dial bounded well below
    RetryingClient client(listener.endpoint(), config);

    RunRequest req;
    req.point.benchmark = "186.crafty";
    req.point.policy = "none";
    const auto started = std::chrono::steady_clock::now();
    const PointReply reply = client.run(req);
    const auto wall =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - started);

    // Typed failure, and the whole call (connect hangs included) fits
    // the budget with slack — not one unbounded connect per retry.
    EXPECT_TRUE(reply.error == ServeError::DeadlineExceeded
                || reply.error == ServeError::Transport)
        << serveErrorName(reply.error);
    EXPECT_LT(wall.count(), 3000);
    EXPECT_GT(client.attemptsTotal(), 1u);
}

TEST(RetryingClient, DialTimeoutIsCappedByRemainingDeadline)
{
    // A connect_timeout_ms far above the deadline must not win: the
    // dial is bounded by min(connect_timeout, remaining budget), so a
    // 100ms deadline caps a nominal 5-second dial at ~100ms.
    HungListener listener;
    ASSERT_GT(listener.port, 0);

    BackoffConfig config;
    config.max_attempts = 1;
    config.deadline_ms = 100;
    config.connect_timeout_ms = 5000;
    RetryingClient client(listener.endpoint(), config);

    RunRequest req;
    req.point.benchmark = "186.crafty";
    req.point.policy = "none";
    const auto started = std::chrono::steady_clock::now();
    const PointReply reply = client.run(req);
    const auto wall =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - started);
    EXPECT_EQ(reply.error, ServeError::Transport);
    EXPECT_NE(reply.message.find("timed out"), std::string::npos)
        << reply.message;
    // Far below the nominal 5s connect timeout; generous CI slack.
    EXPECT_LT(wall.count(), 2000);
}

// ------------------------------------------------------ dialEndpoint

TEST(DialEndpoint, MalformedEndpointsAreRejectedWithoutThrowing)
{
    const std::vector<std::string> malformed = {
        "tcp:h:abc", "tcp:h",    "tcp:h:70000",
        "tcp:h:0",   "tcp:h:80x", "unix:/" + std::string(200, 'p')};
    for (const std::string &bad : malformed) {
        std::string error;
        int fd = -2;
        EXPECT_NO_THROW(fd = dialEndpoint(bad, 100, error)) << bad;
        EXPECT_EQ(fd, -1) << bad;
        // Rejected by the parser, before any socket is dialed.
        EXPECT_EQ(error.find("cannot connect"), std::string::npos)
            << bad << ": " << error;
        EXPECT_FALSE(error.empty()) << bad;
    }
}

TEST(DialEndpoint, AcceptsUnixBarePathAndTcpForms)
{
    const std::string path = "/tmp/tretry-" + std::to_string(::getpid())
                             + ".sock";
    Listener unix_listener(path);
    ASSERT_FALSE(unix_listener.endpoint.empty());
    EXPECT_EQ(dialError("unix:" + path, 1000), "");
    EXPECT_EQ(dialError(path, 1000), "");

    Listener tcp_listener;
    ASSERT_FALSE(tcp_listener.endpoint.empty());
    EXPECT_EQ(dialError(tcp_listener.endpoint, 1000), "");
}

TEST(DialEndpoint, ZeroTimeoutMeansNoBound)
{
    // Regression: a timeout of 0 used to arm a 0 ms deadline on a
    // non-blocking connect, so every TCP dial "timed out after 0 ms".
    Listener tcp_listener;
    ASSERT_FALSE(tcp_listener.endpoint.empty());
    EXPECT_EQ(dialError(tcp_listener.endpoint, 0), "");

    std::string error;
    ServeClient client =
        ServeClient::tryConnect(tcp_listener.endpoint, 0, error);
    EXPECT_TRUE(client.connected()) << error;
}

TEST(DialEndpoint, UnreachableEndpointNamesTheCause)
{
    const std::string error =
        dialError("unix:/nonexistent/thermctl-test.sock", 0);
    EXPECT_NE(error.find("cannot connect to unix:/nonexistent"),
              std::string::npos)
        << error;
    EXPECT_THROW((void)ServeClient::connect("tcp:h:abc"), FatalError);
}
