/**
 * @file
 * The serve client: RetryingClient, with bounded retries under
 * exponential backoff, decorrelated jitter, and an end-to-end deadline
 * budget on the data plane, and strict control-plane calls.
 *
 * Retrying a simulation request is safe because requests are
 * *idempotent by construction*: a request's identity is its sweep
 * digest (sweepConfigDigest over the fully resolved configuration), a
 * run is a pure function of that configuration, and the server
 * coalesces and caches by the same digest. Sending the same request
 * twice therefore cannot produce a different answer or duplicate work
 * that matters — the worst case is one extra cache hit.
 *
 * Only two failure classes are retried:
 *  - Transport: the connection broke or could not be established; the
 *    request may or may not have executed, which is exactly the case
 *    idempotency exists for.
 *  - Overloaded: the server said "queue full"; its retry-after hint
 *    (PointReply::retry_after_ms) becomes the floor of the next sleep.
 *
 * Every other error (BadRequest, Draining, DeadlineExceeded, Stalled,
 * Internal, ...) is returned to the caller unchanged — retrying a
 * request the server *answered* with a terminal verdict just burns the
 * budget.
 *
 * The backoff sequence is deterministic given BackoffConfig::seed, so
 * chaos runs replay exactly (see src/fault/fault.hh).
 */

#ifndef THERMCTL_SERVE_RETRY_HH
#define THERMCTL_SERVE_RETRY_HH

#include <cstdint>
#include <string>

#include "common/random.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"

namespace thermctl::serve
{

/** Knobs of the retry/backoff policy. */
struct BackoffConfig
{
    std::uint32_t base_ms = 50;   ///< first sleep ~uniform[base, 3*base)
    std::uint32_t cap_ms = 2000;  ///< per-sleep ceiling
    std::uint32_t max_attempts = 5; ///< total tries (1 = no retries)
    /** End-to-end budget across attempts + sleeps; 0 = unbounded. */
    std::uint64_t deadline_ms = 0;
    /**
     * Bound on each reconnect attempt. Reconnect time is charged
     * against deadline_ms like everything else, so a flapping server
     * cannot stretch one request with unbounded connect hangs; 0 falls
     * back to a blocking connect (still capped by the deadline budget
     * when one is set).
     */
    std::uint32_t connect_timeout_ms = 1000;
    std::uint64_t seed = 0x7e7217ULL; ///< jitter stream seed
};

/**
 * Decorrelated-jitter backoff under a deadline budget. Pure policy
 * math — no sockets, no clocks; the caller reports elapsed time and
 * receives sleep durations, which makes the sequence unit-testable and
 * deterministic per seed.
 */
class BackoffPolicy
{
  public:
    explicit BackoffPolicy(const BackoffConfig &config);

    /** Verdict for one failed attempt. */
    struct Decision
    {
        bool retry = false;        ///< false: budget/attempts exhausted
        std::uint32_t sleep_ms = 0; ///< wait before the next attempt
    };

    /**
     * Decide after a failed attempt. `elapsed_ms` is wall time since
     * the first attempt started; `retry_after_ms` (a server hint, 0 =
     * none) becomes the floor of the computed sleep. Never returns a
     * sleep that would overrun the deadline budget: once the budget
     * cannot fit another sleep + attempt, the answer is {false, 0} —
     * no final pointless sleep.
     */
    Decision next(std::uint64_t elapsed_ms,
                  std::uint32_t retry_after_ms = 0);

    /** Attempts granted so far (including the first). */
    std::uint32_t attempts() const { return attempts_; }

  private:
    BackoffConfig config_;
    Rng rng_;
    std::uint32_t attempts_ = 1; ///< the first attempt is underway
    std::uint32_t prev_sleep_ms_ = 0;
};

/**
 * The serve client callers program against. The data plane (run/sweep)
 * reconnects and retries idempotent requests per BackoffPolicy; with
 * max_attempts = 1 that is exactly one attempt, the plain ServeClient.
 * Each call gets its own deterministic jitter stream (config seed
 * forked by call index), so a process's retry timing replays from one
 * seed. The control plane (cacheQuery/stats/drain) is strict: never
 * retried, and a connect or transport failure throws FatalError
 * (draining a server twice because the first reply got lost is not
 * idempotent in effect, even if the frame is). Connections are
 * established lazily, on the first call.
 */
class RetryingClient
{
  public:
    RetryingClient(std::string endpoint, const BackoffConfig &config);

    /**
     * run() with retries. On exhaustion the last typed failure is
     * returned; when the deadline budget ran out mid-retry, the error
     * is DeadlineExceeded with the underlying cause in the message.
     */
    PointReply run(const RunRequest &req);

    /**
     * sweep() with retries. The grid is retried as a unit, and only
     * when the whole reply is one retryable point; per-point errors
     * inside a delivered grid are the caller's to inspect.
     */
    SweepReply sweep(const SweepRequest &req);

    /** Probe the server's result cache without simulating. */
    CacheQueryReply cacheQuery(const CacheQueryRequest &req);

    /** Server counters snapshot. */
    StatsReply stats();

    /**
     * Request a graceful drain.
     * @return true when the server was already draining.
     */
    bool drain();

    /** Data-plane attempts across all calls (telemetry). */
    std::uint64_t attemptsTotal() const { return attempts_total_; }

  private:
    /**
     * The retry loop: call `send` on a connected client until its reply
     * is not one retryable failure, the attempts run out, or the
     * deadline budget does.
     */
    template <class Reply, class Send> Reply withRetries(Send send);

    /**
     * Reconnect if needed, spending at most `remaining_ms` of the
     * request's deadline budget (max() = no deadline). A zero remainder
     * fails fast instead of dialing at all.
     */
    bool ensureConnected(std::uint64_t remaining_ms, std::string &error);

    /** The connected client for a control-plane call; fatal if none. */
    ServeClient &control();

    std::string endpoint_;
    BackoffConfig config_;
    ServeClient client_;
    std::uint64_t calls_ = 0;
    std::uint64_t attempts_total_ = 0;
};

} // namespace thermctl::serve

#endif // THERMCTL_SERVE_RETRY_HH
