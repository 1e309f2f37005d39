#include "serve/retry.hh"

#include <algorithm>
#include <chrono>
#include <limits>
#include <thread>

namespace thermctl::serve
{

BackoffPolicy::BackoffPolicy(const BackoffConfig &config)
    : config_(config), rng_(config.seed)
{
}

BackoffPolicy::Decision
BackoffPolicy::next(std::uint64_t elapsed_ms,
                    std::uint32_t retry_after_ms)
{
    if (attempts_ >= std::max(1u, config_.max_attempts))
        return {false, 0};

    // Decorrelated jitter (AWS architecture blog): each sleep is drawn
    // from uniform[base, 3 * previous), clamped to the cap. Unlike
    // plain exponential-with-jitter this decorrelates concurrent
    // clients quickly while still growing geometrically in expectation.
    const double base = static_cast<double>(std::max(1u, config_.base_ms));
    const double prev =
        prev_sleep_ms_ > 0 ? static_cast<double>(prev_sleep_ms_) : base;
    double sleep = rng_.uniform(base, std::max(base + 1.0, prev * 3.0));
    sleep = std::min(sleep, static_cast<double>(config_.cap_ms));
    // A server retry-after hint floors the sleep: the server knows its
    // backlog better than our local guess does.
    sleep = std::max(sleep, static_cast<double>(retry_after_ms));
    sleep = std::min(sleep, static_cast<double>(config_.cap_ms));

    auto sleep_ms = static_cast<std::uint32_t>(sleep);
    if (config_.deadline_ms != 0
        && elapsed_ms + sleep_ms >= config_.deadline_ms) {
        // The budget cannot fit the sleep plus any useful attempt:
        // report exhaustion now rather than sleeping into the deadline.
        return {false, 0};
    }

    attempts_++;
    prev_sleep_ms_ = sleep_ms;
    return {true, sleep_ms};
}

RetryingClient::RetryingClient(std::string endpoint,
                               const BackoffConfig &config)
    : endpoint_(std::move(endpoint)), config_(config)
{
}

namespace
{

using Clock = std::chrono::steady_clock;

/** "No deadline" sentinel for a remaining-budget value. */
constexpr std::uint64_t kNoBudget =
    std::numeric_limits<std::uint64_t>::max();

/** @return true when `error` is worth another attempt. */
bool
retryable(ServeError error)
{
    return error == ServeError::Transport
           || error == ServeError::Overloaded;
}

std::uint64_t
elapsedMs(Clock::time_point since)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            Clock::now() - since)
            .count());
}

/** Exhausted budget: wrap the last failure in a DeadlineExceeded. */
PointReply
budgetExhausted(const PointReply &last, std::uint32_t attempts)
{
    PointReply p;
    p.error = ServeError::DeadlineExceeded;
    p.message = "retry budget exhausted after "
                + std::to_string(attempts) + " attempt(s); last error: "
                + serveErrorName(last.error)
                + (last.message.empty() ? "" : " (" + last.message + ")");
    return p;
}

/**
 * The whole-request failure a reply carries, or nullptr when it was
 * delivered: a run reply is its own point; a sweep counts only when the
 * whole reply is one point.
 */
const PointReply *
wholeFailure(const PointReply &reply)
{
    return &reply;
}

const PointReply *
wholeFailure(const SweepReply &reply)
{
    return reply.points.size() == 1 ? &reply.points[0] : nullptr;
}

/** Replace `reply` with the single failure point `p`. */
void
setFailure(PointReply &reply, PointReply p)
{
    reply = std::move(p);
}

void
setFailure(SweepReply &reply, PointReply p)
{
    reply.points.assign(1, std::move(p));
}

} // namespace

bool
RetryingClient::ensureConnected(std::uint64_t remaining_ms,
                                std::string &error)
{
    if (client_.connected())
        return true;
    if (remaining_ms == 0) {
        // The budget is already gone: dialing now could only stretch
        // the request past its deadline, so fail fast instead.
        error = "deadline exhausted before reconnect";
        return false;
    }
    std::uint64_t timeout = config_.connect_timeout_ms;
    if (remaining_ms != kNoBudget)
        timeout = timeout == 0
                      ? remaining_ms
                      : std::min<std::uint64_t>(timeout, remaining_ms);
    client_ = ServeClient::tryConnect(
        endpoint_, static_cast<unsigned>(timeout), error);
    return client_.connected();
}

template <class Reply, class Send>
Reply
RetryingClient::withRetries(Send send)
{
    BackoffConfig config = config_;
    config.seed = Rng(config_.seed).fork(calls_++).next();
    BackoffPolicy policy(config);
    const auto started = Clock::now();
    auto remaining = [&]() -> std::uint64_t {
        if (config.deadline_ms == 0)
            return kNoBudget;
        const std::uint64_t e = elapsedMs(started);
        return e >= config.deadline_ms ? 0 : config.deadline_ms - e;
    };

    Reply last;
    for (;;) {
        attempts_total_++;
        std::string error;
        if (ensureConnected(remaining(), error)) {
            last = send(client_);
        } else {
            PointReply p;
            p.error = ServeError::Transport;
            p.message = error;
            setFailure(last, std::move(p));
        }
        const PointReply *failed = wholeFailure(last);
        if (!failed || !retryable(failed->error))
            return last;

        const auto d = policy.next(elapsedMs(started),
                                   failed->retry_after_ms);
        if (!d.retry) {
            // With retries disabled (max_attempts=1) behave exactly
            // like the plain client: surface the typed error as-is.
            if (policy.attempts() > 1)
                setFailure(last, budgetExhausted(*failed,
                                                 policy.attempts()));
            return last;
        }
        if (d.sleep_ms > 0) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(d.sleep_ms));
        }
    }
}

PointReply
RetryingClient::run(const RunRequest &req)
{
    return withRetries<PointReply>(
        [&](ServeClient &client) { return client.run(req); });
}

SweepReply
RetryingClient::sweep(const SweepRequest &req)
{
    return withRetries<SweepReply>(
        [&](ServeClient &client) { return client.sweep(req); });
}

ServeClient &
RetryingClient::control()
{
    if (!client_.connected())
        client_ = ServeClient::connect(endpoint_);
    return client_;
}

CacheQueryReply
RetryingClient::cacheQuery(const CacheQueryRequest &req)
{
    return control().cacheQuery(req);
}

StatsReply
RetryingClient::stats()
{
    return control().stats();
}

bool
RetryingClient::drain()
{
    return control().drain();
}

} // namespace thermctl::serve
