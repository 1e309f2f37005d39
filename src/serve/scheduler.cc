#include "serve/scheduler.hh"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/logging.hh"
#include "common/mutex.hh"
#include "fault/fault.hh"
#include "sim/policy_factory.hh"
#include "workload/spec_profiles.hh"

namespace thermctl::serve
{

using Clock = std::chrono::steady_clock;

/** One admitted point from submit() until its promise is fulfilled. */
struct Scheduler::Pending
{
    ResolvedPoint point;
    Clock::time_point enqueued;
    Clock::time_point deadline; ///< meaningful only when has_deadline
    bool has_deadline = false;
    std::promise<OutcomePtr> promise;
    std::shared_future<OutcomePtr> future;

    // Guarded by Scheduler::mutex_ (annotation impossible on an inner
    // struct member referring to an instance mutex).
    bool dispatched = false; ///< handed to runBatch by takeBatch()
    bool fulfilled = false;  ///< promise set (by finish or watchdog)
    Clock::time_point dispatch_started;
};

ResolvedPoint
resolvePoint(const PointSpec &spec, const SimConfig &base)
{
    ResolvedPoint pt;
    pt.config = base;
    pt.config.workload = specProfile(spec.benchmark);
    if (!parseDtmPolicyKind(spec.policy, pt.config.policy.kind)) {
        std::string all;
        for (const auto &n : dtmPolicyNames())
            all += all.empty() ? n : "|" + n;
        fatal("unknown policy '", spec.policy, "' (expected one of ",
              all, ")");
    }
    if (spec.ct_setpoint != 0.0) {
        pt.config.policy.ct_setpoint = spec.ct_setpoint;
        pt.config.policy.ct_range_low = spec.ct_setpoint - 0.2;
    }
    if (spec.sample_interval != 0)
        pt.config.dtm.sample_interval = spec.sample_interval;
    // Multicore knobs: zero keeps the server-side config default. The
    // values were range-checked at decode time (multicoreKnobsValid),
    // so resolution never fatals on client input.
    if (spec.num_cores != 0)
        pt.config.multicore.num_cores = spec.num_cores;
    if (spec.coupling_r != 0.0)
        pt.config.multicore.coupling_resistance = spec.coupling_r;
    if (spec.chip_budget != 0.0)
        pt.config.multicore.chip_budget = spec.chip_budget;
    if (spec.budget_policy != 0) {
        pt.config.multicore.budget_policy =
            static_cast<BudgetPolicy>(spec.budget_policy);
    }
    pt.proto.warmup_cycles = spec.warmup_cycles;
    pt.proto.measure_cycles = spec.measure_cycles;
    pt.key = sweepKey(pt.config.workload.name,
                      dtmPolicyKindName(pt.config.policy.kind));
    pt.digest = sweepConfigDigest(pt.config, pt.proto);
    return pt;
}

namespace
{

/**
 * Batch-grouping digest: everything the full digest covers except the
 * workload. Points sharing it differ only in workload, so one
 * SweepSpec (base + workload list) reproduces each of them exactly.
 */
std::uint64_t
groupDigest(const ResolvedPoint &pt)
{
    SimConfig neutral = pt.config;
    neutral.workload = WorkloadProfile{};
    return sweepConfigDigest(neutral, pt.proto);
}

/** @return an immediately resolved ticket carrying a typed error. */
Scheduler::Ticket
rejectedTicket(ServeError code, std::string message,
               std::uint32_t retry_after_ms = 0)
{
    auto outcome = std::make_shared<Scheduler::Outcome>();
    outcome->error = code;
    outcome->message = std::move(message);
    outcome->retry_after_ms = retry_after_ms;
    std::promise<Scheduler::OutcomePtr> promise;
    promise.set_value(std::move(outcome));
    Scheduler::Ticket t;
    t.future = promise.get_future().share();
    t.rejected = true;
    return t;
}

} // namespace

Scheduler::Scheduler(const Options &opts)
    : opts_(opts), engine_(opts.sweep),
      latency_hist_ms_(0.0, 60000.0, 6000)
{
    const unsigned n = std::max(1u, opts_.dispatchers);
    dispatchers_.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        dispatchers_.emplace_back([this] { dispatchLoop(); });
    if (opts_.watchdog_ms > 0)
        watchdog_ = std::thread([this] { watchdogLoop(); });
}

Scheduler::~Scheduler()
{
    stop();
}

Scheduler::Ticket
Scheduler::submit(const ResolvedPoint &point, std::uint64_t deadline_ms)
{
    MutexLock lock(mutex_);
    counters_.submitted++;

    if (draining_ || stopping_)
        return rejectedTicket(ServeError::Draining,
                              "server is draining; request refused");

    // Single-flight: identical work already queued or running.
    if (auto it = inflight_.find(point.digest); it != inflight_.end()) {
        counters_.coalesced++;
        Ticket t;
        t.future = it->second->future;
        t.coalesced = true;
        return t;
    }

    if (queue_.size() >= opts_.max_queue) {
        counters_.rejected_overload++;
        // Retry-after hint: roughly when the backlog ahead of a retry
        // should have cleared — mean point latency scaled by the queue
        // per dispatcher, clamped to something a client can live with.
        double hint_ms = 100.0;
        if (latency_ms_.count() > 0) {
            hint_ms = latency_ms_.mean()
                      * (1.0 + static_cast<double>(queue_.size()))
                      / std::max(1u, opts_.dispatchers);
        }
        hint_ms = std::clamp(hint_ms, 25.0, 5000.0);
        return rejectedTicket(
            ServeError::Overloaded,
            "request queue full (" + std::to_string(opts_.max_queue)
                + " points); retry later",
            static_cast<std::uint32_t>(hint_ms));
    }

    auto p = std::make_shared<Pending>();
    p->point = point;
    p->enqueued = Clock::now();
    if (deadline_ms != 0) {
        p->has_deadline = true;
        p->deadline =
            p->enqueued + std::chrono::milliseconds(deadline_ms);
    }
    p->future = p->promise.get_future().share();

    queue_.push_back(p);
    inflight_.emplace(point.digest, p);
    counters_.queue_high_water =
        std::max<std::uint64_t>(counters_.queue_high_water,
                                queue_.size());
    work_cv_.notify_one();

    Ticket t;
    t.future = p->future;
    return t;
}

void
Scheduler::pauseDispatch()
{
    MutexLock lock(mutex_);
    paused_ = true;
}

void
Scheduler::resumeDispatch()
{
    MutexLock lock(mutex_);
    paused_ = false;
    work_cv_.notify_all();
}

void
Scheduler::beginDrain()
{
    MutexLock lock(mutex_);
    draining_ = true;
    // Drain overrides a test-paused dispatcher: queued work must finish.
    paused_ = false;
    work_cv_.notify_all();
}

void
Scheduler::awaitIdle()
{
    MutexLock lock(mutex_);
    while (!(queue_.empty() && dispatching_ == 0 && inflight_.empty()))
        idle_cv_.wait(mutex_);
}

void
Scheduler::stop()
{
    {
        MutexLock lock(mutex_);
        if (stopping_)
            return;
        draining_ = true;
        paused_ = false;
        stopping_ = true;
        work_cv_.notify_all();
        watchdog_cv_.notify_all();
    }
    for (auto &t : dispatchers_)
        t.join();
    dispatchers_.clear();
    if (watchdog_.joinable())
        watchdog_.join();
}

SchedulerStats
Scheduler::stats() const
{
    MutexLock lock(mutex_);
    SchedulerStats s = counters_;
    s.queue_depth = queue_.size();
    s.latency_count = latency_ms_.count();
    s.latency_mean_ms = latency_ms_.mean();
    s.latency_p50_ms = latency_hist_ms_.quantile(0.50);
    s.latency_p90_ms = latency_hist_ms_.quantile(0.90);
    s.latency_p99_ms = latency_hist_ms_.quantile(0.99);
    return s;
}

std::vector<std::shared_ptr<Scheduler::Pending>>
Scheduler::takeBatch()
{
    std::vector<std::shared_ptr<Pending>> batch(queue_.begin(),
                                                queue_.end());
    queue_.clear();
    dispatching_ += batch.size();
    const auto now = Clock::now();
    for (auto &p : batch) {
        p->dispatched = true;
        p->dispatch_started = now;
    }
    return batch;
}

void
Scheduler::dispatchLoop()
{
    MutexLock lock(mutex_);
    for (;;) {
        while (!(stopping_ || (!paused_ && !queue_.empty())))
            work_cv_.wait(mutex_);
        if (queue_.empty()) {
            if (stopping_)
                return;
            continue;
        }

        // Batch window: give concurrent clients a moment to land their
        // requests so duplicates coalesce and compatible points share
        // one engine invocation.
        if (opts_.batch_window_ms > 0 && !stopping_) {
            const auto until =
                Clock::now()
                + std::chrono::milliseconds(opts_.batch_window_ms);
            while (!stopping_ && work_cv_.waitUntil(mutex_, until)) {
                // Woken before the window closed; keep collecting
                // until the deadline unless a stop arrived.
            }
        }

        auto batch = takeBatch();
        lock.unlock();
        runBatch(std::move(batch));
        lock.lock();
        idle_cv_.notify_all();
    }
}

void
Scheduler::finish(const std::shared_ptr<Pending> &p, Outcome outcome)
{
    outcome.server_ms =
        std::chrono::duration<double, std::milli>(Clock::now()
                                                  - p->enqueued)
            .count();
    const double ms = outcome.server_ms;
    const bool ok = outcome.error == ServeError::None;
    const bool hit = outcome.cache_hit;
    bool deliver = false;
    {
        MutexLock lock(mutex_);
        deliver = !p->fulfilled;
        p->fulfilled = true;
        // Un-register before fulfilling: a digest is coalescible only
        // while its outcome is still pending. Compare pointers — the
        // watchdog may have failed this point already, after which the
        // same digest can be re-admitted as a fresh Pending.
        if (auto it = inflight_.find(p->point.digest);
            it != inflight_.end() && it->second == p) {
            inflight_.erase(it);
        }
        dispatching_--;
        if (deliver && ok) {
            latency_ms_.add(ms);
            latency_hist_ms_.add(ms);
            if (hit)
                counters_.cache_hits++;
            else
                counters_.simulated++;
        }
    }
    // A watchdog-failed point already carries a Stalled outcome; the
    // late real result is dropped (the client was told, typed).
    if (deliver) {
        p->promise.set_value(
            std::make_shared<const Outcome>(std::move(outcome)));
    }
}

void
Scheduler::watchdogLoop()
{
    const auto limit = std::chrono::milliseconds(opts_.watchdog_ms);
    const auto period =
        std::chrono::milliseconds(std::max(1u, opts_.watchdog_ms / 2));
    MutexLock lock(mutex_);
    while (!stopping_) {
        watchdog_cv_.waitUntil(mutex_, Clock::now() + period);
        if (stopping_)
            return;
        const auto now = Clock::now();
        std::vector<std::shared_ptr<Pending>> expired;
        for (auto it = inflight_.begin(); it != inflight_.end();) {
            const auto &p = it->second;
            if (p->dispatched && !p->fulfilled
                && now - p->dispatch_started > limit) {
                p->fulfilled = true;
                counters_.stalled++;
                expired.push_back(p);
                it = inflight_.erase(it);
            } else {
                ++it;
            }
        }
        if (expired.empty())
            continue;
        // Fulfill outside the lock; finish() later only drops the late
        // result and decrements dispatching_, so drain stays correct.
        lock.unlock();
        for (const auto &p : expired) {
            Outcome oc;
            oc.error = ServeError::Stalled;
            oc.message = "batch dispatch made no progress for "
                         + std::to_string(opts_.watchdog_ms) + " ms";
            oc.server_ms =
                std::chrono::duration<double, std::milli>(now
                                                          - p->enqueued)
                    .count();
            p->promise.set_value(
                std::make_shared<const Outcome>(std::move(oc)));
        }
        lock.lock();
    }
}

void
Scheduler::runBatch(std::vector<std::shared_ptr<Pending>> batch)
{
    // Expired deadlines fail fast without costing a simulation.
    const auto now = Clock::now();
    std::vector<std::shared_ptr<Pending>> live;
    live.reserve(batch.size());
    for (auto &p : batch) {
        if (p->has_deadline && now > p->deadline) {
            {
                MutexLock lock(mutex_);
                counters_.rejected_deadline++;
            }
            Outcome oc;
            oc.error = ServeError::DeadlineExceeded;
            oc.message = "deadline expired before dispatch";
            finish(p, std::move(oc));
        } else {
            live.push_back(std::move(p));
        }
    }

    // Group points that differ only in workload into shared grids.
    std::unordered_map<std::uint64_t, std::vector<std::size_t>> groups;
    for (std::size_t i = 0; i < live.size(); ++i)
        groups[groupDigest(live[i]->point)].push_back(i);

    for (const auto &[digest, members] : groups) {
        (void)digest;
        const auto fp = THERMCTL_FAULT_POINT("sched.batch");
        if (fp.stall()) {
            // A wedged engine invocation: the watchdog (when enabled)
            // must fail these points rather than hang the drain.
            std::this_thread::sleep_for(
                std::chrono::milliseconds(fp.stall_ms));
        }
        const ResolvedPoint &rep = live[members.front()]->point;
        SweepSpec spec;
        spec.protocol(rep.proto).base(rep.config);
        for (std::size_t i : members)
            spec.workload(live[i]->point.config.workload);

        try {
            const SweepResults results = engine_.run(spec);
            // points() iterates workloads in insertion order with the
            // single (base) policy, so outcomes align with `members`.
            const auto &outcomes = results.outcomes();
            for (std::size_t j = 0; j < members.size(); ++j) {
                Outcome oc;
                oc.result = outcomes[j].result;
                oc.cache_hit = outcomes[j].cache_hit;
                finish(live[members[j]], std::move(oc));
            }
        } catch (const std::exception &e) {
            {
                MutexLock lock(mutex_);
                counters_.failed += members.size();
            }
            for (std::size_t i : members) {
                Outcome oc;
                oc.error = ServeError::Internal;
                oc.message = e.what();
                finish(live[i], std::move(oc));
            }
        }
    }
}

} // namespace thermctl::serve
