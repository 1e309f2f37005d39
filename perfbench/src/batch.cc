/**
 * @file
 * paper_grid and chip16: grids run in-process through SweepEngine with
 * the disk cache off and three job threads, the seed shuffling the
 * submission order (both grid axes are permuted).
 */

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <random>
#include <sstream>
#include <thread>

#include "common/hash.hh"
#include "common/logging.hh"
#include "mirror.hh"
#include "multicore/multicore_sim.hh"
#include "sim/policy_factory.hh"
#include "workload/spec_profiles.hh"
#include "workloads.hh"

namespace perfbench
{

using namespace thermctl;

namespace
{

/** Job threads: nproc - 1 on the 4-vCPU reference machine. */
constexpr unsigned kJobs = 3;

/** Set-up repetitions; setup_s is their median. */
constexpr int kSetupReps = 5;

/** Grid points re-run untimed at jobs=1 and byte-compared. */
constexpr std::size_t kRecheckPoints = 3;

/** Points run through both engines for the traced overhead estimate. */
constexpr std::size_t kOverheadPoints = 2;

/** The THERMCTL_FAST protocol the paper-table binaries use. */
RunProtocol
paperProtocol()
{
    RunProtocol p;
    p.warmup_cycles = 120000;
    p.measure_cycles = 300000;
    return p;
}

/** 16 cores: 30 K nominal cycles keep a 108-point grid near 15 s. */
RunProtocol
chipProtocol()
{
    RunProtocol p;
    p.warmup_cycles = 10000;
    p.measure_cycles = 20000;
    return p;
}

constexpr std::uint32_t kChipCores = 16;

/** 17.5 W per core: the 4-core budget ablation's 70 W point, scaled. */
constexpr double kChipBudgetWatts = 280.0;

DtmPolicySettings
policyNamed(const std::string &name)
{
    DtmPolicySettings s;
    if (!parseDtmPolicyKind(name, s.kind))
        fatal("perfbench: unknown policy ", name);
    return s;
}

template <typename T>
void
seededShuffle(std::vector<T> &v, std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    std::shuffle(v.begin(), v.end(), rng);
}

SweepSpec
chip16Spec(std::uint64_t seed)
{
    std::vector<WorkloadProfile> profiles = allSpecProfiles();
    std::vector<std::string> policies = {"percore-PID", "adj-integral"};
    std::vector<BudgetPolicy> budgets = {BudgetPolicy::Uniform,
                                         BudgetPolicy::DemandProportional,
                                         BudgetPolicy::ThermalHeadroom};
    seededShuffle(profiles, seed);
    seededShuffle(policies, seed + 1);
    seededShuffle(budgets, seed + 2);

    SimConfig base;
    base.multicore.num_cores = kChipCores;
    base.multicore.chip_budget = kChipBudgetWatts;
    SweepSpec spec;
    spec.protocol(chipProtocol()).base(base).workloads(profiles);
    for (const auto &p : policies)
        spec.policy(policyNamed(p));
    for (BudgetPolicy b : budgets) {
        spec.variant(budgetPolicyName(b), [b](SimConfig &cfg) {
            cfg.multicore.budget_policy = b;
        });
    }
    return spec;
}

/** One untimed point per job thread, the same on every seed. */
SweepSpec
warmupSpec(bool chip)
{
    SweepSpec spec;
    for (const char *name : {"176.gcc", "186.crafty", "183.equake"})
        spec.workload(specProfile(name));
    if (chip) {
        SimConfig base;
        base.multicore.num_cores = kChipCores;
        base.multicore.chip_budget = kChipBudgetWatts;
        base.multicore.budget_policy = BudgetPolicy::DemandProportional;
        spec.protocol(chipProtocol()).base(base).policy(
            policyNamed("percore-PID"));
    } else {
        spec.protocol(paperProtocol()).policy(policyNamed("PID"));
    }
    return spec;
}

RunResult
runPoint(const SweepPoint &pt, const RunProtocol &proto)
{
    return ExperimentRunner(proto).runOne(pt.config.workload,
                                          pt.config.policy, pt.config);
}

/** Seeded sample of distinct grid positions. */
std::vector<std::size_t>
samplePositions(std::size_t n, std::size_t k, std::uint64_t seed)
{
    std::vector<std::size_t> idx(n);
    for (std::size_t i = 0; i < n; ++i)
        idx[i] = i;
    seededShuffle(idx, seed);
    idx.resize(std::min(k, n));
    return idx;
}

/** Compare a grid's digest with its pin; record a mismatch if not. */
void
checkPin(const RunOptions &opts, std::uint64_t digest, Report &report)
{
    const std::uint64_t pin = pinnedDigest(opts.pins_path, opts.workload);
    if (pin == 0) {
        report.mismatch("no digest pinned for " + opts.workload + " in "
                        + opts.pins_path + " (this grid digests to "
                        + hashHex(digest) + ")");
    } else if (digest != pin) {
        report.mismatch("grid digest " + hashHex(digest) + " != pinned "
                        + hashHex(pin));
    }
}

/** Untraced timed phase: whole grid passes while the budget lasts. */
void
timedPasses(const RunOptions &opts, const SweepSpec &spec,
            const SweepOptions &engine_opts, Report &report)
{
    SweepEngine engine(engine_opts);
    const std::vector<SweepPoint> points = spec.points();
    const RunProtocol proto = spec.runProtocol();
    const std::size_t n = points.size();
    const std::uint64_t cycles_per_point =
        (proto.warmup_cycles + proto.measure_cycles)
        * std::max<std::uint32_t>(1, spec.baseConfig().multicore.num_cores);

    std::vector<Clock::time_point> started(n);
    std::vector<double> point_s;
    double busy_s = 0.0;
    engine.setTelemetry(SweepTelemetry{
        [&](const SweepPoint &pt, std::size_t) {
            started[pt.index] = Clock::now();
        },
        [&](const SweepOutcome &oc, std::size_t) {
            const double s =
                secondsBetween(started[oc.point.index], Clock::now());
            point_s.push_back(s);
            busy_s += s;
        }});

    std::vector<std::pair<std::string, std::string>> first_pass;
    double wall_s = 0.0;
    std::size_t passes = 0;
    double last_pass_s = 0.0;
    do {
        const Clock::time_point p0 = Clock::now();
        const SweepResults results = engine.run(spec);
        last_pass_s = secondsBetween(p0, Clock::now());
        wall_s += last_pass_s;
        ++passes;

        std::vector<std::pair<std::string, std::string>> keyed;
        for (const SweepOutcome &oc : results.outcomes())
            keyed.emplace_back(oc.point.key, serializeRunResult(oc.result));
        report.attempted += n;
        checkPin(opts, gridDigest(keyed), report);
        if (first_pass.empty())
            first_pass = std::move(keyed);
    } while (wall_s + last_pass_s <= opts.seconds);

    // Re-run a seeded sample untimed at jobs=1 and byte-compare.
    std::map<std::string, std::string> by_key(first_pass.begin(),
                                              first_pass.end());
    for (std::size_t i : samplePositions(n, kRecheckPoints, opts.seed)) {
        ++report.attempted;
        const std::string bytes =
            serializeRunResult(runPoint(points[i], proto));
        if (bytes != by_key[points[i].key])
            report.mismatch("jobs=1 re-run of " + points[i].key
                            + " differs from the pooled result");
    }

    const std::size_t done = passes * n;
    const double q = highestReportableQuantile(point_s.size());
    report.set("ops_per_s", static_cast<double>(done) / wall_s, "1/s",
               done);
    report.set("op_p50_ms", quantile(point_s, 0.5) * 1e3, "ms",
               point_s.size());
    report.set("op_p90_ms", quantile(point_s, 0.9) * 1e3, "ms",
               point_s.size());
    report.set("sim_mcycles_per_s",
               static_cast<double>(done * cycles_per_point) / wall_s / 1e6,
               "Mcycle/s", done);
    report.set("point_p50_s", quantile(point_s, 0.5), "s", point_s.size());
    report.set("point_p90_s", quantile(point_s, 0.9), "s", point_s.size());
    if (q > 0.9) {
        std::ostringstream name;
        name << "point_p" << q * 100 << "_s";
        report.set(name.str(), quantile(point_s, q), "s", point_s.size());
    }
    report.set("pool_busy_share", busy_s / (kJobs * wall_s), "share",
               passes);

}

/** Traced timed phase: one pass of the timing mirror on kJobs threads. */
void
tracedPass(const RunOptions &opts, const SweepSpec &spec, bool chip,
           Report &report)
{
    const std::vector<SweepPoint> points = spec.points();
    const RunProtocol proto = spec.runProtocol();
    const std::size_t n = points.size();
    const Clock::time_point epoch = Clock::now();

    std::vector<Span> spans(n + 1);
    std::vector<std::string> bytes(n);
    std::vector<LayerTimes> times(n);
    std::atomic<std::size_t> next{0};
    auto worker = [&]() {
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= n)
                return;
            Span &s = spans[i + 1];
            s.start_s = secondsBetween(epoch, Clock::now());
            const RunResult r = chip
                ? runTimedMulticore(points[i].config, proto, times[i])
                : runTimedSingleCore(points[i].config, proto, times[i]);
            s.end_s = secondsBetween(epoch, Clock::now());
            bytes[i] = serializeRunResult(r);
        }
    };
    std::vector<std::thread> pool;
    for (unsigned j = 0; j < kJobs; ++j)
        pool.emplace_back(worker);
    for (auto &t : pool)
        t.join();
    const double wall_s = secondsBetween(epoch, Clock::now());

    spans[0] = Span{"sim.grid_pass", 1, 0, opts.workload, 0.0, wall_s, {}};
    LayerTimes total;
    double busy_s = 0.0;
    std::vector<std::pair<std::string, std::string>> keyed;
    for (std::size_t i = 0; i < n; ++i) {
        const LayerTimes &t = times[i];
        Span &s = spans[i + 1];
        s.name = "sim.point";
        s.id = i + 2;
        s.parent = 1;
        s.ref = points[i].key;
        s.attrs = {
            {"cycles", static_cast<double>(t.cycles)},
            {"workload.next.calls", static_cast<double>(t.next_calls)},
            {"workload.next.busy_ns", static_cast<double>(t.next_ns)},
            {"cpu.tick.busy_ns", static_cast<double>(t.core_ns)},
            {"power.cycle.busy_ns", static_cast<double>(t.power_ns)},
            {"thermal.step.busy_ns", static_cast<double>(t.thermal_ns)},
            {"dtm.tick.busy_ns", static_cast<double>(t.dtm_ns)},
            {"sim.tick.busy_ns", static_cast<double>(t.tick_ns)},
            {"multicore.core_cycles", static_cast<double>(t.mc_core_cycles)},
            {"multicore.run.busy_ns", static_cast<double>(t.mc_run_ns)},
        };
        busy_s += s.end_s - s.start_s;
        total.add(t);
        keyed.emplace_back(points[i].key, bytes[i]);
    }
    report.attempted += n;
    checkPin(opts, gridDigest(keyed), report);
    if (!writeSpans(opts.trace_path, spans))
        report.mismatch("cannot write spans to " + opts.trace_path);

    if (chip)
        reportMulticoreLayers(total, report);
    else
        reportSingleCoreLayers(total, report);
    report.set("sim.pool_busy_share", busy_s / (kJobs * wall_s), "share",
               n);

    // Tracing overhead: the same points, serially, untraced vs traced.
    // The order alternates so neither side always runs on cold caches.
    double plain_s = 0.0, traced_s = 0.0;
    bool traced_first = false;
    for (std::size_t i :
         samplePositions(n, kOverheadPoints, opts.seed + 7)) {
        RunResult plain, traced;
        LayerTimes scratch;
        for (int side = 0; side < 2; ++side) {
            const Clock::time_point a = Clock::now();
            if ((side == 0) == traced_first) {
                traced = chip
                    ? runTimedMulticore(points[i].config, proto, scratch)
                    : runTimedSingleCore(points[i].config, proto, scratch);
                traced_s += secondsBetween(a, Clock::now());
            } else {
                plain = runPoint(points[i], proto);
                plain_s += secondsBetween(a, Clock::now());
            }
        }
        traced_first = !traced_first;
        ++report.attempted;
        if (serializeRunResult(plain) != serializeRunResult(traced))
            report.mismatch("traced " + points[i].key
                            + " differs from the engine's result");
    }
    report.set("trace.overhead_share", traced_s / plain_s - 1.0, "share",
               kOverheadPoints);
}

} // namespace

SweepSpec
paperGridSpec(std::uint64_t seed)
{
    std::vector<WorkloadProfile> profiles = allSpecProfiles();
    std::vector<DtmPolicyKind> kinds(kAllPolicies.begin(),
                                     kAllPolicies.end());
    seededShuffle(profiles, seed);
    seededShuffle(kinds, seed + 1);
    SweepSpec spec;
    spec.protocol(paperProtocol()).workloads(profiles);
    for (DtmPolicyKind k : kinds) {
        DtmPolicySettings s;
        s.kind = k;
        spec.policy(s);
    }
    return spec;
}

std::uint64_t
pinnedDigest(const std::string &pins_path, const std::string &workload)
{
    std::ifstream in(pins_path);
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        std::string name, hex;
        if (fields >> name >> hex && name == workload)
            return std::stoull(hex, nullptr, 16);
    }
    return 0;
}

bool
mirrorSelfCheck(std::uint64_t seed, Report &report)
{
    const SweepSpec spec = paperGridSpec(seed);
    const std::vector<SweepPoint> points = spec.points();
    const SweepPoint &pt =
        points[samplePositions(points.size(), 1, seed + 13).front()];
    LayerTimes scratch;
    const std::string mirror = serializeRunResult(
        runTimedSingleCore(pt.config, spec.runProtocol(), scratch));
    const std::string engine =
        serializeRunResult(runPoint(pt, spec.runProtocol()));
    ++report.attempted;
    if (mirror != engine) {
        report.mismatch("timing mirror disagrees with Simulator on "
                        + pt.key + "; per-layer numbers withheld");
        return false;
    }
    return true;
}

Report
runBatch(const RunOptions &opts)
{
    multicore::ensureBackendRegistered();
    const bool chip = opts.workload == "chip16";
    Report report;
    report.workload = opts.workload;

    SweepOptions so;
    so.jobs = kJobs;
    so.use_cache = false;

    // Set-up: build the grid and the engine, then warm every job thread
    // with one untimed point. Repeated; setup_s is the median.
    std::vector<double> setup_s;
    SweepSpec spec;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        const Clock::time_point t0 = Clock::now();
        spec = chip ? chip16Spec(opts.seed) : paperGridSpec(opts.seed);
        const SweepEngine engine(so);
        (void)engine.run(warmupSpec(chip));
        setup_s.push_back(secondsBetween(t0, Clock::now()));
    }

    if (opts.trace) {
        if (!mirrorSelfCheck(opts.seed, report))
            return report;
        tracedPass(opts, spec, chip, report);
        return report;
    }

    report.set("setup_s", median(setup_s), "s", setup_s.size());
    timedPasses(opts, spec, so, report);
    report.set("peak_rss_mb", readPeakRssMb(getpid()), "MiB", 1);
    return report;
}

} // namespace perfbench
