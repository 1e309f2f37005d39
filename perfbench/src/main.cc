/**
 * @file
 * perfbench — the repository benchmark driver. run.py builds it and
 * calls it once per workload:
 *
 *   perfbench --workload paper_grid|chip16|serve_split --seed N
 *             --seconds S --trace 0|1 --pins FILE --daemon PATH
 *             --tmp-dir DIR [--trace-out FILE]
 *
 * Prints `<workload>/<metric> value unit (n=samples)` lines, then one
 * JSON line. Exit status: 0 when every output check passed, 1 when a
 * check failed, 2 on a usage or start-up error.
 */

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "metrics.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

/** Removes the run's scratch directory on every exit path. */
class ScratchDir
{
  public:
    explicit ScratchDir(std::string path) : path_(std::move(path))
    {
        std::filesystem::create_directories(path_);
    }
    ~ScratchDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }
    ScratchDir(const ScratchDir &) = delete;
    ScratchDir &operator=(const ScratchDir &) = delete;

  private:
    std::string path_;
};

/**
 * Pin every knob the program reads from the environment, so the
 * caller's settings cannot change a workload. Job counts are passed
 * explicitly; the cache directory points into the run's scratch.
 */
void
isolateEnvironment(const std::string &tmp)
{
    setenv("THERMCTL_JOBS", "3", 1);
    setenv("THERMCTL_CACHE_DIR", (tmp + "/unused-cache").c_str(), 1);
    setenv("THERMCTL_NO_CACHE", "0", 1);
    setenv("THERMCTL_FAST", "0", 1);
    setenv("THERMCTL_QUIET", "1", 1);
    unsetenv("THERMCTL_SOCKET");
}

/**
 * Probe slices before and after each untraced run, and the probe time on
 * the reference machine in a quiet stretch (4 vCPUs, 3 probe threads).
 */
constexpr int kProbeSlices = 2;
constexpr unsigned kProbeThreads = 3;
constexpr double kProbeRefSeconds = 0.30;

/**
 * Express the gated time metrics at the reference host speed. The host
 * this runs on drifts by up to 1.6x over minutes; the probe drifts with
 * it, and the ratio moves about a third as much (README.md, "Noise").
 * The raw values stay printed under their own names.
 */
void
normalizeToReferenceHost(const std::vector<double> &probe_s, Report &report)
{
    const double speed = kProbeRefSeconds / median(probe_s);
    report.set("host_speed", speed, "x", probe_s.size());
    const Metric setup = report.metrics["setup_s"];
    report.set("setup_raw_s", setup.value, setup.unit, setup.samples);
    for (const char *name : {"setup_s", "op_p50_ms", "op_p90_ms"})
        report.metrics[name].value *= speed;
    report.metrics["ops_per_s"].value /= speed;
}

std::vector<double>
probeSlices()
{
    std::vector<double> out;
    for (int i = 0; i < kProbeSlices; ++i) {
        const double s = probeHostSeconds(kProbeThreads);
        if (s <= 0.0)
            thermctl::fatal("host-speed probe failed");
        out.push_back(s);
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions opts;
    std::string tmp_root;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (i + 1 >= argc)
                thermctl::fatal("missing value for ", arg);
            const std::string v = argv[++i];
            if (arg == "--workload")
                opts.workload = v;
            else if (arg == "--seed")
                opts.seed = std::stoull(v);
            else if (arg == "--seconds")
                opts.seconds = std::stod(v);
            else if (arg == "--trace")
                opts.trace = v == "1";
            else if (arg == "--pins")
                opts.pins_path = v;
            else if (arg == "--daemon")
                opts.daemon_path = v;
            else if (arg == "--tmp-dir")
                tmp_root = v;
            else if (arg == "--trace-out")
                opts.trace_path = v;
            else
                thermctl::fatal("unknown option ", arg);
        }
        if (tmp_root.empty() || opts.seconds <= 0.0)
            thermctl::fatal("--tmp-dir and a positive --seconds are needed");
        opts.tmp_dir = tmp_root + "/run-" + std::to_string(getpid());
        if (opts.trace_path.empty())
            opts.trace_path = opts.tmp_dir + ".spans.json";
        const ScratchDir scratch(opts.tmp_dir);
        isolateEnvironment(opts.tmp_dir);

        Report (*run)(const RunOptions &) = nullptr;
        if (opts.workload == "paper_grid" || opts.workload == "chip16")
            run = runBatch;
        else if (opts.workload == "serve_split")
            run = runServeSplit;
        else
            thermctl::fatal("unknown workload '", opts.workload, "'");

        // The first probe slices also bring idle vCPUs up to speed
        // before set-up is timed.
        std::vector<double> probe_s;
        if (!opts.trace)
            probe_s = probeSlices();
        Report report = run(opts);
        if (!opts.trace && report.correct) {
            for (double s : probeSlices())
                probe_s.push_back(s);
            normalizeToReferenceHost(probe_s, report);
        }
        printReport(report, std::cout);
        return report.correct ? 0 : 1;
    } catch (const thermctl::FatalError &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 2;
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 2;
    }
}
