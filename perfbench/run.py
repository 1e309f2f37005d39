#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload paper_grid|chip16|serve_split|all
                             [--seed N] [--seconds S] [--trace 0|1]

Builds the thermctl libraries, the thermctl_serve daemon and the
benchmark driver from this checkout into .bench_build/perfbench, runs
the driver, and passes its output through. Every metric is printed as
`<workload>/<metric> value unit (n=samples)`; the last line is one JSON
object with `correct`, `attempted`, `failed` and `metrics`, holding the
metrics BENCHMARK.json declares (end-to-end with --trace 0, per-layer
with --trace 1). The exit status is nonzero when a correctness check
failed or nothing could be measured. See perfbench/README.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["paper_grid", "chip16", "serve_split"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
BUILD_JOBS = "3"


def log(*parts):
    print("perfbench:", *parts, file=sys.stderr, flush=True)


def build(root, build_dir):
    """Configure once, then bring the driver and daemon up to date."""
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B",
                      str(build_dir), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "-j", BUILD_JOBS,
                  "--target", "perfbench", "thermctl_serve_bin"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            log("build step failed:", " ".join(cmd))
            return False
    return True


def declared_metrics(root, trace):
    """The metric set of this mode, as BENCHMARK.json declares it."""
    with open(root / "BENCHMARK.json") as f:
        bench = json.load(f)
    return bench["per_layer" if trace else "end_to_end"]


def select_metrics(workload, result, declared, trace):
    """Keep the declared metrics of a driver result. A per-layer metric
    the workload does not reach reads 0; a missing end-to-end metric or
    a unit that disagrees with BENCHMARK.json is an error (None)."""
    got = result["metrics"]
    out = {}
    for d in declared:
        m = got.get(d["name"])
        if m is None and trace:
            log(f"{workload} does not reach {d['name']}; it reads 0")
            m = {"value": 0.0, "unit": d["unit"]}
        elif m is None:
            if result["correct"]:
                log(workload, "did not report", d["name"])
                return None
            continue
        elif m["unit"] != d["unit"]:
            log(workload, d["name"], "is in", m["unit"], "but BENCHMARK.json"
                " says", d["unit"])
            return None
        out[d["name"]] = m
    return out


def run_driver(cmd):
    """Run one workload in its own process group, so a timeout also
    reaps the daemon it spawned. Returns (exit code, stdout lines)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("workload run exceeded", RUN_TIMEOUT_S, "s; killed")
        return 3, []
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out.splitlines()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        log("no thermctl sources next to perfbench/ (", root / "src",
            "); nothing to measure")
        return 2
    os.chdir(root)
    declared = declared_metrics(root, args.trace)
    build_dir = Path(".bench_build") / "perfbench"
    if not build(root, build_dir):
        return 2

    tmp = build_dir / "tmp"
    traces = build_dir / "traces"
    tmp.mkdir(parents=True, exist_ok=True)
    traces.mkdir(parents=True, exist_ok=True)

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for w in workloads:
        cmd = [str(build_dir / "perfbench"), "--workload", w,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--pins", "perfbench/pins.txt",
               "--daemon", str(build_dir / "thermctl_serve"),
               "--tmp-dir", str(tmp),
               "--trace-out", str(traces / f"{w}-seed{args.seed}.json")]
        code, lines = run_driver(cmd)
        if code not in (0, 1) or not lines:
            log(w, "produced no result (exit", code, ")")
            return code or 2
        for line in lines[:-1]:
            print(line)
        result = json.loads(lines[-1])
        metrics = select_metrics(w, result, declared, args.trace)
        if metrics is None:
            return 2
        if len(workloads) == 1:
            result["metrics"] = metrics
            print(json.dumps(result), flush=True)
            return code
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in metrics.items():
            combined["metrics"][f"{w}/{name}"] = metric
        status = status or code
    print(json.dumps(combined), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
