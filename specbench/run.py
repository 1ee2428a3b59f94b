#!/usr/bin/env python3
"""Spec-to-CSV benchmark of the MFLUSH simulator.

Run from the repository root:

    python3 specbench/run.py --workload fullrun-fixed --seed 1 --seconds 10 --trace 0

It builds `mflushsim` and `specbench_probe` from source into `.bench_build/`,
writes the workload's experiment spec from `--seed`, and then

* with `--trace 0` runs `mflushsim --spec FILE --csv` as a child process,
  again and again for `--seconds`, timing each run from outside (wall time,
  and CPU time and peak RSS of the child and every worker it reaped, from
  wait4). Every CSV is checked, minus its wall_s column, against an
  in-process SerialBackend run of the same spec;
* with `--trace 1` runs the traced in-process probe, which times each
  layer's public interface and checks the lockstep harness, both kernel
  clock modes and the worker backend against the same reference.

The last line of standard output is one JSON object: correct, attempted,
failed, metrics. The exit code is nonzero when any check failed or the
build failed. README.md lists every metric and workload.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")

# Seed 7919 is held out: never used while tuning, kept for checking later
# claims. A spec runs `seeds` seeds: --seed and the ones after it.
DEFAULT_SEED = 1

POLICIES = ["icount", "flush-s30", "mflush"]

# Why each workload exists is in README.md; sizes keep one run of a spec
# between about one and three seconds on one core.
WORKLOADS = {
    "fullrun-fixed": {
        "mode": "full_run", "workloads": ["4W3", "8W1", "8W3"],
        "seeds": 2, "warmup": 5000, "measure": 15000,
        "backend": "serial",
    },
    "sampled-cold": {
        "mode": "sampled", "workloads": ["2W3", "4W3", "8W3"],
        "seeds": 1, "warmup": 20000, "measure": 3000, "forks": 8,
        "fork_stride": 1500, "backend": "worker",
        "warm": "cold",
    },
    "sampled-hot": {
        "mode": "sampled", "workloads": ["2W3", "4W3", "8W3"],
        "seeds": 1, "warmup": 20000, "measure": 3000, "forks": 8,
        "fork_stride": 1500, "backend": "worker",
        "warm": "hot",
    },
}

# A run measures at least this many spec executions, and enough of them to
# pool 100 per-job wall times, so the p90 has ten samples beyond it.
MIN_REPS = 3
MIN_JOB_SAMPLES = 100
# Set-up is timed by probe processes (each reports the median of five
# rounds), a few after every spec run, so its samples spread over the run.
SETUP_CALLS_PER_RUN = 3
CHILD_JOBS = "2"  # worker processes / threads per child, on a shared host
HARD_LIMIT_S = 150.0  # stop measuring well before the 180 s budget

END_TO_END_UNITS = {
    "spec_wall_s": "s", "spec_cpu_s": "s", "sim_kcycles_per_cpu_s": "kcycles/s",
    "job_wall_s_p50": "s", "job_wall_s_p90": "s", "setup_s": "s",
    "peak_rss_mb": "MB", "ok_frac": "ratio",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def spec_text(name, seed):
    w = WORKLOADS[name]
    lines = [
        f"name {name}",
        f"mode {w['mode']}",
        f"warmup {w['warmup']}",
        f"measure {w['measure']}",
        "seeds " + " ".join(str(seed + i) for i in range(w["seeds"])),
    ]
    lines += [f"workload {x}" for x in w["workloads"]]
    lines += [f"policy {p}" for p in POLICIES]
    if w["mode"] == "sampled":
        lines += [f"forks {w['forks']}", f"fork_stride {w['fork_stride']}",
                  "target_half_width 0", "max_rounds 1"]
    return "\n".join(lines) + "\n"


def build():
    """Configure once, then bring mflushsim and the probe up to date."""
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", BUILD_DIR, "-j", "2",
           "--target", "mflushsim", "specbench_probe"]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def probe(*args):
    """Run the in-process probe; return (exit code, its last JSON line)."""
    p = subprocess.run([os.path.join(BUILD_DIR, "specbench_probe"), *args],
                       stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    lines = [x for x in p.stdout.splitlines() if x.strip()]
    return p.returncode, (json.loads(lines[-1]) if lines else None)


def strip_wall(csv_text):
    """CSV rows without the trailing wall_s column, and the wall_s values."""
    rows, walls = [], []
    for line in csv_text.splitlines()[1:]:
        head, _, wall = line.rpartition(",")
        rows.append(head)
        walls.append(float(wall))
    return rows, walls


def count_failed(reference_rows, csv_text, exit_code):
    """Jobs of one spec run that failed: all of them on a nonzero exit or a
    malformed CSV, else every row missing or differing from the reference."""
    if exit_code != 0:
        return len(reference_rows)
    lines = csv_text.splitlines()
    if not lines or not lines[0].endswith(",wall_s"):
        return len(reference_rows)
    try:
        rows, _ = strip_wall(csv_text)
    except ValueError:
        return len(reference_rows)
    failed = sum(1 for i, want in enumerate(reference_rows)
                 if i >= len(rows) or rows[i] != want)
    return failed + max(0, len(rows) - len(reference_rows))


def spawn_timed(cmd, cwd, out_path, err_path):
    """Run cmd to completion; wall time, CPU time and peak RSS of the child
    plus every descendant it waited for (wait4 rusage)."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=cwd)
        _, status, ru = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0, p.returncode


def percentile(values, q):
    """q-th percentile (0 < q < 100) by statistics.quantiles' method."""
    return statistics.quantiles(values, n=100, method="exclusive")[q - 1]


def measure(name, spec_path, work, seconds, reference_rows):
    """The timed loop: spec runs (and set-up samples) for `seconds`."""
    w = WORKLOADS[name]
    base = [os.path.join(BUILD_DIR, "mflushsim"), "--spec", spec_path, "--csv",
            "--backend", w["backend"]]
    warm_dir = os.path.join(work, "warm-hot")
    if w.get("warm") == "hot":
        # Set-up, untimed: fill the warm store the timed runs read from.
        p = subprocess.run(base + ["--warm-store", warm_dir], cwd=work,
                           stdout=subprocess.DEVNULL, stderr=sys.stderr)
        if p.returncode != 0:
            return None
    min_reps = max(MIN_REPS, math.ceil(MIN_JOB_SAMPLES / len(reference_rows)))
    walls, cpus, rss, job_walls, setups = [], [], [], [], []
    attempted = failed = 0
    start = time.monotonic()
    while True:
        cmd = list(base)
        if w["mode"] == "sampled":
            campaign = os.path.join(work, f"campaign-{len(walls)}")
            cmd += ["--campaign", campaign]
            if w.get("warm") == "hot":
                cmd += ["--warm-store", warm_dir]
        out_path = os.path.join(work, "out.csv")
        wall, cpu, peak, rc = spawn_timed(cmd, work, out_path,
                                          os.path.join(work, "err.txt"))
        with open(out_path) as f:
            csv_text = f.read()
        bad = count_failed(reference_rows, csv_text, rc)
        attempted += len(reference_rows)
        failed += bad
        if bad:
            with open(os.path.join(work, "err.txt")) as f:
                log(f.read())
            log(f"run {len(walls)}: {bad} job(s) failed the correctness gate")
        if bad < len(reference_rows):
            job_walls += strip_wall(csv_text)[1]
        walls.append(wall)
        cpus.append(cpu)
        rss.append(peak)
        if w["mode"] == "sampled":
            shutil.rmtree(campaign, ignore_errors=True)
        for _ in range(SETUP_CALLS_PER_RUN):
            code, setup = probe("setup", spec_path)
            if code != 0 or setup is None:
                return None
            setups.append(setup["setup_s"])
        elapsed = time.monotonic() - start
        if elapsed >= HARD_LIMIT_S:
            break
        if elapsed >= seconds and len(walls) >= min_reps:
            break
    return {"walls": walls, "cpus": cpus, "rss": rss, "job_walls": job_walls,
            "setups": setups, "attempted": attempted, "failed": failed}


def end_to_end(name, spec_path, work, seconds):
    code, ref = probe("reference", spec_path, os.path.join(work, "reference.csv"))
    if code != 0 or ref is None:
        return None
    with open(os.path.join(work, "reference.csv")) as f:
        reference_rows = f.read().splitlines()[1:]
    # Cycles executed per spec run: every measured job, plus the warm jobs
    # that really run (none when the warm store already holds the parents).
    cycles = ref["measured_cycles"]
    if WORKLOADS[name].get("warm") != "hot":
        cycles += ref["warm_cycles"]
    m = measure(name, spec_path, work, seconds, reference_rows)
    if m is None:
        return None
    jw = m["job_walls"] or [0.0, 0.0]  # no job produced a row at all
    p90 = percentile(jw, 90)
    log(f"{name}: {len(m['walls'])} spec runs, {len(jw)} job samples "
        f"({sum(1 for x in jw if x > p90)} beyond p90), "
        f"spec_wall_s runs: {' '.join(f'{x:.3f}' for x in m['walls'])}")
    values = {
        "spec_wall_s": statistics.median(m["walls"]),
        "spec_cpu_s": statistics.median(m["cpus"]),
        "sim_kcycles_per_cpu_s": statistics.median(
            cycles / 1000.0 / c for c in m["cpus"]),
        "job_wall_s_p50": statistics.median(jw),
        "job_wall_s_p90": p90,
        "setup_s": statistics.median(m["setups"]),
        "peak_rss_mb": statistics.median(m["rss"]),
        "ok_frac": 1.0 - m["failed"] / m["attempted"],
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
               for k, v in values.items()}
    return {"correct": m["failed"] == 0, "attempted": m["attempted"],
            "failed": m["failed"], "metrics": metrics}


def layer_unit(metric):
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_mb_per_s"):
        return "MB/s"
    if metric.endswith("_s"):
        return "s"
    if ".ns_per_" in metric:
        return "ns"
    if "bytes" in metric:
        return "bytes"
    if metric == "model.digest":
        return "hash"
    if metric.startswith("model.ipc.") or metric == "kernel.committed_ipc":
        return "instr/cycle"
    if metric == "mem.l2_hit_time_mean":
        return "cycles"
    if (metric.endswith(("_frac", "_gain", "_accuracy", "_per_fetch"))
            or metric == "model.mflush_gain_vs_flush_s30"):
        return "ratio"
    return "count"


def traced(name, spec_path, work):
    hot = "hot" if WORKLOADS[name].get("warm") == "hot" else "cold"
    code, res = probe("trace", spec_path, os.path.join(work, "trace"), hot)
    if res is None:
        return None
    metrics = {k: {"value": v, "unit": layer_unit(k)}
               for k, v in res["metrics"].items()}
    attempted, failed = int(res["attempted"]), int(res["failed"])
    return {"correct": code == 0 and failed == 0, "attempted": attempted,
            "failed": failed if code == 0 else max(failed, 1),
            "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    if not build():
        log("build failed")
        return 1
    work = os.path.join(BUILD_DIR, f"work-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    # Every child sees the same simulator settings whatever the caller's
    # environment holds, and keeps its temporary files in the checkout.
    for key in [k for k in os.environ if k.startswith("MFLUSH_")]:
        del os.environ[key]
    os.environ["MFLUSH_JOBS"] = CHILD_JOBS
    os.environ["TMPDIR"] = work
    try:
        spec_path = os.path.join(work, f"{args.workload}.spec")
        with open(spec_path, "w") as f:
            f.write(spec_text(args.workload, args.seed))
        if args.trace:
            result = traced(args.workload, spec_path, work)
        else:
            result = end_to_end(args.workload, spec_path, work, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if result is None:
        log("benchmark set-up failed")
        return 1
    for k, v in result["metrics"].items():
        print(f"{k} = {v['value']:.6g} {v['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
