"""Benchmark of bmti's run_bmti, end to end (--trace 0) or per stage (--trace 1).

    python3 perfbench/run.py --workload mb2d-5k --seed 0 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One process runs one workload as a closed loop: one caller, one run_bmti
call at a time. The clouds come from generate_dataset with seeds derived
from --seed; bmti sees only the generated arrays. The last line of standard
output is a JSON object with keys correct, attempted, failed and metrics;
the lines before it report every metric with its sample count and quartiles.
The full record, with the machine and the trace spans, is written to
perfbench/out/. Exits 1 when a call raises or fails the correctness gate,
and 2 without a result when the checkout has no src/bmti.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import traceback
from dataclasses import asdict
from pathlib import Path

import bench
from bench import END_TO_END, PER_LAYER, WORKLOADS, Tracer, summarize

OUT_DIR = Path(__file__).resolve().parent / "out"
SETUP_SCRIPT = Path(__file__).resolve().parent / "setup_cloud.py"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument(
        "--workload", required=True,
        choices=[*WORKLOADS, "all"],
        help="'all' runs the workloads of BENCHMARK.json",
    )
    p.add_argument(
        "--seed", type=int, default=bench.DEV_SEED,
        help=f"workload seed: {bench.DEV_SEED} for development, "
        f"{bench.HOLDOUT_SEED} held out for confirming claims",
    )
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Tally:
    """Calls attempted and failed; a failure is an exception or a failed gate."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def fail(self, reason: str) -> None:
        self.failed += 1
        print(f"FAILED: {reason}", file=sys.stderr, flush=True)

    def attempt(self, fn):
        """fn() or None when it raises; counts the attempt."""
        self.attempted += 1
        try:
            return fn()
        except Exception:  # any failure of the program under test is counted
            traceback.print_exc()
            self.fail("call raised")
            return None


def timed(fn):
    gc.collect()
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def measure_end_to_end(w, clouds, cfg, seconds, tally):
    """Peak memory in an untimed pass, then timed calls for `seconds`."""
    from bmti import PointCloud, run_bmti

    def fresh(j):
        return PointCloud(*clouds[j])

    mae = {}

    def check(F, cloud, j):
        m, reason = bench.gate(F, cloud, w.call_mae_range)
        if reason is not None:
            tally.fail(f"cloud {j}: {reason}")
        elif j not in mae:
            mae[j] = m

    # tracemalloc slows the call about twice, so it never overlaps a timed one.
    cloud = fresh(0)
    gc.collect()
    tracemalloc.start()
    try:
        res = tally.attempt(lambda: run_bmti(cloud, cfg))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if res is not None:
        check(res.F, cloud, 0)
    del res

    durations = []
    start = time.perf_counter()
    i = 0
    while i < len(clouds) or time.perf_counter() - start < seconds:
        j = i % len(clouds)
        i += 1
        cloud = fresh(j)
        out = tally.attempt(lambda: timed(lambda: run_bmti(cloud, cfg)))
        if out is None:
            continue
        res, dt = out
        durations.append(dt)
        check(res.F, cloud, j)
        del res, out

    samples = {"estimate_s": durations, "peak_mem_mb": [peak / 1e6]}
    if len(mae) == len(clouds):
        mean = math.fsum(mae.values()) / len(mae)
        samples["mae"] = [mean]
        lo, hi = w.mae_range
        if not lo <= mean <= hi:
            tally.fail(f"mean MAE {mean:.4f} outside [{lo}, {hi}]")
    return samples


def measure_layers(w, clouds, cfg, seconds, tally, tracer):
    """Pairs of an untraced run_bmti call and a traced one on the same arrays."""
    import numpy as np

    from bmti import PointCloud, calibration_report, run_bmti

    samples = {}
    start = time.perf_counter()
    i = 0
    while i < 1 or time.perf_counter() - start < seconds:
        j = i % len(clouds)
        i += 1
        ref = PointCloud(*clouds[j])
        out = tally.attempt(lambda: timed(lambda: run_bmti(ref, cfg)))
        if out is None:
            continue
        F_ref, t_ref = out[0].F, out[1]
        del out

        cloud = PointCloud(*clouds[j])
        tracer.call = i
        gc.collect()
        res = tally.attempt(lambda: bench.run_traced(cloud, cfg, tracer))
        if res is None:
            continue
        _, reason = bench.gate(F_ref, ref, w.call_mae_range)
        if reason is not None:
            tally.fail(f"cloud {j}: {reason}")
            continue
        if not np.array_equal(res.F, F_ref):
            tally.fail(f"cloud {j}: traced F differs from run_bmti's F")
            continue
        row = bench.result_counts(res, cfg)
        row.update(bench.stage_times(tracer, i, t_ref))
        if "solver.solve.s" in row and "solver.cg_iterations" in row:
            row["solver.s_per_iter"] = row["solver.solve.s"] / max(
                row["solver.cg_iterations"], 1
            )
        row["pull_std_err"] = abs(calibration_report(res.edges, cloud).std - 1.0)
        for k, v in row.items():
            samples.setdefault(k, []).append(v)
        del res
    return samples


def set_up(w, seed):
    """Import bmti and generate one cloud in a fresh process.

    Returns (import_s, generate_s, points, truth_F), as timed in that process.
    """
    import numpy as np

    proc = subprocess.run(
        [sys.executable, str(SETUP_SCRIPT), w.dataset, str(w.n), str(seed)],
        capture_output=True, check=False,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
        raise RuntimeError(f"set-up of {w.dataset} seed {seed} failed")
    out = io.BytesIO(proc.stdout)
    (import_s, generate_s), points, truth_F = (np.load(out) for _ in range(3))
    return float(import_s), float(generate_s), points, truth_F


def run_workload(args) -> int:
    w = WORKLOADS[args.workload]
    load_before = os.getloadavg()
    t0 = time.perf_counter()
    # Every set-up runs in its own process, so each sample pays the import.
    setups = [set_up(w, s) for s in bench.cloud_seeds(args.seed, w.clouds)]
    clouds = [(points, truth_F) for _, _, points, truth_F in setups]

    import bmti
    from bmti import BmtiConfig

    cfg = BmtiConfig()
    tracer = Tracer()
    tally = Tally()
    if args.trace:
        specs = PER_LAYER
        samples = measure_layers(w, clouds, cfg, args.seconds, tally, tracer)
        samples["datasets.generate.s"] = [g for _, g, _, _ in setups]
        missing = [k for k in specs if not samples.get(k)]
        if missing:
            # A later bmti may drop a count's source; the run still stands.
            print(f"not reported: {', '.join(missing)}", file=sys.stderr)
    else:
        specs = END_TO_END
        samples = measure_end_to_end(w, clouds, cfg, args.seconds, tally)
        samples["setup_s"] = [i + g for i, g, _, _ in setups]
        missing = [k for k in specs if not samples.get(k)]
        if missing and tally.failed == 0:
            tally.fail(f"no value for {', '.join(missing)}")

    summaries = {k: summarize(v) for k, v in samples.items() if v}
    metrics = {
        k: {"value": summaries[k].median, "unit": specs[k]}
        for k in specs
        if k in summaries
    }
    record = {
        "workload": w.name,
        "seed": args.seed,
        "cloud_seeds": bench.cloud_seeds(args.seed, w.clouds),
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": bench.machine_record(),
        "load_before": load_before,
        "load_after": os.getloadavg(),
        "bmti_version": bmti.__version__,
        "summaries": {k: asdict(s) for k, s in summaries.items()},
        "samples": samples,
        "failed_frac": tally.failed / max(tally.attempted, 1),
        "wall_s": time.perf_counter() - t0,
        "spans": tracer.to_json(),
    }
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))

    print(f"workload {w.name}: {w.dataset} n={w.n}, "
          f"clouds {record['cloud_seeds']}, trace {args.trace}")
    print("machine " + json.dumps(record["machine"]))
    print(f"load average before {load_before[0]:.2f}, "
          f"after {record['load_after'][0]:.2f}")
    for k in specs:
        if k in summaries:
            s = summaries[k]
            print(f"  {k:34s} {s.median:.6g} {specs[k]}  "
                  f"(n={s.n}, q1 {s.q1:.6g}, q3 {s.q3:.6g})")
    print(f"  {'failed_frac':34s} {record['failed_frac']:.6g} "
          f"({tally.failed}/{tally.attempted})")
    print(f"record {path.relative_to(bench.REPO_ROOT)}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0 if tally.failed == 0 else 1


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, check=False).returncode)
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not bench.use_repo_source():
        print(f"error: bmti source not found under {bench.SRC}; run from a "
              "checkout that holds src/bmti", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
