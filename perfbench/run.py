"""latquad benchmark: four seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload construct|certify|converge|emit|all \
        --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from the ``src/`` directory next
to this one, never from an installed copy.  Each workload runs in its own
fresh interpreter (worker.py) with BLAS threads pinned to at most the core
count.  Set-up time is the median over several fresh interpreters that only
import latquad and build the inputs.

Output: one JSON record line per workload (parameters, result digests,
versions, thread settings, the tail percentile and its sample count,
fail_ratio, errors), then one JSON result line with the keys correct,
attempted, failed and metrics; with --trace 0 the metrics are the end-to-end
ones, with --trace 1 the per-layer ones.  The exit code is 0 only when every
op of every workload passed its correctness check.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import calib
from tracing import PER_LAYER_UNITS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("construct", "certify", "converge", "emit")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

E2E_UNITS = {
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
SETUP_PROBES = 7
# every run, all set-up probes included, must end well inside 180 s
RUN_TIMEOUT_S = 170.0


def _env() -> dict:
    env = dict(os.environ)
    cores = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        try:
            keep = 1 <= int(env.get(var, "")) <= cores
        except ValueError:
            keep = False
        if not keep:
            env[var] = str(cores)
    return env


def _worker_cmd(workload, seed, *extra):
    return [sys.executable, WORKER, "--root", ROOT, "--workload", workload,
            "--seed", str(seed), *extra]


def _setup_once(cmd, env, deadline) -> float:
    # CLOCK_MONOTONIC is system-wide, so the child's "ready" stamp and this
    # start stamp are on one clock
    t0 = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True, check=False,
                          timeout=max(1.0, deadline - time.monotonic()))
    word, _, stamp = proc.stdout.strip().partition(" ")
    if proc.returncode != 0 or word != "ready":
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return float(stamp) - t0


def setup_seconds(workload, seed, tiny, env, deadline) -> tuple[float, float]:
    """Median time from spawning a fresh interpreter to inputs ready.

    Returns (scaled to the nominal host speed, raw); each probe is scaled by
    the set-up reference taken right before and right after it.
    """
    cmd = _worker_cmd(workload, seed, "--setup-only", *(["--tiny"] if tiny else []))
    _setup_once(cmd, env, deadline)  # fills the bytecode cache; not counted

    def ref():
        return calib.setup_reference(env, max(1.0, deadline - time.monotonic()))

    refs, raw = [ref()], []
    for _ in range(SETUP_PROBES):
        raw.append(_setup_once(cmd, env, deadline))
        refs.append(ref())
    scaled = [t * calib.SETUP_NOMINAL_S * 2.0 / (a + b) for t, a, b in zip(raw, refs, refs[1:])]
    return statistics.median(scaled), statistics.median(raw)


def run_workload(args, workload, env):
    deadline = time.monotonic() + RUN_TIMEOUT_S
    setup_s, setup_raw = setup_seconds(workload, args.seed, args.tiny, env, deadline)
    extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    extra += ["--tiny"] * args.tiny + ["--corrupt"] * args.corrupt
    proc = subprocess.run(
        _worker_cmd(workload, args.seed, *extra), stdout=subprocess.PIPE, env=env,
        text=True, timeout=max(1.0, deadline - time.monotonic()), check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker for {workload} exited {proc.returncode}")
    w = json.loads(lines[-1])

    if args.trace:
        metrics = {k: {"value": w["per_layer"][k], "unit": u} for k, u in PER_LAYER_UNITS.items()}
    else:
        values = dict(w, setup_s=setup_s)
        metrics = {k: {"value": values[k], "unit": u} for k, u in E2E_UNITS.items()}
    record = {
        "record": workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": w["failed"] == 0,
        "fail_ratio": {"value": w["failed"] / w["attempted"], "unit": "1"},
        "setup_s": {"value": setup_s, "unit": "s", "raw": setup_raw, "probes": SETUP_PROBES},
        **{k: v for k, v in w.items() if k != "per_layer"},
    }
    result = {
        "correct": w["failed"] == 0,
        "attempted": w["attempted"],
        "failed": w["failed"],
        "metrics": metrics,
    }
    return record, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="self-test sizes")
    ap.add_argument("--corrupt", action="store_true",
                    help="self-test: perturb one result to prove the checks run")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "latquad", "__init__.py")):
        print(f"run.py: no latquad sources under {ROOT}/src", file=sys.stderr)
        return 2
    env = _env()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            record, result = run_workload(args, name, env)
        except (RuntimeError, subprocess.SubprocessError, ValueError, KeyError) as exc:
            print(f"run.py: {name}: {exc}", file=sys.stderr)
            return 2
        print(json.dumps(record), flush=True)
        if len(names) > 1:
            print(json.dumps(result), flush=True)
        results[name] = result

    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
