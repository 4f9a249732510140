"""One workload in one fresh interpreter, started by run.py.

    python3 perfbench/worker.py --root DIR --workload NAME --seed N
        --seconds S --trace 0|1 [--tiny] [--corrupt] [--setup-only]

Imports latquad from DIR/src (and refuses any other copy), builds the seeded
op list, runs one warm-up pass and then measured passes until S seconds have
passed and at least MIN_PASSES passes are done.  With --trace 1 the measured
passes alternate untraced and traced.  Times are scaled by the host-speed
reference taken around every pass (see calib.py); raw medians are kept.
Every pass is checked op by op and its result digest must match the first
pass.  The last stdout line is one JSON object for run.py.  --setup-only stops
after set-up and prints "ready" with a CLOCK_MONOTONIC stamp, which is how
run.py times set-up.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_PASSES = 8
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10
# digests of the first pass for known (workload, seed) pairs at full size
BASELINE_DIGESTS = os.path.join(HERE, "digests.json")


def percentile(xs: list[float], q: float) -> float:
    xs = sorted(xs)
    pos = q / 100.0 * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(ops_per_pass: int) -> float:
    """Highest ladder percentile with MIN_BEYOND samples beyond it in MIN_PASSES passes.

    Fixed per workload, so the reported tail does not jump between ladder
    steps when a run happens to fit one pass more or less.
    """
    n = ops_per_pass * MIN_PASSES
    fit = [q for q in TAIL_LADDER if n * (1.0 - q / 100.0) >= MIN_BEYOND]
    return fit[-1] if fit else TAIL_LADDER[0]


def _import_latquad(root: str) -> None:
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import latquad

    where = os.path.realpath(latquad.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"latquad imported from {where}, not from {src}")


def _blas_info() -> dict:
    import numpy as np

    info = {"numpy": np.__version__, "blas": "unknown"}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        pass
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        info[var] = os.environ.get(var)
    return info


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def digests(parts: dict) -> tuple[str, dict]:
    """(whole digest, per-part digests) of a pass's canonical outputs."""
    sub = {
        k: hashlib.sha256(json.dumps(v, sort_keys=True).encode()).hexdigest()[:16]
        for k, v in sorted(parts.items())
    }
    return hashlib.sha256(json.dumps(sub, sort_keys=True).encode()).hexdigest()[:16], sub


def baseline_check(workload: str, seed: int, sub: dict) -> dict:
    """Compare per-part digests with the committed table; names changed parts."""
    with open(BASELINE_DIGESTS, encoding="ascii") as fh:
        base = json.load(fh).get(workload, {}).get(str(seed))
    if base is None:
        return {"status": "no baseline for this seed"}
    changed = sorted(k for k in set(base) | set(sub) if base.get(k) != sub.get(k))
    return {"status": "changed" if changed else "same", "changed_parts": changed}


class Runner:
    """Runs passes over a workload's ops and keeps the failure count."""

    def __init__(self, wl, corrupt: bool):
        from latquad import bench

        self.wl = wl
        self.corrupt = corrupt
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.reference = None  # (digest parts, per-op outputs) of the first pass
        self._cache = bench._cbc_cached

    def run_pass(self, tracer=None):
        """One pass: (wall s, cpu s, per-op latencies, (cache hits, misses))."""
        wl = self.wl
        wl.begin_pass()
        cache0 = self._cache.cache_info()
        lat, results = [], []
        if tracer is not None:
            tracer.install()
        c0, t0 = _cpu(), time.perf_counter()
        try:
            for i, op in enumerate(wl.ops):
                if tracer is not None:
                    tracer.op = i
                a = time.perf_counter()
                try:
                    res = op.run()
                except Exception:  # one failed op must not end the run; it is counted
                    res = None
                    if len(self.errors) < 5:
                        self.errors.append(f"{op.label}: {traceback.format_exc(limit=3)}")
                lat.append(time.perf_counter() - a)
                results.append(res)
        finally:
            wall, cpu = time.perf_counter() - t0, _cpu() - c0
            if tracer is not None:
                tracer.restore()
        cache1 = self._cache.cache_info()
        self._account(results)
        return wall, cpu, lat, (cache1.hits - cache0.hits, cache1.misses - cache0.misses)

    def _account(self, results):
        if self.corrupt:
            self.wl.corrupt(results)
            self.corrupt = False
        ok = self.wl.check(results)
        parts = self.wl.digest_parts(results)
        per_op = [json.dumps([parts[k][i] for k in sorted(parts)]) for i in range(len(results))]
        if self.reference is None:
            self.reference = (parts, per_op)
        good = [o and a == b for o, a, b in zip(ok, per_op, self.reference[1])]
        if not all(good) and len(self.errors) < 5:
            labels = [op.label for op, g in zip(self.wl.ops, good) if not g]
            self.errors.append(f"check or digest mismatch: {labels[:5]}")
        self.attempted += len(results)
        self.failed += good.count(False)


def measure(runner, seconds: float, trace: bool):
    """Warm-up, then measured passes; traced passes interleave when `trace`."""
    import calib
    import tracing

    runner.run_pass()  # warm-up: checked and counted, not timed
    # peak memory of one cold pass over the op list, as a CLI user sees it;
    # later passes only add allocator and thread-timing noise
    m = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    walls, cpus, lats, traced, spans = [], [], [], [], []
    refs = [calib.reference()]
    # traced runs report no op latencies, so two pairs are enough there
    min_passes = 2 if trace else MIN_PASSES
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(walls) < min_passes:
        wall, cpu, lat, _ = runner.run_pass()
        refs.append(calib.reference())
        walls.append(wall)
        cpus.append(cpu)
        lats.append(lat)
        if trace:
            before = tracing.installed_attributes()
            tracer = tracing.Tracer()
            twall, _, _, cache = runner.run_pass(tracer)
            refs.append(calib.reference())
            if tracing.installed_attributes() != before:
                raise RuntimeError("tracer left a wrapper installed")
            traced.append((twall, tracing.layer_metrics(tracer.spans, *cache)))
            spans.extend(tracing.spans_to_rows(tracer.spans, len(traced)))

    # host-speed factor of each pass: nominal over the mean of the references
    # taken right before and right after it
    factors = [calib.NOMINAL_S * 2.0 / (a + b) for a, b in zip(refs, refs[1:])]
    plain_f = factors[:: 2 if trace else 1]
    norm_walls = [w * f for w, f in zip(walls, plain_f)]
    norm_lats = [x * f for lat, f in zip(lats, plain_f) for x in lat]
    raw_lats = [x for lat in lats for x in lat]
    q = tail_percentile(len(runner.wl.ops))
    tail = percentile(norm_lats, q)
    m.update(
        passes=len(walls),
        wall_s=statistics.median(norm_walls),
        op_p50_ms=percentile(norm_lats, 50.0) * 1e3,
        op_tail_ms=tail * 1e3,
        op_tail_pct=q,
        op_samples=len(norm_lats),
        op_tail_beyond=sum(1 for x in norm_lats if x > tail),
        raw={
            "wall_s": statistics.median(walls),
            "op_p50_ms": percentile(raw_lats, 50.0) * 1e3,
            "op_tail_ms": percentile(raw_lats, q) * 1e3,
        },
        host_factor={
            "median": statistics.median(factors),
            "min": min(factors),
            "max": max(factors),
            "nominal_reference_s": calib.NOMINAL_S,
        },
        pass_walls_raw=walls,
        pass_factors=plain_f,
        host_refs=refs,
    )
    if trace:
        per_layer = {k: statistics.median(p[k] for _, p in traced) for k in traced[0][1]}
        per_layer["proc.cpu_s"] = statistics.median(cpus)
        per_layer["proc.cpu_util"] = statistics.median(c / w for c, w in zip(cpus, walls))
        traced_walls = [w * f for (w, _), f in zip(traced, factors[1::2])]
        per_layer["trace.overhead_ratio"] = (
            statistics.median(traced_walls) / statistics.median(norm_walls) - 1.0
        )
        m.update(per_layer=per_layer, traced_passes=len(traced))
    return m, spans


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--corrupt", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    _import_latquad(args.root)
    import workloads

    scratch = os.path.join(args.root, ".perfbench")
    workdir = os.path.join(scratch, f"emit-{os.getpid()}")
    wl = workloads.build(args.workload, args.seed, args.tiny, workdir)
    if args.setup_only:
        print(f"ready {time.monotonic()!r}", flush=True)
        return 0

    runner = Runner(wl, args.corrupt)
    try:
        m, spans = measure(runner, args.seconds, bool(args.trace))
    finally:
        wl.close()

    digest, sub = digests(runner.reference[0])
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "ops_per_pass": len(wl.ops),
        **m,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "errors": runner.errors,
        "digest": digest,
        "digest_parts": sub,
        "digest_baseline": (
            {"status": "tiny run"} if args.tiny else baseline_check(args.workload, args.seed, sub)
        ),
        "env": _blas_info(),
        "notes": wl.notes,
    }
    if args.trace:
        os.makedirs(scratch, exist_ok=True)
        path = os.path.join(scratch, f"spans-{args.workload}-seed{args.seed}.json")
        with open(path, "w", encoding="ascii") as fh:
            json.dump(spans, fh)
        out["spans_file"] = os.path.relpath(path, args.root)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
