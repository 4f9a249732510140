"""The four benchmark workloads: construct, certify, converge, emit.

Each workload turns a seed into a fixed list of ops (one user-level call of
the latquad API each) and knows how to check every op's result through an
independent route.  The seed chooses values (moduli among near-equal primes,
generating vectors, weights, smoothness, integrand decay, op order) but never
sizes: every seed gives the same amount of work, so run-to-run spread measures
the program and the machine, not the draw.

Ops look functions up through the module objects at call time
(``cbc.cbc_construct(...)``), so the tracer's wrappers see them.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import random
import shutil
from dataclasses import dataclass, field, replace
from typing import Callable

from latquad import bench, cbc, cli, points, wce
from latquad.kernels import SpaceSpec, TruncationPolicy

# Double sums run on two threads: the CLI default on a 2-core machine, fixed
# here so results and timings do not depend on the host's core count.
THREADS = 2


@dataclass
class Op:
    label: str
    run: Callable[[], object]


@dataclass
class Workload:
    name: str
    ops: list[Op]
    # check(results) -> one bool per op; results[i] is None when op i raised
    check: Callable[[list], list[bool]]
    # digest_parts(results) -> {part: list of canonical values}
    digest_parts: Callable[[list], dict]
    # corrupt(results) perturbs one result in place; the self-test uses it to
    # prove that the checks run
    corrupt: Callable[[list], None]
    begin_pass: Callable[[], None] = lambda: None
    close: Callable[[], None] = lambda: None
    notes: dict = field(default_factory=dict)


def _hex(x: float) -> str:
    return float(x).hex()


def _primes_below(n: int, count: int) -> list[int]:
    out, m = [], n - 1
    while len(out) < count:
        if m > 1 and all(m % p for p in range(2, math.isqrt(m) + 1)):
            out.append(m)
        m -= 1
    return out


def _units(rng: random.Random, N: int, s: int) -> tuple[int, ...]:
    return tuple(rng.choice([z for z in range(1, N) if math.gcd(z, N) == 1]) for _ in range(s))


def _weights(kind: str, s: int) -> tuple[float, ...]:
    if kind == "j^-2":
        return tuple(1.0 / j**2 for j in range(1, s + 1))
    return tuple(0.9**j for j in range(1, s + 1))


# --------------------------------------------------------------------- construct

# (log2 N, modulus class, s): 27 CBC constructions from 2^8 to 2^12, prime and
# power-of-two moduli side by side because fast-CBC paths differ by class.
# One 2^13 construction alone takes 1.3-2.5 s; passes are kept near 2 s so
# that a run holds about ten of them and its medians stay steady on a shared
# 2-core host.
_CONSTRUCT_FULL = (
    [(8, c, s) for s in (10, 9, 8, 7, 6, 5) for c in ("2", "p")]
    + [(9, c, s) for s in (10, 9, 8, 7) for c in ("2", "p")]
    + [(10, c, s) for s in (8, 7) for c in ("2", "p")]
    + [(11, "2", 6), (11, "p", 6), (12, "2", 4)]
)
_CONSTRUCT_TINY = [(5, c, s) for s in (4, 3) for c in ("2", "p")] + [(6, "p", 4)]

# e2 = mean(prod) - 1 cancels the leading digits when e2 is small, so the two
# routes are compared relative to the summed magnitude 1 + e2.
CBC_RTOL = 1e-12


def construct(seed: int, tiny: bool) -> Workload:
    rng = random.Random(seed)
    specs = []
    for logn, cls, s in _CONSTRUCT_TINY if tiny else _CONSTRUCT_FULL:
        N = 1 << logn if cls == "2" else rng.choice(_primes_below(1 << logn, 3))
        alpha = rng.choice((1, 2))
        gammas = _weights(rng.choice(("j^-2", "0.9^j")), s)
        specs.append((N, s, alpha, gammas))
    rng.shuffle(specs)

    def make(N, s, alpha, gammas):
        return Op(f"cbc N={N} s={s} alpha={alpha}", lambda: cbc.cbc_construct(N, s, alpha, gammas))

    notes = {"max_rel_gap_e2": 0.0}

    def check(results):
        ok = []
        for (N, s, alpha, gammas), res in zip(specs, results):
            if res is None:
                ok.append(False)
                continue
            e2 = res.per_dim_e2[-1]
            ref = wce.wce_korobov_lattice(res.rule, alpha, gammas).e2
            notes["max_rel_gap_e2"] = max(notes["max_rel_gap_e2"], abs(e2 - ref) / abs(ref))
            good = abs(e2 - ref) <= CBC_RTOL * (1.0 + abs(ref))
            good &= res.rule.N == N and len(res.rule.g) == s
            good &= all(math.gcd(v, N) == 1 for v in res.rule.g)
            if N & (N - 1):  # the tau = 1 certificate is proved for prime N
                good &= all(res.bound_ok)
            ok.append(bool(good))
        return ok

    def digest_parts(results):
        return {
            "g": [list(r.rule.g) if r else None for r in results],
            "e2": [[_hex(v) for v in r.per_dim_e2] if r else None for r in results],
        }

    def corrupt(results):
        r = results[0]
        results[0] = replace(r, per_dim_e2=r.per_dim_e2[:-1] + (r.per_dim_e2[-1] + 1e-9,))

    ops = [make(*sp) for sp in specs]
    return Workload("construct", ops, check, digest_parts, corrupt, notes=notes)


# ----------------------------------------------------------------------- certify

# (N, s, alpha, tol, weights): small rules under every closed route and every
# kernel double sum.  A series factor needs about gamma/tol terms at alpha = 1,
# so the weights shrink with the tolerance to keep each at <= 2e4 terms.
_CERTIFY_FULL = (
    (64, 2, 1.0, 1e-4, (1.0, 0.5)),
    (31, 3, 1.0, 1e-5, (0.1, 0.05, 0.025)),
    (16, 3, 1.0, 1e-5, (0.2, 0.1, 0.05)),
    (53, 1, 1.0, 1e-6, (0.01,)),
    (32, 2, 2.0, 1e-6, (1.0, 1.0)),
    (59, 3, 2.0, 1e-6, (1.0, 0.5, 0.25)),
    (31, 2, 1.5, 1e-4, (1.0, 0.5)),
    (61, 3, 2.5, 1e-6, (1.0, 0.5, 0.25)),
)
_CERTIFY_TINY = (
    (8, 2, 1.0, 1e-3, (1.0, 0.5)),
    (7, 1, 2.0, 1e-6, (1.0,)),
    (5, 2, 2.5, 1e-4, (1.0, 0.5)),
)
_FAMILIES = ("sobolev", "korobov", "cosine", "korcos")
_VARIANTS = ("plain", "tent", "sym")
_WRAPPERS = ("wce_cosine_tent", "wce_korcos_sym", "wce_cosine_sym")


def _nodes(rule, variant):
    if variant == "plain":
        return points.lattice_points(rule)
    if variant == "tent":
        return points.tent_transform(points.lattice_points(rule))
    return points.symmetrize(rule)


def certify(seed: int, tiny: bool) -> Workload:
    rng = random.Random(seed)
    ops, meta = [], []
    for rid, (N, s, alpha, tol, gammas) in enumerate(_CERTIFY_TINY if tiny else _CERTIFY_FULL):
        rule = points.LatticeRule(N, _units(rng, N, s))
        gammas = tuple(rng.sample(gammas, len(gammas)))
        policy = TruncationPolicy(tol=tol)
        closed = float(alpha).is_integer()

        def closed_op(name, rule=rule, alpha=alpha, gammas=gammas, policy=policy):
            return lambda: getattr(wce, name)(rule, alpha, gammas, policy)

        ops.append(Op(f"wce_korobov_lattice N={N} s={s} alpha={alpha}", closed_op("wce_korobov_lattice")))
        meta.append((rid, "closed", "korobov_lattice"))
        for name in _WRAPPERS:
            ops.append(Op(f"{name} N={N} s={s} alpha={alpha}", closed_op(name)))
            meta.append((rid, "closed", name))
        for family in _FAMILIES:
            if family == "sobolev" and not closed:
                continue  # the Sobolev kernel exists for integer smoothness only
            spec = SpaceSpec(family, alpha, gammas)
            for variant in _VARIANTS:

                def ds(spec=spec, rule=rule, variant=variant, policy=policy):
                    return wce.wce_double_sum(spec, _nodes(rule, variant), policy, threads=THREADS)

                ops.append(Op(f"double_sum {family} {variant} N={N} s={s} alpha={alpha} tol={tol:g}", ds))
                meta.append((rid, family, variant))

    def check(results):
        by_key = {m: r for m, r in zip(meta, results)}
        ok = []
        for m, res in zip(meta, results):
            if res is None or not math.isfinite(res.e2):
                ok.append(False)
                continue
            rid, kind, what = m
            ref = by_key.get((rid, "closed", "korobov_lattice"))
            if ref is None:
                ok.append(False)
                continue
            slack = res.tail_bound + ref.tail_bound
            if kind == "korobov" and what == "plain":
                good = abs(res.e2 - ref.e2) <= 1e-10 + slack
            elif kind == "cosine" and what == "tent":
                good = res.e2 <= ref.e2 + slack + 1e-12
            elif kind == "closed":
                good = True
            else:
                # a squared worst-case error is never negative
                good = res.e2 >= -(res.tail_bound + 1e-12)
            ok.append(bool(good))
        return ok

    def digest_parts(results):
        return {"e2": [[_hex(r.e2), _hex(r.tail_bound)] if r else None for r in results]}

    def corrupt(results):
        i = meta.index((0, "korobov", "plain"))
        results[i] = replace(results[i], e2=results[i].e2 + 1e-6)

    return Workload("certify", ops, check, digest_parts, corrupt)


# ---------------------------------------------------------------------- converge

# The paper's study (acceptance criterion 9): g in s=8 on all three variants
# at N = 2^6..2^11, then h in s=10 on tent at N = 2^5..2^11, in the CLI's
# variant order so that plain pays each CBC and tent and sym hit the cache.
# One op is one converge_study call for one (variant, N), which is the same
# work as the multi-N call.  The paper goes to 2^14, where CBC alone takes
# 8 s; 2^11 keeps a pass near 1 s.  The seed picks the decay w.
_CONVERGE_FULL = ((6, 11), (5, 11))
_CONVERGE_TINY = ((3, 5), (3, 5))


def converge(seed: int, tiny: bool) -> Workload:
    rng = random.Random(seed)
    (g_lo, g_hi), (h_lo, h_hi) = _CONVERGE_TINY if tiny else _CONVERGE_FULL
    s_g, s_h = (3, 4) if tiny else (8, 10)
    f_g = bench.TestFunction("g", s_g, rng.choice((0.85, 0.9, 0.95)))
    f_h = bench.TestFunction("h", s_h, rng.choice((0.1, 0.15, 0.2)))
    specs = [(f_g, v, 1 << m) for v in ("plain", "tent", "sym") for m in range(g_lo, g_hi + 1)]
    specs += [(f_h, "tent", 1 << m) for m in range(h_lo, h_hi + 1)]
    nmin = 1 << g_lo

    def make(f, v, N):
        return Op(
            f"converge_study {f.family} s={f.s} {v} N={N}",
            lambda: bench.converge_study(f, v, [N], cbc_alpha=1),
        )

    def check(results):
        ok = []
        for (f, v, N), res in zip(specs, results):
            if res is None or len(res) != 1:
                ok.append(False)
                continue
            rec = res[0]
            good = rec.abs_error == abs(rec.estimate - f.exact_integral) and rec.N == N
            if v == "sym" and N == nmin:
                gammas = tuple(f.w**j for j in range(1, f.s + 1))
                rule = cbc.cbc_construct(N, f.s, 1, gammas).rule
                full = points.symmetrize(rule, dedupe=False)
                multiset = math.fsum(f(full.points).tolist()) / len(full)
                good &= abs(rec.estimate - multiset) <= 1e-13 * abs(multiset)
            ok.append(bool(good))
        return ok

    def digest_parts(results):
        return {
            "estimate": [[_hex(r[0].estimate), r[0].nodes] if r else None for r in results]
        }

    def corrupt(results):
        rec = results[0][0]
        results[0] = [replace(rec, estimate=rec.estimate + 1e-9)]

    return Workload(
        "converge",
        [make(*sp) for sp in specs],
        check,
        digest_parts,
        corrupt,
        # a CLI user pays CBC on every run, so no pass may start from a warm cache
        begin_pass=bench._cbc_cached.cache_clear,
    )


# -------------------------------------------------------------------------- emit

# (N, s, kernel family, alpha): three rules whose symmetrized node sets hold
# about 1000 nodes each, so the points-file double sum and the vector-file
# double sum do comparable work.  The seed picks weights and the integrand.
_EMIT_FULL = ((127, 4, "korobov", 1), (251, 3, "sobolev", 1), (61, 5, "korobov", 2))
_EMIT_TINY = ((7, 2, "korobov", 1),)


def emit(seed: int, tiny: bool, workdir: str) -> Workload:
    rng = random.Random(seed)
    ops, meta = [], []
    for idx, (N, s, family, alpha) in enumerate(_EMIT_TINY if tiny else _EMIT_FULL):
        gamma = rng.choice(("/j^2", "0.9/j^1", "0.5"))
        fam_f, w = rng.choice(("g", "h")), rng.choice(("0.5", "0.9"))

        def p(name, idx=idx):
            return os.path.join(workdir, f"r{idx}-{name}")

        vec = p("vec.txt")
        steps = [
            ("cbc", ["cbc", "--n", str(N), "--s", str(s), "--alpha", str(alpha),
                     "--gamma", gamma, "-o", vec, "--report"]),
            ("points-tent", ["points", "--vector-file", vec, "--variant", "tent", "-o", p("tent.txt")]),
            ("points-sym", ["points", "--vector-file", vec, "--variant", "sym", "-o", p("sym.txt")]),
            ("points-symfull", ["points", "--vector-file", vec, "--variant", "sym",
                                "--no-dedupe", "-o", p("symfull.txt")]),
        ]
        for variant in ("tent", "sym"):
            common = ["wce", "--space", "double-sum", "--family", family, "--alpha", str(alpha),
                      "--gamma", gamma, "--threads", str(THREADS)]
            steps.append((f"wce-file-{variant}", common + ["--points-file", p(f"{variant}.txt"),
                                                           "--s", str(s)]))
            steps.append((f"wce-vec-{variant}", common + ["--vector-file", vec, "--variant", variant]))
        for variant in ("tent", "sym"):
            steps.append((f"integrate-{variant}", ["integrate", "--vector-file", vec, "--variant",
                                                   variant, "--family", fam_f, "--w", w]))
        steps.append(("bound", ["bound", "--alpha", str(alpha), "--s", str(s), "--gamma", gamma]))
        for name, argv in steps:
            ops.append(Op(f"cli {name} N={N} s={s}", _cli_call(argv)))
            meta.append((idx, N, s, name, argv))

    def begin_pass():
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)

    def written(argv):
        if "-o" not in argv:
            return b""
        with open(argv[argv.index("-o") + 1], "rb") as fh:
            return fh.read()

    def check(results):
        out = {(m[0], m[3]): r for m, r in zip(meta, results)}
        ok = []
        for (idx, N, s, name, argv), res in zip(meta, results):
            if res is None or res[0] != 0:
                ok.append(False)
                continue
            good = True
            if name.startswith("wce-file-"):
                twin = out.get((idx, "wce-vec-" + name[len("wce-file-"):]))
                good = twin is not None and res[1] == twin[1] and res[1].startswith("e2=")
            elif name == "points-sym":
                good = written(argv).count(b"\n") == points.symmetrized_node_count(N, s)
            elif name == "points-symfull":
                good = written(argv).count(b"\n") == N << s
            ok.append(bool(good))
        return ok

    def digest_parts(results):
        h = []
        for m, r in zip(meta, results):
            if r is None or r[0] != 0:
                h.append(None if r is None else r[0])
            else:
                data = "\0".join(r[1:]).encode() + b"\0" + written(m[4])
                h.append(hashlib.sha256(data).hexdigest())
        return {"bytes": h}

    def corrupt(results):
        i = [m[3] for m in meta].index("wce-file-tent")
        code, out, err = results[i]
        results[i] = (code, out.replace("e2=", "e2=1", 1), err)

    return Workload("emit", ops, check, digest_parts, corrupt, begin_pass=begin_pass,
                    close=lambda: shutil.rmtree(workdir, ignore_errors=True))


def _cli_call(argv):
    """Op for one in-process CLI round trip: (exit code, stdout, stderr)."""

    def run():
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        return code, stdout.getvalue(), stderr.getvalue()

    return run


WORKLOADS = ("construct", "certify", "converge", "emit")


def build(name: str, seed: int, tiny: bool, workdir: str) -> Workload:
    if name == "construct":
        return construct(seed, tiny)
    if name == "certify":
        return certify(seed, tiny)
    if name == "converge":
        return converge(seed, tiny)
    if name == "emit":
        return emit(seed, tiny, workdir)
    raise ValueError(f"unknown workload {name!r}")
