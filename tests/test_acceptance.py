"""Acceptance gate: ten numbered checks, one report line each.

Run ``pytest tests/test_acceptance.py -s`` to see the lines; each reads
``[acceptance] criterion N: PASS/FAIL - detail``.

Criteria 1, 2 and 10 play kernel double sums over folded or reflected nodes
against the exact fold-average routes ``wce_cosine_tent``, ``wce_korcos_sym``
and ``wce_cosine_sym``.  Criteria 1 and 10 also place the periodic (Korobov)
closed form: equal to the folded or reflected rule's error in one dimension,
an upper bound on it in s >= 2, where that rule is in general strictly
better.  Criterion 9
fits convergence slopes; the tent rule's one-dimensional projections are
trapezoid rules, so on the non-symmetric h family its slope sits near -2.
"""
import itertools
import math
import time

import numpy as np

from latquad.bench import TestFunction as Integrand
from latquad.bench import converge_study, fit_slope
from latquad.cbc import cbc_construct
from latquad.kernels import (
    SpaceSpec,
    TruncationPolicy,
    kernel_factor,
    korobov_omega,
)
from latquad.points import (
    LatticeRule,
    lattice_points,
    symmetrize,
    symmetrized_node_count,
    tent_transform,
)
from latquad.wce import (
    wce_cosine_sym,
    wce_cosine_tent,
    wce_double_sum,
    wce_korcos_sym,
    wce_korobov_lattice,
)

from oracles import candidate_set, cosine_coeff, fourier_coeff

PI = math.pi
SEED = 20140814
# sizes series factors at non-integer alpha; alpha in 1..3 takes closed forms
POLICY = TruncationPolicy(tol=3e-5)


def _report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion}: {status} - {detail}")
    assert ok, detail


def _random_rules(rng, s, n_hi, count):
    rules = []
    for _ in range(count):
        N = int(rng.integers(2, n_hi + 1))
        g = tuple(int(v) for v in rng.integers(1, N, size=s))
        rules.append(LatticeRule(N, g))
    return rules


def _coprime_vector(N, s):
    units = [z for z in range(1, N) if math.gcd(z, N) == 1]
    return tuple(units[i % len(units)] for i in range(s))


def _equivalence_sweep(family, nodes_of, closed_form, n_hi, rng, each=None):
    """Worst exceedance of |double sum - closed form| over the sampling plan.

    ``each(rule, alpha, gammas, ds)``, when given, sees every double sum.
    """
    worst = -math.inf
    worst_case = None
    checked = 0
    for alpha in (1, 2):
        for s in (1, 2, 3):
            if s == 1:
                rules = [LatticeRule(N, (g,)) for N in range(2, n_hi + 1) for g in range(1, N)]
            else:
                rules = _random_rules(rng, s, n_hi, 30)
            for rule in rules:
                gammas = (1.0,) * s
                ds = wce_double_sum(SpaceSpec(family, float(alpha), gammas), nodes_of(rule), POLICY)
                cf = closed_form(rule, alpha, gammas, POLICY)
                if each is not None:
                    each(rule, alpha, gammas, ds)
                gap = abs(ds.e2 - cf.e2)
                allowed = 1e-8 + ds.tail_bound + cf.tail_bound
                checked += 1
                if gap - allowed > worst:
                    worst = gap - allowed
                    worst_case = (alpha, rule.N, rule.g, gap, allowed)
    return worst, worst_case, checked


def test_criterion_01_tent_rule_reproduces_periodic_closed_form():
    """Tent-rule cosine error: exact route, and the periodic closed form.

    The double sum must equal ``wce_cosine_tent`` for every rule.  The Korobov
    single sum ``wce_korobov_lattice`` equals it in s = 1 and bounds it from
    above in s >= 2 (the folded rule keeps only the sign-flip projection of
    the dual indicator).  Both use the same 1e-8 + tails slack.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(SEED)
    periodic = {"equal": 0, "bound": 0, "bad": []}

    def check_periodic(rule, alpha, gammas, ds):
        kor = wce_korobov_lattice(rule, alpha, gammas, POLICY)
        slack = 1e-8 + ds.tail_bound + kor.tail_bound
        if rule.s == 1:
            periodic["equal"] += 1
            good = abs(ds.e2 - kor.e2) <= slack
        else:
            periodic["bound"] += 1
            good = ds.e2 <= kor.e2 + slack
        if not good:
            periodic["bad"].append((alpha, rule.N, rule.g, ds.e2, kor.e2))

    worst, case, checked = _equivalence_sweep(
        "cosine", lambda rule: tent_transform(lattice_points(rule)),
        wce_cosine_tent, 16, rng, each=check_periodic)
    elapsed = time.perf_counter() - start
    ok = worst <= 0.0 and not periodic["bad"] and elapsed <= 120.0
    if worst <= 0.0:
        detail = f"{checked} rules agree with wce_cosine_tent within 1e-8+tails"
    else:
        alpha, N, g, gap, allowed = case
        detail = (f"worst |ds-tent|={gap:.6g} exceeds {allowed:.3g} at "
                  f"alpha={alpha} N={N} g={g} ({checked} rules)")
    if not periodic["bad"]:
        detail += (f"; periodic closed form equal for {periodic['equal']} s=1 rules, "
                   f"upper bound for {periodic['bound']} s>=2 rules")
    else:
        alpha, N, g, ds_e2, kor_e2 = periodic["bad"][0]
        detail += (f"; periodic closed form {kor_e2:.6g} vs ds {ds_e2:.6g} at "
                   f"alpha={alpha} N={N} g={g} ({len(periodic['bad'])} rules off)")
    _report(1, ok, f"{detail}, {elapsed:.1f}s")


def test_criterion_02_reflected_rule_reproduces_periodic_closed_form():
    start = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst, case, checked = _equivalence_sweep(
        "korcos", symmetrize, wce_korcos_sym, 8, rng)
    elapsed = time.perf_counter() - start
    ok = worst <= 0.0 and elapsed <= 120.0
    if worst <= 0.0:
        detail = f"{checked} rules agree within 1e-8+tails, {elapsed:.1f}s"
    else:
        alpha, N, g, gap, allowed = case
        detail = (f"worst |ds-closed|={gap:.6g} exceeds {allowed:.3g} at "
                  f"alpha={alpha} N={N} g={g} ({checked} rules, {elapsed:.1f}s)")
    _report(2, ok, detail)


def test_criterion_03_reflected_node_count_formula():
    bad = []
    for N in range(2, 33):
        for s in range(1, 5):
            want = 2 ** (s - 1) * (N + 1) if N % 2 else 2 ** (s - 1) * N + 1
            if symmetrized_node_count(N, s) != want:
                bad.append((N, s, "formula"))
                continue
            for g in {(1,) * s, _coprime_vector(N, s)}:
                if len(symmetrize(LatticeRule(N, g))) != want:
                    bad.append((N, s, g))
    ok = not bad
    detail = "exact for N in [2,32], s in [1,4]" if ok else f"mismatches: {bad[:5]}"
    _report(3, ok, detail)


def test_criterion_04_bernoulli_kernel_equals_truncated_cosine_series():
    kmax = 10**5
    k = np.arange(1, kmax + 1, dtype=np.float64)
    invk2 = 1.0 / (k * k)
    grid = (np.arange(50) + 0.5) / 50.0
    X = np.repeat(grid, 50)
    Y = np.tile(grid, 50)
    # on this grid x-y and x+y live on the lattice m/50, so the truncated
    # series needs only 149 distinct trigonometric sums
    diff_idx = np.arange(-49, 50)
    sum_idx = np.arange(1, 100)
    trig = {m: float(np.dot(np.cos(PI * k * (m / 50.0)), invk2))
            for m in set(diff_idx) | set(sum_idx)}
    i = np.repeat(np.arange(50), 50)
    j = np.tile(np.arange(50), 50)
    series = np.array([trig[d] for d in i - j]) + np.array([trig[m] for m in i + j + 1])
    ratios = []
    for gamma in (0.1, 1.0, 10.0):
        scaled = gamma / PI**2
        sob, _ = kernel_factor("sobolev", 1, gamma, X, Y)
        truncated = 1.0 + scaled * series
        bound = scaled / kmax
        ratios.append(float(np.max(np.abs(sob - truncated))) / bound)
    ok = max(ratios) <= 1.0
    detail = f"max |K_sob - K_cos^trunc| / bound = {max(ratios):.8f} over gamma in (0.1, 1, 10)"
    _report(4, ok, detail)


def test_criterion_05_quadrature_coefficients_match_closed_forms():
    errs = []
    for kk in range(1, 16, 2):
        want = 4.0 * math.sqrt(2.0) / (PI * (4.0 - kk * kk))
        errs.append(abs(cosine_coeff(lambda x: np.sin(2.0 * PI * x).ravel(), kk) - want))
        want = -2.0 * math.sqrt(2.0) / (PI**2 * kk * kk)
        errs.append(abs(cosine_coeff(lambda x: x.ravel(), kk) - want))
    for h in range(-10, 11):
        want = 4j * h / (PI * (1.0 - 4.0 * h * h))
        errs.append(abs(fourier_coeff(lambda x: np.cos(PI * x).ravel(), h) - want))
    ok = max(errs) <= 1e-9
    detail = f"max coefficient error {max(errs):.3g} over 37 closed-form values"
    _report(5, ok, detail)


def test_criterion_06_cbc_bound_certificate():
    # tau = 1 needs 1 <= tau < 2 alpha, so every alpha > 1/2 is certified
    start = time.perf_counter()
    gammas = tuple(1.0 / j**2 for j in range(1, 11))
    failures = []
    for alpha in (1, 0.75, 1.5):
        for N in (257, 509, 1021):
            res = cbc_construct(N, 10, alpha, gammas)
            if not all(res.bound_ok):
                failures.append((alpha, N))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed <= 60.0
    detail = (f"every per-dimension e2 within C^2/(N-1) for N in (257, 509, 1021) at "
              f"alpha in (1, 0.75, 1.5), {elapsed:.1f}s" if not failures
              else f"bound violated at (alpha, N) in {failures}")
    _report(6, ok, detail)


def test_criterion_07_cbc_attains_exhaustive_minimum():
    worst = 0.0
    for s in (1, 2):
        gammas = tuple(1.0 / j for j in range(1, s + 1))
        for N in range(2, 17):
            om = korobov_omega(1, np.arange(N) / N)
            n = np.arange(N)
            best = math.inf
            for g in itertools.product(candidate_set(N), repeat=s):
                prod = np.ones(N)
                for z, gamma in zip(g, gammas):
                    prod = prod * (1.0 + gamma * om[(n * z) % N])
                best = min(best, float(np.sum(prod)) / N - 1.0)
            got = cbc_construct(N, s, 1, gammas).per_dim_e2[-1]
            worst = max(worst, abs(got - best) / best)
    ok = worst <= 1e-12
    detail = f"max relative gap to exhaustive search {worst:.3g} (N<=16, s<=2)"
    _report(7, ok, detail)


def test_criterion_08_reflected_rule_kills_odd_symmetry():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for kind in ("cosine", "monomial"):
        for _ in range(20):
            s = int(rng.integers(1, 4))
            N = int(rng.choice((3, 4, 7)))
            g = tuple(int(v) for v in rng.integers(1, N, size=s))
            ps = symmetrize(LatticeRule(N, g))
            if kind == "cosine":
                freqs = 2 * rng.integers(0, 5, size=s) + 1
                vals = np.cos(PI * freqs * ps.points).prod(axis=1)
            else:
                powers = 2 * rng.integers(0, 3, size=s) + 1
                vals = ((ps.points - 0.5) ** powers).prod(axis=1)
            est = abs(math.fsum(ps.weights * vals))
            worst = max(worst, est)
    ok = worst <= 1e-12
    detail = f"max |error| {worst:.3g} over 40 odd integrands with exact value 0"
    _report(8, ok, detail)


def test_criterion_09_convergence_orders():
    """Fitted error slopes of CBC rules on the g and h families, N = 2^6..2^14.

    Clause 4 (h family, tent rule) predicts -2.  For N = 2^m the units g_j
    are odd, so n g_j mod N runs over all residues and the tent fold maps the
    one-dimensional projection onto the trapezoid rule with step 2/N.  The h
    factor q(x) = 31 - 84x^2 + 8x^3 + 70x^4 - 28x^6 + 8x^7 - 16cos(1)
    - 16sin(x) has q'(0) = -16 and q'(1) = 24 - 16cos(1) ~ 15.36, so it is
    not reflection-symmetric, its cosine coefficients decay like k^-2, and
    the Euler-Maclaurin error of each projection is
    (w^j/8) (2/N)^2 / 12 (q'(1) - q'(0)) + O(N^-4), of order N^-2.  At
    N = 8192 the first-coordinate term alone is 80% of the error, and the
    slopes between consecutive N from 64 to 16384 lie in [-2.01, -1.96].
    The window [-2.45, -1.55] is centred on -2 with the width of the
    first-order window it replaces, so it still rejects first-order
    behaviour and the g-like order (<= -2.5).
    """
    start = time.perf_counter()
    Ns = [2**m for m in range(6, 15)]
    f_g = Integrand("g", 8, 0.9)
    slope = {v: fit_slope(converge_study(f_g, v, Ns, cbc_alpha=1))
             for v in ("plain", "tent", "sym")}
    f_h = Integrand("h", 10, 0.1)
    h_tent = fit_slope(converge_study(f_h, "tent", Ns, cbc_alpha=1))
    elapsed = time.perf_counter() - start
    clauses = [
        (slope["plain"] >= -1.6, f"slope(plain)={slope['plain']:.3f} >= -1.6"),
        (slope["tent"] <= -2.5, f"slope(tent)={slope['tent']:.3f} <= -2.5"),
        (slope["sym"] <= -2.5, f"slope(sym)={slope['sym']:.3f} <= -2.5"),
        (-2.45 <= h_tent <= -1.55, f"h slope(tent)={h_tent:.3f} in [-2.45,-1.55]"),
        (elapsed <= 600.0, f"runtime {elapsed:.0f}s <= 600s"),
    ]
    ok = all(c for c, _ in clauses)
    detail = "; ".join(("ok: " if c else "VIOLATED: ") + txt for c, txt in clauses)
    _report(9, ok, detail)


def test_criterion_10_reflected_rule_halves_cosine_frequencies():
    """Symmetrized-rule cosine error: exact route, and the rescaled closed form.

    Reflection keeps only the even cosine frequencies, so the error is the
    fold average with weights gamma 4^-alpha.  The double sum on the
    symmetrized nodes must equal ``wce_cosine_sym`` within 1e-8 + tails.  The
    Korobov single sum with weights gamma 4^-alpha equals it in s = 1 (1e-12
    relative) and bounds it from above in s >= 2.  Spot values pi^2/48 and
    pi^2/192 at N = 2 and 4.
    """
    rng = np.random.default_rng(SEED)
    worst = 0.0
    bad = []
    for _ in range(20):
        N = int(rng.integers(2, 64))
        s = int(rng.integers(1, 5))
        g = tuple(int(v) for v in rng.integers(1, N, size=s))
        alpha = int(rng.integers(1, 4))
        gammas = tuple(float(v) for v in rng.uniform(0.1, 2.0, size=s))
        rule = LatticeRule(N, g)
        a = wce_cosine_sym(rule, alpha, gammas)
        ds = wce_double_sum(SpaceSpec("cosine", float(alpha), gammas), symmetrize(rule), POLICY)
        if abs(a.e2 - ds.e2) > 1e-8 + ds.tail_bound + a.tail_bound:
            bad.append(("ds", N, g, alpha, a.e2, ds.e2))
        b = wce_korobov_lattice(rule, alpha, tuple(gv * 4.0**-alpha for gv in gammas)).e2
        if s == 1:
            worst = max(worst, abs(a.e2 - b) / max(abs(b), 1e-300))
        elif a.e2 > b + 1e-12 * abs(b):
            bad.append(("bound", N, g, alpha, a.e2, b))
    spot1 = wce_cosine_sym(LatticeRule(2, (1,)), 1, (1.0,)).e2
    spot2 = wce_cosine_sym(LatticeRule(4, (1,)), 1, (1.0,)).e2
    worst = max(worst, abs(spot1 - PI**2 / 48.0) / (PI**2 / 48.0))
    worst = max(worst, abs(spot2 - PI**2 / 192.0) / (PI**2 / 192.0))
    ok = worst <= 1e-12 and not bad
    detail = (f"20 random rules agree with the symmetrized double sum within 1e-8+tails; "
              f"max relative gap to the rescaled closed form {worst:.3g} over s=1 rules "
              f"+ 2 spot values, upper bound for s>=2")
    if bad:
        kind, N, g, alpha, got, ref = bad[0]
        detail = (f"{kind} check off at N={N} g={g} alpha={alpha}: {got:.6g} vs {ref:.6g} "
                  f"({len(bad)} rules off)")
    _report(10, ok, detail)
