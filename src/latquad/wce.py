"""Worst-case quadrature errors in the kernel spaces, plus the CBC error bound.

Every family is normalized so that both the double integral of the kernel and
its single integral against either argument equal 1, which collapses the
worst-case error to

    e^2 = -1 + sum_{n,n'} w_n w_{n'} K(x_n, x_{n'}).

``wce_double_sum`` evaluates that quadratic form directly and is the expensive,
assumption-free oracle.  For rank-1 lattices the group structure reduces the
Korobov-space error to a single sum over nodes.  Tent folding, and averaging
over coordinate reflections, turn each kernel factor into the fold average

    kbar_j(n, n') = 1 + (gamma_j / 2) [Omega((n - n') g_j mod N)
                                       + Omega((n + n') g_j mod N)],

with Omega(m) = omega(m / N) the Korobov closed form.  ``wce_cosine_tent``,
``wce_korcos_sym`` and ``wce_cosine_sym`` sum that exactly over the
base-lattice numerators.  For s >= 2 the result is in general strictly below
the Korobov single sum, which only bounds it from above.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .kernels import (
    DEFAULT_POLICY,
    SpaceSpec,
    TruncationBudgetError,
    TruncationPolicy,
    _check_gammas,
    _product_tail,
    kernel_factor,
    korobov_omega,
    zeta,
)
from .points import LatticeRule, WeightedPointSet, dual_lattice

__all__ = [
    "WceMethod",
    "WceResult",
    "MAX_DOUBLE_SUM_NODES",
    "wce_double_sum",
    "wce_korobov_lattice",
    "wce_cosine_tent",
    "wce_korcos_sym",
    "wce_cosine_sym",
    "cbc_bound_constant",
]

MAX_DOUBLE_SUM_NODES = 4096
_ROW_BLOCK = 512


class WceMethod(str, Enum):
    KERNEL_DOUBLE_SUM = "kernel-double-sum"
    CLOSED_FORM_SINGLE_SUM = "closed-form-single-sum"
    DUAL_LATTICE_TRUNCATED = "dual-lattice-truncated"
    FOLD_AVERAGE_DOUBLE_SUM = "fold-average-double-sum"


@dataclass(frozen=True)
class WceResult:
    """Squared worst-case error with its computation method and tail bound."""

    e2: float
    method: WceMethod
    tail_bound: float


def wce_double_sum(
    spec: SpaceSpec,
    ps: WeightedPointSet,
    policy: TruncationPolicy = DEFAULT_POLICY,
    threads: int | None = None,
) -> WceResult:
    """e^2 by the full weighted double sum of kernel values.

    Capped at MAX_DOUBLE_SUM_NODES nodes.  Processed in fixed row blocks with
    a fixed-order compensated reduction, so the result is identical whether or
    not a thread pool is used.  The reported tail bound sums, per coordinate,
    the factor truncation bound times the largest magnitudes of the remaining
    factors over all node pairs.

    Each kernel factor is evaluated once per distinct pair of coordinate
    values: per row block and coordinate, a table over the block's distinct
    values times the set's distinct values, gathered into the block's rows and
    columns.  Lattice, tent and symmetrized node sets of an N-point rule take
    at most N + 1 distinct values per coordinate, so each block costs s
    tables of at most (N + 1)^2 evaluations, and the whole sum s gathers of
    M^2 values, instead of s M^2 evaluations.  No table is larger than the
    block times M, so memory stays O(block M).  The factors are elementwise,
    so every gathered value, and hence e2 and the tail bound, has the same
    bits as evaluating every node pair directly.
    """
    X, w = ps.points, ps.weights
    M, s = X.shape
    if s != spec.s:
        raise ValueError(f"point set dimension {s} does not match spec dimension {spec.s}")
    if M > MAX_DOUBLE_SUM_NODES:
        raise ValueError(f"double sum capped at {MAX_DOUBLE_SUM_NODES} nodes, got {M}")

    blocks = [(i, min(i + _ROW_BLOCK, M)) for i in range(0, M, _ROW_BLOCK)]
    cols = [np.unique(X[:, j], return_inverse=True) for j in range(s)]

    def run_block(block: tuple[int, int]):
        i0, i1 = block
        prod = None
        maxv = np.empty(s)
        bnds = np.empty(s)
        for j, (cu, cinv) in enumerate(cols):
            ru, rinv = (cu, cinv) if i1 - i0 == M else np.unique(X[i0:i1, j], return_inverse=True)
            table, bnds[j] = kernel_factor(
                spec.family, spec.alpha, spec.gammas[j], ru[:, None], cu[None, :], policy,
            )
            # every table entry is some node pair's value, so the maxima match
            maxv[j] = float(np.abs(table).max())
            # np.take along axis 1 keeps the gathered block C-contiguous, as
            # the direct evaluation was; a Fortran-ordered block sends
            # prod @ w down another BLAS path and moves the last bits of e2
            vals = np.take(table[rinv], cinv, axis=1)
            prod = vals if prod is None else prod * vals
        return float(w[i0:i1] @ (prod @ w)), maxv, bnds

    if threads is not None and threads > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run_block, blocks))
    else:
        results = [run_block(b) for b in blocks]

    e2 = math.fsum(q for q, _, _ in results) - 1.0
    maxv = np.max(np.stack([mv for _, mv, _ in results]), axis=0)
    factor_bounds = results[0][2]
    return WceResult(e2, WceMethod.KERNEL_DOUBLE_SUM, _product_tail(factor_bounds, maxv))


def wce_korobov_lattice(
    rule: LatticeRule,
    alpha: float,
    gammas: Sequence[float],
    policy: TruncationPolicy = DEFAULT_POLICY,
    dual_cap: int = 10_000_000,
) -> WceResult:
    """Korobov-space e^2 of a rank-1 lattice.

    Integer alpha in 1..3: exact single sum over nodes,
        e^2 = -1 + (1/N) sum_n prod_j (1 + gamma_j omega(frac(n g_j / N))).
    Other alpha: truncated dual-lattice sum of the Fourier weights, with the
    box half-width H sized so each per-coordinate tail is at most
    policy.tol / (3 s).
    """
    N, s = rule.N, rule.s
    gammas = _check_gammas(gammas, s)

    if float(alpha).is_integer() and int(alpha) in (1, 2, 3):
        om = korobov_omega(int(alpha), np.arange(N) / N)
        n = np.arange(N, dtype=np.int64)
        prod = np.ones(N)
        for g_j, gamma_j in zip(rule.g, gammas):
            prod *= 1.0 + gamma_j * om[(n * g_j) % N]
        e2 = math.fsum(prod) / N - 1.0
        return WceResult(e2, WceMethod.CLOSED_FORM_SINGLE_SUM, 0.0)

    if not alpha > 0.5:
        raise ValueError("alpha must exceed 1/2")
    # 2 gamma H^(1-2a)/(2a-1) <= tol/(3s), per coordinate
    per_dim = policy.tol / (3.0 * s)
    H = max(
        1,
        math.ceil(
            max(
                (2.0 * g / (per_dim * (2.0 * alpha - 1.0))) ** (1.0 / (2.0 * alpha - 1.0))
                for g in gammas
            )
        ),
    )
    if (2 * H + 1) ** s > dual_cap:
        raise TruncationBudgetError(
            f"dual-lattice box H={H} needs {(2 * H + 1) ** s} candidates (cap {dual_cap})"
        )
    hs = np.abs(dual_lattice(rule, H, max_candidates=dual_cap))
    # Fourier weight product per dual vector, from per-coordinate tables over |h_j|
    prod = np.ones(len(hs))
    for j, g in enumerate(gammas):
        table = np.array([1.0] + [g * float(k) ** (-2.0 * alpha) for k in range(1, H + 1)])
        prod *= table[hs[:, j]]
    e2 = math.fsum(prod.tolist())
    z2a = zeta(2.0 * alpha)
    tails = [2.0 * g * H ** (1.0 - 2.0 * alpha) / (2.0 * alpha - 1.0) for g in gammas]
    full = [1.0 + 2.0 * g * z2a for g in gammas]
    tail = 0.0
    for j in range(s):
        rest = 1.0
        for i in range(s):
            if i != j:
                rest *= full[i]
        tail += tails[j] * rest
    return WceResult(e2, WceMethod.DUAL_LATTICE_TRUNCATED, tail)


def _fold_average_e2(
    rule: LatticeRule,
    alpha: float,
    gammas: Sequence[float],
    policy: TruncationPolicy,
) -> WceResult:
    """e^2 = -1 + N^-2 sum_{n,n'} prod_j kbar_j(n, n') over the base lattice.

    kbar_j = (F_j[(n - n') g_j mod N] + F_j[(n + n') g_j mod N]) / 2 with the
    Korobov factor table F_j[m] = 1 + gamma_j omega(m / N) from
    ``kernel_factor``: the closed form for alpha in 1..3 (tail 0), the
    truncated series otherwise.  Processed in fixed row blocks through integer
    table lookups and reduced by one fsum over per-row sums, so repeated calls
    are bit-identical.  The tail bound propagates the per-factor series bounds
    as ``wce_double_sum`` does.  Cost O(N^2 s) time, O(block N) memory, so
    like the double sum it is capped at MAX_DOUBLE_SUM_NODES nodes and raises
    ValueError above that before doing any work.
    """
    N, s = rule.N, rule.s
    if N > MAX_DOUBLE_SUM_NODES:
        raise ValueError(f"fold-average sum capped at {MAX_DOUBLE_SUM_NODES} nodes, got {N}")
    m = np.arange(N, dtype=np.int64)
    tables, bnds = [], np.empty(s)
    for j, gamma in enumerate(gammas):
        F, bnds[j] = kernel_factor("korobov", alpha, gamma, m / N, 0.0, policy)
        tables.append(F)
    ngs = [(m * g_j) % N for g_j in rule.g]
    maxv = np.zeros(s)
    row_sums = []
    for i0 in range(0, N, _ROW_BLOCK):
        prod = None
        for j, (F, ng) in enumerate(zip(tables, ngs)):
            a = ng[i0:i0 + _ROW_BLOCK, None]
            vals = 0.5 * (F[(a - ng) % N] + F[(a + ng) % N])
            maxv[j] = max(maxv[j], float(np.abs(vals).max()))
            prod = vals if prod is None else prod * vals
        row_sums.extend(prod.sum(axis=1).tolist())
    e2 = math.fsum(row_sums) / (N * N) - 1.0
    return WceResult(e2, WceMethod.FOLD_AVERAGE_DOUBLE_SUM, _product_tail(bnds, maxv))


def wce_cosine_tent(
    rule: LatticeRule,
    alpha: float,
    gammas: Sequence[float],
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> WceResult:
    """Cosine-space e^2 of the tent-transformed lattice.

    At a tent-folded node phi(t), cos(pi k phi(t)) = cos(2 pi k t), so each
    cosine factor becomes the fold average of the Korobov factor over t - t'
    and t + t'.  Computed by the O(N^2 s) fold-average sum, capped at
    MAX_DOUBLE_SUM_NODES nodes: exact for alpha in 1..3, with a rigorous
    series tail bound otherwise.  This is
    the Korobov error ``wce_korobov_lattice`` only in one dimension or when
    the dual lattice is closed under per-coordinate sign flips; otherwise it
    is strictly smaller.
    """
    gammas = _check_gammas(gammas, rule.s)
    return _fold_average_e2(rule, alpha, gammas, policy)


def wce_korcos_sym(
    rule: LatticeRule,
    alpha: float,
    gammas: Sequence[float],
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> WceResult:
    """e^2 of the symmetrized lattice in the mean-of-kernels space.

    Averaging over the coordinate reflections turns the Korobov half into the
    fold average with weight gamma and leaves only the even frequencies of
    the cosine half, the fold average with weight gamma 4^(-alpha).  The
    mean is the fold average with weight (1 + 4^(-alpha)) gamma / 2, computed
    by the O(N^2 s) fold-average sum, capped at MAX_DOUBLE_SUM_NODES nodes:
    exact for alpha in 1..3, with a rigorous series tail bound otherwise.
    """
    gammas = _check_gammas(gammas, rule.s)
    scale = 0.5 * (1.0 + 4.0 ** (-float(alpha)))
    return _fold_average_e2(rule, alpha, [g * scale for g in gammas], policy)


def wce_cosine_sym(
    rule: LatticeRule,
    alpha: float,
    gammas: Sequence[float],
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> WceResult:
    """Cosine-space e^2 of the symmetrized lattice.

    Averaging over the coordinate reflections leaves only the even cosine
    frequencies, so each factor becomes the fold average with weight
    gamma 4^(-alpha), computed by the O(N^2 s) fold-average sum, capped at
    MAX_DOUBLE_SUM_NODES nodes: exact for alpha in 1..3, with a rigorous
    series tail bound otherwise.  This is the Korobov error with weights
    gamma 4^(-alpha) only in one dimension or when the dual lattice is closed
    under per-coordinate sign flips; otherwise it is strictly smaller.
    """
    gammas = _check_gammas(gammas, rule.s)
    scale = 4.0 ** (-float(alpha))
    return _fold_average_e2(rule, alpha, [g * scale for g in gammas], policy)


def cbc_bound_constant(alpha: float, gammas: Sequence[float], tau: float = 1.0) -> float:
    """Constant C in the CBC guarantee e <= C * (N-1)^(-tau/2).

    C = (-1 + prod_j (1 + 2 zeta(2 alpha / tau) gamma_j^(1/tau)))^(tau/2),
    valid for 1 <= tau < 2 alpha.
    """
    gammas = _check_gammas(gammas)
    tau = float(tau)
    if not 1.0 <= tau < 2.0 * float(alpha):
        raise ValueError(f"tau must satisfy 1 <= tau < 2*alpha, got tau={tau}, alpha={alpha}")
    z = zeta(2.0 * float(alpha) / tau)
    prod = 1.0
    for g in gammas:
        prod *= 1.0 + 2.0 * z * g ** (1.0 / tau)
    return (prod - 1.0) ** (tau / 2.0)
