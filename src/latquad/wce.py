"""Worst-case quadrature errors in the kernel spaces, plus the CBC error bound.

Every family is normalized so that both the double integral of the kernel and
its single integral against either argument equal 1, which collapses the
worst-case error to

    e^2 = -1 + sum_{n,n'} w_n w_{n'} K(x_n, x_{n'}).

``wce_double_sum`` evaluates that quadratic form directly and is the expensive,
assumption-free oracle.  For rank-1 lattices the group structure reduces the
Korobov-space error to a single sum over nodes at integer alpha in 1..3, and
otherwise to the sum of the Fourier weights over the dual lattice
{h != 0 : h . g = 0 (mod N)}.  ``wce_korobov_lattice`` truncates that sum to
the box |h_j| <= H and evaluates it without enumerating the box, by cyclic
convolutions of per-coordinate weight tables over the residues mod N: at most
(s - 2) N min(N, 2H) products of positive terms, refused before any work
above a stated cap.  Tent folding, and averaging
over coordinate reflections, turn each kernel factor into the fold average

    kbar_j(n, n') = 1 + (gamma_j / 2) [Omega((n - n') g_j mod N)
                                       + Omega((n + n') g_j mod N)],

with Omega(m) = omega(m / N) the Korobov closed form.  ``wce_cosine_tent``,
``wce_korcos_sym`` and ``wce_cosine_sym`` sum that exactly, in O(2^s N) by
subset sums under a cap on 2^s N.  For s >= 2 the result is in general
strictly below the Korobov single sum, which only bounds it from above.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from enum import Enum
from typing import Sequence

import numpy as np

from .kernels import (
    _CLOSED_ALPHAS,
    DEFAULT_POLICY,
    SpaceSpec,
    TruncationBudgetError,
    TruncationPolicy,
    _check_alpha,
    _check_gammas,
    _product_tail,
    kernel_factor,
    korobov_omega,
    series_kmax,
    series_tail_bound,
    zeta,
)
from .points import LatticeRule, WeightedPointSet
# No route here enumerates the dual lattice any more; the name stays a module
# attribute because the benchmark tracer (perfbench/tracing.py TARGETS) looks
# up latquad.wce.dual_lattice and fails without it.
from .points import dual_lattice  # noqa: F401

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
# float64 elements per row tile of the double-sum product (256 KiB)
_TILE = 1 << 15
_FOLD_WORK_CAP = 1 << 24  # on 2^s N in the fold-average routes, checked before any work
# wce_korobov_lattice at non-integer alpha, checked before any work: caps on
# the residue products (s - 2) N min(N, 2H) of its convolutions and, for
# s >= 3, on the length N of its dense residue tables
_DUAL_WORK_CAP = 200_000_000
_DUAL_RESIDUE_CAP = 1 << 22
# residue products per np.bincount call in the dual-lattice convolution
_CONV_CHUNK = 1 << 14


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
    tables of at most (N + 1)^2 evaluations, and the whole sum s gathers and
    s - 1 products of M^2 values, instead of s M^2 evaluations.  A block
    builds one coordinate's table at a time and gathers it, one tile of
    max(1, _TILE // M) rows at a time, into a block-by-M product buffer (the
    first coordinate) or a tile-sized work buffer multiplied into it (the
    others); both buffers serve every tile and coordinate, so nothing
    block-sized is allocated per coordinate.  A block thus holds one table
    (no larger than the block times M), one block-by-M buffer and two tiles:
    memory O(block M).  The factors are elementwise and multiplied in
    coordinate order, so every product, and hence e2 and the tail bound, has
    the same bits as evaluating every node pair directly.
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
        maxv = np.empty(s)
        bnds = np.empty(s)
        # prod stays C-contiguous, as the direct evaluation was: a Fortran-
        # ordered block sends prod @ w down another BLAS path and moves the
        # last bits of e2.  The matvec stays per block, not per tile, because
        # BLAS row results depend on the row count.
        prod = np.empty((i1 - i0, M))
        t = max(1, _TILE // M)
        work = np.empty((min(t, i1 - i0), M))
        for j, (cu, cinv) in enumerate(cols):
            ru, rinv = (cu, cinv) if i1 - i0 == M else np.unique(X[i0:i1, j], return_inverse=True)
            table, bnds[j] = kernel_factor(
                spec.family, spec.alpha, spec.gammas[j], ru[:, None], cu[None, :], policy,
            )
            # every table entry is some node pair's value, so the maxima match
            maxv[j] = float(np.abs(table).max())
            for r0 in range(0, i1 - i0, t):
                p = prod[r0:r0 + t]
                v = work[:len(p)] if j else p
                # mode="clip" gathers straight into out; the default "raise"
                # buffers a copy.  Inverse indices from np.unique are in range.
                np.take(table[rinv[r0:r0 + t]], cinv, axis=1, out=v, mode="clip")
                if j:
                    np.multiply(p, v, out=p)
            del table  # one table alive at a time
        return float(w[i0:i1] @ (prod @ w)), maxv, bnds

    if threads is not None and threads > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run_block, blocks))
    else:
        results = [run_block(b) for b in blocks]

    e2 = math.fsum(q for q, _, _ in results) - 1.0
    maxv = np.max(np.stack([mv for _, mv, _ in results]), axis=0)
    bnds = results[0][2]
    return WceResult(e2, WceMethod.KERNEL_DOUBLE_SUM, _product_tail(bnds, maxv + bnds))


def _alias(w: np.ndarray, r: np.ndarray, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Weights w of h = 1..H, at residues r = h g mod N, and of -h, summed by residue.

    Returns the sorted residues that occur and their weight sums.
    """
    keys, inv = np.unique(np.concatenate((r, (N - r) % N)), return_inverse=True)
    return keys, np.bincount(inv.ravel(), np.concatenate((w, w)))


def _cyclic_conv(kb: np.ndarray, vb: np.ndarray, kc: np.ndarray, vc: np.ndarray, N: int) -> np.ndarray:
    """Dense (b * c)[r] = sum b[k] c[m] over k + m = r (mod N), b and c given sparse.

    Products are binned at k + m in [0, 2N) by np.bincount, a block of
    columns m at a time, and the two halves are added at the end.  A block
    holds max(_CONV_CHUNK, 2N) products (at least one column), so memory
    stays O(N + chunk) and the block size depends on the input only: the
    summation order, and so every bit, is the same on every host.
    """
    out = np.zeros(2 * N)
    step = max(1, max(_CONV_CHUNK, 2 * N) // kb.size)
    for i in range(0, kc.size, step):
        idx = np.add.outer(kc[i:i + step], kb).ravel()
        out += np.bincount(idx, np.multiply.outer(vc[i:i + step], vb).ravel(), minlength=2 * N)
    return out[:N] + out[N:]


def _lookup(keys: np.ndarray, vals: np.ndarray, q: np.ndarray) -> np.ndarray:
    """vals at the residues q, 0 where q is not among the sorted keys."""
    i = np.minimum(np.searchsorted(keys, q), keys.size - 1)
    return np.where(keys[i] == q, vals[i], 0.0)


def wce_korobov_lattice(
    rule: LatticeRule,
    alpha: float,
    gammas: Sequence[float],
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> WceResult:
    """Korobov-space e^2 of a rank-1 lattice.

    Integer alpha in 1..3: exact single sum over nodes,
        e^2 = -1 + (1/N) sum_n prod_j (1 + gamma_j omega(frac(n g_j / N))).
    Other alpha: the dual-lattice sum of the Fourier weight products
    prod_{j: h_j != 0} gamma_j |h_j|^(-2 alpha) over the nonzero h with
    |h_j| <= H and h . g = 0 (mod N).  H and the tail bound follow the kernels
    truncation rule: H = series_kmax at tol / (3 s) for the largest weight
    2 gamma_j, the tail is 2 series_tail_bound per coordinate, and
    _product_tail takes the full sums 1 + 2 gamma_j zeta(2 alpha) as the
    magnitude caps.  The box is never enumerated.  Per
    coordinate the nonzero weights are aliased onto Z_N at h g_j mod N, giving
    c_j, and B[r], the weight of the box vectors over the coordinates so far
    with a nonzero component and residue r, is carried as B = c_1, then
    B <- B + B * c_j + c_j (cyclic convolution over the nonzero entries).
    Only residue 0 of the last step is needed, so the last coordinate
    gathers B at -h g_s instead of convolving, and one math.fsum adds the
    gathered terms.  Every term is positive, so there is no "mean - 1"
    cancellation.  Cost at most (s - 2) N min(N, 2H) products plus
    O(s (N + H)); memory O(H) for s <= 2 and O(N + H) otherwise.  Before any
    work, raises TruncationBudgetError when series_kmax finds H above
    policy.max_terms or the product count exceeds _DUAL_WORK_CAP, and
    ValueError when s >= 3 and N exceeds _DUAL_RESIDUE_CAP, the length of
    the dense residue tables.
    """
    N, s = rule.N, rule.s
    gammas = _check_gammas(gammas, s)
    alpha = _check_alpha(alpha)

    if alpha.is_integer() and int(alpha) in _CLOSED_ALPHAS:
        om = korobov_omega(int(alpha), np.arange(N) / N)
        n = np.arange(N, dtype=np.int64)
        prod = np.ones(N)
        for g_j, gamma_j in zip(rule.g, gammas):
            prod *= 1.0 + gamma_j * om[(n * g_j) % N]
        e2 = math.fsum(prod) / N - 1.0
        return WceResult(e2, WceMethod.CLOSED_FORM_SINGLE_SUM, 0.0)

    H = series_kmax(alpha, 2.0 * max(gammas), replace(policy, tol=policy.tol / (3.0 * s)))
    if s > 2 and N > _DUAL_RESIDUE_CAP:
        raise ValueError(f"dual-lattice residue tables capped at N={_DUAL_RESIDUE_CAP}, got {N}")
    work = max(s - 2, 0) * N * min(N, 2 * H)
    if work > _DUAL_WORK_CAP:
        raise TruncationBudgetError(
            f"dual-lattice convolution needs {work} products for H={H} (cap {_DUAL_WORK_CAP})"
        )
    # |h|^(-2 alpha) by Python float powers; gamma * power rounds as in Python
    powers = np.array([float(k) ** (-2.0 * alpha) for k in range(1, H + 1)])
    h = np.arange(1, H + 1, dtype=np.int64) % N
    # B: weight sums by residue of the box vectors over the coordinates so far
    # that have a nonzero component, kept as (sorted residues, sums)
    B = None
    for g_j, gamma in zip(rule.g[:-1], gammas[:-1]):
        kc, vc = _alias(gamma * powers, h * g_j % N, N)
        if B is None:
            B = kc, vc
            continue
        kb, vb = B
        nxt = _cyclic_conv(kb, vb, kc, vc, N)
        nxt[kb] = vb + nxt[kb]
        nxt[kc] += vc
        nz = np.flatnonzero(nxt)
        B = nz, nxt[nz]
    # the last coordinate needs residue 0 only: vectors with h_s = +-h and
    # nothing before, then B gathered at -(+-h) g_s
    w = gammas[-1] * powers
    r = h * rule.g[-1] % N
    terms = [w[r == 0], w[r == 0]]
    if B is not None:
        kb, vb = B
        terms += [_lookup(kb, vb, np.zeros(1, dtype=np.int64)), w * _lookup(kb, vb, (N - r) % N),
                  w * _lookup(kb, vb, r)]
    e2 = math.fsum(np.concatenate(terms).tolist())
    z2a = zeta(2.0 * alpha)
    tails = [2.0 * series_tail_bound(alpha, g, H) for g in gammas]
    full = [1.0 + 2.0 * g * z2a for g in gammas]
    return WceResult(e2, WceMethod.DUAL_LATTICE_TRUNCATED, _product_tail(tails, full))


def _fold_average_e2(
    rule: LatticeRule,
    alpha: float,
    gammas: Sequence[float],
    policy: TruncationPolicy,
) -> WceResult:
    """e^2 = -1 + N^-2 sum_{n,n'} prod_j kbar_j(n, n') over the base lattice.

    kbar_j = A_j[n - n'] + A_j[n + n'], A_j[m] = F_j[m g_j mod N] / 2, with the
    Korobov table F_j[m] = 1 + gamma_j omega(m / N) from ``kernel_factor``
    (tail 0 at alpha in 1..3), evaluated once per distinct gamma_j.  With
    P_S = sum_m prod_{j in S} A_j[m] over the subsets S of the coordinates,
    the pair sum is sum_S P_S P_{S^c} for odd N, where (n, n') ->
    (n - n', n + n') permutes Z_N^2, and 2 sum_S (P_S^even
    P_{S^c}^even + P_S^odd P_{S^c}^odd) for even N, where it covers the
    equal-parity pairs (m even, m odd) twice; g need not be a unit.  A
    depth-first walk keeps one running product per depth; math.fsum reduces
    each leaf, then the 2^s leaf products, so calls are bit-identical.
    O(2^s N) time, O(s N) memory; ValueError before any work when 2^s N
    exceeds _FOLD_WORK_CAP.  The tail bound is ``wce_double_sum``'s, with
    max over pairs |kbar_j| = max_m |F_j[m g_j mod N]| = 2 max|A_j| (n' = 0).
    """
    N, s = rule.N, rule.s
    if N << s > _FOLD_WORK_CAP:
        raise ValueError(f"fold-average sum capped at 2^s N = {_FOLD_WORK_CAP}, got {N << s}")
    m = np.arange(N, dtype=np.int64)
    rows, bnds = [], np.empty(s)
    tables = {}  # gamma -> kernel_factor's (F, bound): equal weights share one table
    for j, (g_j, gamma) in enumerate(zip(rule.g, gammas)):
        if gamma not in tables:
            tables[gamma] = kernel_factor("korobov", alpha, gamma, m / N, 0.0, policy)
        F, bnds[j] = tables[gamma]
        rows.append(0.5 * F[m * g_j % N])
    maxv = np.array([2.0 * float(np.abs(A).max()) for A in rows])
    parts = 2 - N % 2
    P = np.empty((1 << s, parts))  # P[S] for the subset S with bit j for coordinate j
    stack = [(0, 0, np.ones(N))]  # (depth j, subset S so far, its running product)
    while stack:
        j, S, prod = stack.pop()
        if j == s:
            P[S] = [math.fsum(memoryview(prod[p::parts])) for p in range(parts)]
        else:
            stack += [(j + 1, S, prod), (j + 1, S | 1 << j, prod * rows[j])]
    # S^c = (2^s - 1) - S, so P reversed lists the complements
    e2 = parts * math.fsum(memoryview((P * P[::-1]).ravel())) / (N * N) - 1.0
    return WceResult(e2, WceMethod.FOLD_AVERAGE_DOUBLE_SUM, _product_tail(bnds, maxv + bnds))


def wce_cosine_tent(
    rule: LatticeRule,
    alpha: float,
    gammas: Sequence[float],
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> WceResult:
    """Cosine-space e^2 of the tent-transformed lattice.

    At a tent-folded node phi(t), cos(pi k phi(t)) = cos(2 pi k t), so each
    cosine factor becomes the fold average of the Korobov factor over t - t'
    and t + t', summed in O(2^s N) under a cap on 2^s N: exact for alpha in
    1..3, with a rigorous series tail bound otherwise.  This is the Korobov
    error ``wce_korobov_lattice`` only in one dimension or when the dual
    lattice is closed under per-coordinate sign flips; otherwise it is
    strictly smaller.
    """
    gammas = _check_gammas(gammas, rule.s)
    alpha = _check_alpha(alpha)
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
    mean is the fold average with weight (1 + 4^(-alpha)) gamma / 2, summed
    in O(2^s N) under a cap on 2^s N: exact for alpha in 1..3, with a
    rigorous series tail bound otherwise.
    """
    gammas = _check_gammas(gammas, rule.s)
    alpha = _check_alpha(alpha)
    scale = 0.5 * (1.0 + 4.0 ** -alpha)
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
    gamma 4^(-alpha), summed in O(2^s N) under a cap on 2^s N: exact for
    alpha in 1..3, with a rigorous series tail bound otherwise.  This is the
    Korobov error with weights gamma 4^(-alpha) only in one dimension or when
    the dual lattice is closed under per-coordinate sign flips; otherwise it
    is strictly smaller.
    """
    gammas = _check_gammas(gammas, rule.s)
    alpha = _check_alpha(alpha)
    scale = 4.0 ** -alpha
    return _fold_average_e2(rule, alpha, [g * scale for g in gammas], policy)


def cbc_bound_constant(alpha: float, gammas: Sequence[float], tau: float = 1.0) -> float:
    """Constant C in the CBC guarantee e <= C * (N-1)^(-tau/2).

    C = (-1 + prod_j (1 + 2 zeta(2 alpha / tau) gamma_j^(1/tau)))^(tau/2),
    valid for 1 <= tau < 2 alpha.
    """
    gammas = _check_gammas(gammas)
    alpha = _check_alpha(alpha)
    tau = float(tau)
    if not 1.0 <= tau < 2.0 * alpha:
        raise ValueError(f"tau must satisfy 1 <= tau < 2*alpha, got tau={tau}, alpha={alpha}")
    z = zeta(2.0 * alpha / tau)
    prod = 1.0
    for g in gammas:
        prod *= 1.0 + 2.0 * z * g ** (1.0 / tau)
    return (prod - 1.0) ** (tau / 2.0)
