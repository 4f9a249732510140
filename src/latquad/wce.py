"""Worst-case quadrature errors in the kernel spaces, plus the CBC error bound.

Every family is normalized so that both the double integral of the kernel and
its single integral against either argument equal 1, which collapses the
worst-case error to

    e^2 = -1 + sum_{n,n'} w_n w_{n'} K(x_n, x_{n'}).

``wce_double_sum`` evaluates that quadratic form directly and is the expensive,
assumption-free oracle.  For rank-1 lattices the group structure reduces the
Korobov-space error to a single sum over nodes,

    e^2 = -1 + (1/N) sum_n prod_j (1 + gamma_j Omega(n g_j mod N)),

with Omega(m) = omega(m / N) the table of ``kernels._omega_table``: the
Bernoulli closed form at integer alpha in 1..3, and at any other alpha > 1/2
one real FFT of the Hurwitz-zeta residue sums, exact up to a stated bound.
That table's last bits follow the numpy FFT build, as the series kernels'
follow np.cos.  Tent folding, and averaging over coordinate reflections,
turn each kernel factor into the fold average

    kbar_j(n, n') = 1 + (gamma_j / 2) [Omega((n - n') g_j mod N)
                                       + Omega((n + n') g_j mod N)],

from the same table.  ``wce_cosine_tent``, ``wce_korcos_sym`` and
``wce_cosine_sym`` sum that exactly, in O(2^s N) by subset sums under a cap
on 2^s N.  For s >= 2 the result is in general strictly below the Korobov
single sum, which only bounds it from above.

The double sum shares that table: at non-integer alpha, on nodes p / N
with 2N within its cap, as a rule's sets and their points files are, every
kernel value is read from Omega_2N within its bound; others sum series.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .kernels import (
    DEFAULT_POLICY,
    SpaceSpec,
    TruncationPolicy,
    _check_alpha,
    _check_gammas,
    _closed,
    _omega_table,
    _product_tail,
    _TABLE_CAP,
    _refuse_overflow,
    _closed_tables,
    _periodic_tables,
    _table_parts,
    kernel_factor,
    zeta,
)
# Not called here: the benchmark tracer (perfbench/tracing.py TARGETS) wraps
# latquad.wce.korobov_omega and latquad.wce.dual_lattice.
from .kernels import korobov_omega  # noqa: F401
from .points import LatticeRule, WeightedPointSet, _denominator
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
# repeated values of a coordinate, in tiles of rows, that make folded order pay
_FOLD_TILES = 4
_FOLD_WORK_CAP = 1 << 24  # on 2^s N in the fold-average routes, checked before any work


class WceMethod(str, Enum):
    KERNEL_DOUBLE_SUM = "kernel-double-sum"
    CLOSED_FORM_SINGLE_SUM = "closed-form-single-sum"
    ALIASED_SINGLE_SUM = "aliased-single-sum"
    FOLD_AVERAGE_DOUBLE_SUM = "fold-average-double-sum"


@dataclass(frozen=True)
class WceResult:
    """Squared worst-case error with its computation method and tail bound."""

    e2: float
    method: WceMethod
    tail_bound: float


def _table_modulus(columns) -> int | None:
    """``points._denominator`` of these coordinate values, one array each, zero-padded
    (0 is p / N for any N), if 2 N <= _TABLE_CAP: the N whose Omega_2N a double sum reads."""
    x = np.zeros((max(map(len, columns)), len(columns)))
    for j, c in enumerate(columns):
        x[:len(c), j] = c
    N = _denominator(x)
    return N if N is not None and 2 * N <= _TABLE_CAP else None


@_refuse_overflow
def wce_double_sum(
    spec: SpaceSpec,
    ps: WeightedPointSet,
    policy: TruncationPolicy = DEFAULT_POLICY,
    threads: int | None = None,
) -> WceResult:
    """e^2 by the full weighted double sum of kernel values.

    Capped at MAX_DOUBLE_SUM_NODES nodes.  ``threads`` is None (serial) or at
    least 1.  Each row of the product is reduced on its own, r_i = sum_k
    prod[i, k] w_k by numpy's einsum (no BLAS), whose result for one row does
    not depend on how many rows are reduced together; math.fsum then sums
    the M values w_i r_i, correctly rounded.  So e2 has the same bits for any
    row block, tile, thread count or BLAS library.  The reported tail bound
    is ``_product_tail`` of the factor bounds and each factor's largest
    magnitude over all node pairs.

    Kernel values come from one of two places.  At alpha outside {1, 2, 3},
    a korobov, cosine or korcos sum over nodes p / N, N = ``_table_modulus``
    of the distinct coordinate values, reads c(r / N) = Omega_2N[r mod 2N] /
    2 at each x - y, x + y and 2 (x - y) = r / N (``kernels._table_parts``),
    Omega_2N = ``_omega_table(alpha, 2 N)`` built once per call with bound
    b.  Each family weighs its entries by gamma_j in total, so factor j is
    off by at most gamma_j b; nothing is truncated and ``policy`` is not
    used.  Other sets call ``kernel_factor`` per coordinate there, whose
    series ``policy`` truncates with a term count that follows gamma_j.
    Sobolev and integer alpha take its closed forms.

    Each kernel factor is evaluated once per distinct pair of coordinate
    values.  Coordinate j keeps its U_j distinct values, as floats or as
    numerators, and every table is read through indices into them: per row
    block, a table over the values at the block's distinct indices times
    all U_j values, gathered into the block's rows and columns.  Lattice,
    tent and symmetrized node sets of an N-point rule take at most N + 1
    distinct values per coordinate, so each block costs s tables of at
    most (N + 1)^2 evaluations, and the whole sum at most s gathers and
    s - 1 products of M^2 values, instead of s M^2 evaluations.  Outside
    the series, coordinates whose block rows and columns hold bit-equal
    values, as a rule's p / N do, share one gamma-free evaluation per block
    (``kernels._periodic_parts``, or sobolev's B_2alpha(|x - y|)), and each
    table follows from it in a lone call's order, the last in its storage.
    A set whose own tables, sum_j U_j^2 values, fit in a _ROW_BLOCK-by-M
    array is one block, which runs on one thread.  Otherwise a block takes
    the whole tiles of t = max(1, _TILE // M) rows that fit in _ROW_BLOCK M
    // sum_j U_j rows, but at least one tile.  Either way its tables hold at
    most max(_ROW_BLOCK M, s _TILE) values.  A block first builds all s of
    its tables, one group at a time, and keeps them.  Then, one row tile at
    a time, it gathers coordinate 0 into a product tile, gathers every later
    coordinate into a work tile and multiplies it in, in coordinate order,
    and reduces the finished tile by einsum while it is still in cache; no
    block-by-M array is built.

    When a coordinate repeats at least _FOLD_TILES tiles of rows (M - U_j >=
    _FOLD_TILES t), the rows are taken in folded order: lexsorted by each
    coordinate's folded rank min(r, U_j - 1 - r), so a reflection orbit of
    a symmetrized set, and coincident tent nodes n and N - n, share a tile.
    Each tile and coordinate gathers table rows, then their columns into a
    slab.  For such a coordinate, a tile whose d distinct table rows
    satisfy 2 d <= its rows takes each once, into a d-by-M slab, and copies
    whole slab rows into the tile; any other tile takes its own rows, and
    its slab is the tile.  The gathered rows and the slab fit in one
    scratch tile, so a block's memory is its tables, the transient of
    building one group's (its gamma-free parts, and for korcos and sobolev
    one scratch table), and three arrays of at most _TILE values; each of
    ``threads`` workers runs one block at a time.  Row order moves no bit:
    each row is reduced by the same einsum over its products in column
    order, and the factors are elementwise and multiplied in coordinate
    order, so every product, and hence e2 and the tail bound, has the same
    bits as evaluating every node pair directly.  A product,
    sum or tail past the float64 range raises OverflowError.
    """
    X, w = ps.points, ps.weights
    M, s = X.shape
    if s != spec.s:
        raise ValueError(f"point set dimension {s} does not match spec dimension {spec.s}")
    _check_double_sum_nodes(M)
    if threads is not None and threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")

    cols = [np.unique(X[:, j], return_inverse=True) for j in range(s)]
    fam, alpha = spec.family, spec.alpha
    vals = [cu for cu, _ in cols]
    closed = fam == "sobolev" or _closed(alpha)
    N = None if closed else _table_modulus(vals)
    if N is not None:
        # nodes p / N: exact tables from Omega_2N, no series
        om, bound = _omega_table(alpha, 2 * N)
        half = np.append(om, om[0]) / 2  # Omega[2N] = Omega[0]: indices run to 2N
        vals = [np.rint(cu * N).astype(np.intp) for cu in vals]  # the numerators

        def factors(gs, p, q):
            tables = _periodic_tables(fam, gs, _table_parts(fam, half, p, q))
            return [(v, g * bound) for v, g in zip(tables, gs)]
    else:
        def factors(gs, x, y):
            if closed:
                return [(v, 0.0) for v in _closed_tables(fam, alpha, gs, x, y)]
            # a series' kmax follows gamma_j: one kernel_factor per coordinate
            return [kernel_factor(fam, alpha, g, x, y, policy) for g in gs]

    t = max(1, _TILE // M)
    # one block if the set's own tables fit in a _ROW_BLOCK-by-M array (a
    # second worker on so small a sum loses more to the GIL than it gains);
    # else whole tiles of rows whose s tables fit, but at least one tile
    budget = _ROW_BLOCK * M
    if sum(cu.size ** 2 for cu, _ in cols) <= budget:
        rb = M
    else:
        rb = max(t, budget // sum(cu.size for cu, _ in cols) // t * t)
    blocks = [(i, min(i + rb, M)) for i in range(0, M, rb)]
    # a coordinate whose repeated values fill _FOLD_TILES tiles of rows pays
    # for the sorts that find each tile's distinct table rows
    fold = [M - cu.size >= _FOLD_TILES * t for cu, _ in cols]
    order = None
    if any(fold):
        # rows by folded rank, min(r, U_j - 1 - r) of each coordinate's rank
        # r: x and 1 - x, a reflection orbit, fold together whenever the
        # values are closed under x -> 1 - x, and so do equal rows
        order = np.lexsort([np.minimum(inv, cu.size - 1 - inv) for cu, inv in reversed(cols)])

    @_refuse_overflow  # the pool's threads start in numpy's default error state
    def run_block(block: tuple[int, int]):
        i0, i1 = block
        nb = i1 - i0
        idx = slice(i0, i1) if order is None else order[i0:i1]
        maxv = np.empty(s)
        bnds = np.empty(s)
        rows_of, groups = [], {}
        for j, (_, cinv) in enumerate(cols):
            # the block's rows as indices into the coordinate's distinct values
            if nb == M:
                ru, rinv = vals[j], cinv[idx]
            else:
                ui, rinv = np.unique(cinv[idx], return_inverse=True)
                ru = vals[j][ui]
            rows_of.append((ru, rinv))
            # bit-equal rows and columns: one gamma-free evaluation
            groups.setdefault((ru.tobytes(), vals[j].tobytes()), []).append(j)
        tables = [None] * s
        for js in groups.values():
            ru = rows_of[js[0]][0]
            made = factors([spec.gammas[j] for j in js], ru[:, None], vals[js[0]][None, :])
            for j, (table, bnds[j]) in zip(js, made):
                ru, rinv = rows_of[j]
                # every table entry is some node pair's value, so the maxima
                # match; no |table| temporary while the other tables are alive
                maxv[j] = max(table.max(), -table.min())
                slabs = None
                if fold[j]:
                    # per tile, its distinct table rows and each row's place
                    # among them, from one sort of the (tile, table row) pairs
                    tile = np.arange(nb) // t
                    pairs, local = np.unique(tile * ru.size + rinv, return_inverse=True)
                    starts = np.searchsorted(pairs, np.arange(tile[-1] + 2) * ru.size)
                    local -= starts[tile]
                    slabs = (pairs % ru.size, starts.tolist(), local)
                tables[j] = (table, rinv, cols[j][1], slabs)
        rows = np.empty(nb)
        # prod stays C-contiguous, as the direct evaluation is, so each row
        # reaches einsum's contiguous inner loop in both
        prod = np.empty((min(t, nb), M))
        work = np.empty_like(prod)
        # a tile's gathered table rows, and the slab of their columns
        scratch = np.empty(prod.size)
        for k, r0 in enumerate(range(0, nb, t)):
            n = min(t, nb - r0)
            p = prod[:n]
            for j, (table, rinv, cinv, slabs) in enumerate(tables):
                v = work[:n] if j else p
                U = table.shape[1]
                # the tile's own rows, whose slab is the tile, or its
                # distinct rows and each row's place among them
                sel, local = rinv[r0:r0 + n], None
                if slabs is not None:
                    urows, starts, place = slabs
                    if 2 * (starts[k + 1] - starts[k]) <= n:
                        sel, local = urows[starts[k]:starts[k + 1]], place[r0:r0 + n]
                d = sel.size
                # mode="clip" gathers straight into out; the default "raise"
                # buffers a copy.  Inverse indices from np.unique are in range.
                sub = table.take(sel, axis=0, out=scratch[:d * U].reshape(d, U), mode="clip")
                slab = v if local is None else scratch[d * U:d * (U + M)].reshape(d, M)
                sub.take(cinv, axis=1, out=slab, mode="clip")
                if local is not None:
                    slab.take(local, axis=0, out=v, mode="clip")
                if j:
                    np.multiply(p, v, out=p)
            # the tile's products are final: reduce them while cached
            np.einsum("ij,j->i", p, w, out=rows[r0:r0 + n])
        return w[idx] * rows, maxv, bnds

    if threads is not None and threads > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run_block, blocks))
    else:
        results = [run_block(b) for b in blocks]

    e2 = math.fsum(memoryview(np.concatenate([r for r, _, _ in results]))) - 1.0
    maxv = np.max(np.stack([mv for _, mv, _ in results]), axis=0)
    return WceResult(e2, WceMethod.KERNEL_DOUBLE_SUM, _product_tail(results[0][2], maxv))


def _check_double_sum_nodes(M: int) -> None:
    """ValueError for M nodes above MAX_DOUBLE_SUM_NODES, for this module and
    the CLI, which checks a rule's N before building its nodes."""
    if M > MAX_DOUBLE_SUM_NODES:
        raise ValueError(f"double sum capped at {MAX_DOUBLE_SUM_NODES} nodes, got {M}")


@_refuse_overflow
def wce_korobov_lattice(
    rule: LatticeRule,
    alpha: float,
    gammas: Sequence[float],
    policy: TruncationPolicy = DEFAULT_POLICY,
) -> WceResult:
    """Korobov-space e^2 of a rank-1 lattice, by the single sum over nodes

        e^2 = -1 + (1/N) sum_n prod_j F_j[n],  F_j = _factor_row(Omega, g_j, gamma_j),

    with Omega from ``_omega_table``.  Integer alpha in 1..3: the closed
    form, tail 0, method closed-form-single-sum.  Other alpha: the aliased
    table, off by at most b per entry, so factor j by gamma_j b, tail from
    ``_product_tail``; method aliased-single-sum.  O(s N) time and O(N)
    memory at every alpha; ValueError before any work for N above the
    table's cap, OverflowError for a product or sum past the float64 range.
    ``policy`` is kept for callers that pass it and is not used: the table
    truncates no series.
    """
    gammas = _check_gammas(gammas, rule.s)
    om, bound = _omega_table(alpha, rule.N)
    prod = np.ones(rule.N)
    maxv = []
    for g_j, gamma in zip(rule.g, gammas):
        F = _factor_row(om, g_j, gamma)
        if bound:  # the tail reads maxima only under a nonzero bound
            maxv.append(float(np.abs(F).max()))
        prod *= F
    tail = _product_tail(np.multiply(gammas, bound), maxv)
    method = WceMethod.ALIASED_SINGLE_SUM if bound else WceMethod.CLOSED_FORM_SINGLE_SUM
    return WceResult(_single_sum_e2(prod), method, tail)


def _factor_row(om: np.ndarray, g_j: int, gamma: float) -> np.ndarray:
    """F[n] = 1 + gamma Omega[n g_j mod N] for n in Z_N: one coordinate's
    Korobov factor on the nodes of a lattice, for this module and CBC."""
    N = len(om)
    return 1.0 + gamma * om[np.arange(N, dtype=np.int64) * g_j % N]


def _single_sum_e2(prod: np.ndarray) -> float:
    """-1 + mean of a rule's N node products by math.fsum, for this module and CBC."""
    return math.fsum(memoryview(prod)) / len(prod) - 1.0


@_refuse_overflow
def _fold_average_e2(
    rule: LatticeRule,
    alpha: float,
    gammas: Sequence[float],
    scale: Callable[[float], float],
) -> WceResult:
    """e^2 = -1 + N^-2 sum_{n,n'} prod_j kbar_j(n, n') over the base lattice.

    The weights are gamma_j scale(alpha), after both are checked.
    kbar_j = A_j[n - n'] + A_j[n + n'], A_j = F_j / 2 with F_j =
    _factor_row(Omega, g_j, gamma_j), and Omega and its bound b from
    ``_omega_table`` (b = 0 at alpha in 1..3).  With P_S = sum_m
    prod_{j in S} A_j[m] over the subsets S of the coordinates, the pair sum
    is sum_S P_S P_{S^c} for odd N, where (n, n') -> (n - n', n + n')
    permutes Z_N^2, and 2 sum_S (P_S^even P_{S^c}^even + P_S^odd
    P_{S^c}^odd) for even N, where it covers the equal-parity pairs (m even,
    m odd) twice; g need not be a unit.  A depth-first walk keeps one running
    product per depth; math.fsum reduces each leaf, then the 2^s leaf
    products, so calls are bit-identical.  O(2^s N) time, O(s N) memory;
    ValueError before any work when 2^s N exceeds _FOLD_WORK_CAP, and
    OverflowError for a product or sum past the float64 range.  The tail
    is ``_product_tail``'s, as max over pairs |kbar_j| = max|F_j| (n' = 0).
    """
    N, s = rule.N, rule.s
    gammas = _check_gammas(gammas, s)
    alpha = _check_alpha(alpha)
    gammas = [g * scale(alpha) for g in gammas]
    if N << s > _FOLD_WORK_CAP:
        raise ValueError(f"fold-average sum capped at 2^s N = {_FOLD_WORK_CAP}, got {N << s}")
    om, bound = _omega_table(alpha, N)
    rows = [0.5 * _factor_row(om, g_j, gamma) for g_j, gamma in zip(rule.g, gammas)]
    maxv = [2.0 * float(np.abs(A).max()) for A in rows]
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
    tail = _product_tail(np.multiply(gammas, bound), maxv)
    return WceResult(e2, WceMethod.FOLD_AVERAGE_DOUBLE_SUM, tail)


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
    1..3, within the omega table's bound otherwise.  This is the Korobov
    error ``wce_korobov_lattice`` only in one dimension or when the dual
    lattice is closed under per-coordinate sign flips; otherwise it is
    strictly smaller.  ``policy`` is kept for callers that pass it and is
    not used: the omega table truncates no series.
    """
    return _fold_average_e2(rule, alpha, gammas, lambda a: 1.0)


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
    in O(2^s N) under a cap on 2^s N: exact for alpha in 1..3, within the
    omega table's bound otherwise.  ``policy`` is kept for callers that pass
    it and is not used.
    """
    return _fold_average_e2(rule, alpha, gammas, lambda a: 0.5 * (1.0 + 4.0 ** -a))


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
    alpha in 1..3, within the omega table's bound otherwise.  This is the
    Korobov error with weights gamma 4^(-alpha) only in one dimension or when
    the dual lattice is closed under per-coordinate sign flips; otherwise it
    is strictly smaller.  ``policy`` is kept for callers that pass it and is
    not used.
    """
    return _fold_average_e2(rule, alpha, gammas, lambda a: 4.0 ** -a)


@_refuse_overflow
def cbc_bound_constant(alpha: float, gammas: Sequence[float], tau: float = 1.0) -> float:
    """Constant C in the CBC guarantee e <= C * (N-1)^(-tau/2).

    C = (-1 + prod_j (1 + 2 zeta(2 alpha / tau) gamma_j^(1/tau)))^(tau/2),
    valid for 1 <= tau < 2 alpha; OverflowError when C is past the float64
    range.
    """
    return _bound_constants(alpha, gammas, tau)[-1]


def _bound_constants(alpha: float, gammas: Sequence[float], tau: float) -> list[float]:
    """``cbc_bound_constant`` of every prefix gammas[:d + 1], bit for bit,
    from one check of the arguments and one zeta value."""
    gammas = _check_gammas(gammas)
    alpha = _check_alpha(alpha)
    tau = float(tau)
    if not 1.0 <= tau < 2.0 * alpha:
        raise ValueError(f"tau must satisfy 1 <= tau < 2*alpha, got tau={tau}, alpha={alpha}")
    z = zeta(2.0 * alpha / tau)
    prod, out = 1.0, []
    for g in gammas:
        prod *= 1.0 + 2.0 * z * g ** (1.0 / tau)
        out.append((prod - 1.0) ** (tau / 2.0))  # a float power raises OverflowError
    if out[-1] == math.inf:  # an inf product does not; the products only grow
        raise OverflowError
    return out
