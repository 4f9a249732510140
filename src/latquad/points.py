"""Rank-1 lattice node sets, the tent transform, and coordinate symmetrization.

Nodes of a rank-1 rule are x_n = frac(n*g/N).  All node coordinates are exact
rationals with denominator N; generation keeps the integer numerators so that
reflected and deduplicated nodes can be compared exactly instead of through
floating-point fuzz.  Coordinates live in [0, 1]; the value 1 appears only as
the reflection of 0 under symmetrization.  A rule's plain, tent and
symmetrized sets hold correctly rounded p / N, integers 0 <= p <= N, and
``_denominator`` reads such an N back from the floats alone.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LatticeRule",
    "WeightedPointSet",
    "lattice_points",
    "tent",
    "tent_transform",
    "symmetrize",
    "symmetrized_node_count",
    "VARIANTS",
    "node_set",
    "dual_lattice",
    "read_vector_file",
    "write_vector_file",
]

# Hard cap on materialized symmetrization rows (2^s per retained shift).
_SYM_ROW_CAP = 1 << 25
# Hard cap on the (2H+1)^s candidates that dual_lattice scans.
_DUAL_BOX_CAP = 10_000_000

VARIANTS = ("plain", "tent", "sym")


@dataclass(frozen=True)
class LatticeRule:
    """Rank-1 lattice rule: modulus N and generating vector g.

    Components g_j must lie in [1, N-1].  They are not required to be coprime
    with N here; degenerate (non-coprime) rules are valid inputs for error
    computations, and only the CBC search restricts itself to units mod N.
    """

    N: int
    g: tuple[int, ...]

    def __post_init__(self) -> None:
        N = _modulus(self.N)
        g = tuple(_integer("generating vector component", v) for v in self.g)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "g", g)
        if not g:
            raise ValueError("generating vector must have at least one component")
        for v in g:
            if not 1 <= v <= N - 1:
                raise ValueError(f"generating vector component {v} outside [1, {N - 1}]")

    @property
    def s(self) -> int:
        return len(self.g)


def _integer(name: str, value) -> int:
    """value as an int by operator.index; ValueError naming it otherwise, so
    5.7 is refused, not truncated to 5."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _modulus(N) -> int:
    """N as an int >= 2, the modulus of a rule; ValueError otherwise."""
    N = _integer("modulus", N)
    if N < 2:
        raise ValueError(f"modulus must be >= 2, got {N}")
    return N


def _dimension(s) -> int:
    """s as an int >= 1, a dimension; ValueError otherwise."""
    s = _integer("dimension", s)
    if s < 1:
        raise ValueError("dimension must be at least 1")
    return s


@dataclass(frozen=True)
class WeightedPointSet:
    """Finite node set in [0,1]^s with positive weights summing to 1."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        pts = np.atleast_2d(np.asarray(self.points, dtype=np.float64))
        wts = np.asarray(self.weights, dtype=np.float64).ravel()
        if pts.ndim != 2:
            raise ValueError("points must be a 2-d array (nodes by coordinates)")
        if wts.shape[0] != pts.shape[0]:
            raise ValueError("weights length must match number of nodes")
        if not (np.isfinite(pts).all() and np.isfinite(wts).all()):
            raise ValueError("node coordinates and weights must be finite")
        if pts.size and (pts.min() < 0.0 or pts.max() > 1.0):
            raise ValueError("node coordinates must lie in [0, 1]")
        if wts.size == 0 or wts.min() <= 0.0:
            raise ValueError("weights must be positive")
        if abs(float(np.sum(wts)) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")
        for name, arr in (("points", pts.copy()), ("weights", wts.copy())):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def s(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]


def _numerators(rule: LatticeRule, count: int) -> np.ndarray:
    """Integer numerators n*g mod N of the nodes n = 0..count-1, one row each."""
    n = np.arange(count, dtype=np.int64)
    return (n[:, None] * np.asarray(rule.g, dtype=np.int64)) % rule.N


def _fits(x: np.ndarray, n: int) -> bool:
    """True when every value of x is fl(p / n) for p = rint(x n)."""
    return bool((np.rint(x * n) / n == x).all())


def _tries(d: float) -> tuple[int, int]:
    """rint(1 / d) and rint(2 / d), d clamped at 2^-52: past 2^51 none fits."""
    d = max(d, 2.0**-52)
    return round(1.0 / d), round(2.0 / d)


def _denominator(x: np.ndarray) -> int | None:
    """N with every value of the nodes x (one row each, in [0, 1]) equal to
    fl(p / N), and N <= 2^51, past which rint(x N) can miss p; else None.
    The set tries ``_tries(d)``, d its least value in (0, 1/2] (N for unit
    g_j, N / 2 for a tent set at even N), then d its least positive 1 - x,
    which is off by up to 2^-54 and so can miss N past 2^26.  Else each
    coordinate takes the first N_j that fits it from its own two d, and N
    is their lcm."""
    small = np.where((x > 0.0) & (x <= 0.5), x, 1.0)
    d = float(small.min(initial=1.0))
    for n in _tries(d):
        # d is one of the values: testing it first spares a wrong n the array
        if round(d * n) / n == d and _fits(x, n):
            return n if n <= 1 << 51 else None
    far = np.where(x < 1.0, 1.0 - x, 1.0)
    n = next((n for n in _tries(float(far.min(initial=1.0))) if _fits(x, n)), None)
    if n is None:
        Ns = [next((n for a in (small, far) for n in _tries(float(a[:, j].min(initial=1.0)))
                    if _fits(x[:, j], n)), None) for j in range(x.shape[1])]
        if None in Ns:
            return None
        n = math.lcm(*Ns)
    return n if n <= 1 << 51 else None


def _tent_nodes(p: np.ndarray, N: int) -> np.ndarray:
    """Tent-folded nodes 2 min(p, N - p) / N of numerators p, correctly
    rounded: numerators p and N - p fold to the same bits."""
    return 2 * np.minimum(p, N - p) / float(N)


def lattice_points(rule: LatticeRule) -> WeightedPointSet:
    """Equal-weight nodes frac(n*g/N), n = 0..N-1, in node order."""
    pts = _numerators(rule, rule.N) / float(rule.N)
    w = np.full(rule.N, 1.0 / rule.N)
    return WeightedPointSet(pts, w)


def tent(x):
    """Tent map 1 - |2x - 1|, folding [0,1] onto itself; vectorized."""
    return 1.0 - abs(2.0 * x - 1.0)


def tent_transform(ps: WeightedPointSet) -> WeightedPointSet:
    """Apply the tent map to every coordinate, keeping weights.

    A set whose coordinates are all p / N (``_denominator``) folds them to
    2 min(p, N - p) / N, correctly rounded; any other takes ``tent`` of its
    floats, off in the last bits: by many ulps near 0, where 1 - |2x - 1| cancels.
    """
    N = _denominator(ps.points)
    x = tent(ps.points) if N is None else _tent_nodes(np.rint(ps.points * N), N)
    return WeightedPointSet(x, ps.weights)


def symmetrized_node_count(N: int, s: int) -> int:
    """Distinct node count of the fully symmetrized rank-1 rule of modulus N in
    s dimensions whose every g_j is a unit mod N.  Other components can merge
    reflection orbits: N = 4, g = (1, 2) has 8 nodes, not 9."""
    N, s = _modulus(N), _dimension(s)
    if N % 2:
        return (1 << (s - 1)) * (N + 1)
    return (1 << (s - 1)) * N + 1


def symmetrize(rule: LatticeRule, dedupe: bool = True) -> WeightedPointSet:
    """All coordinate reflections x_j -> 1 - x_j of the lattice nodes.

    Reflection m = 0..2^s-1 flips the coordinates whose bits are set in its
    Gray code m ^ (m >> 1).  One (2^s, s) flip mask, broadcast against the
    node numerators, lays out every reflection of every expanded node,
    node-major with reflections in Gray-code order; both modes share it.

    With ``dedupe=False`` the full multiset of 2^s * N terms is returned, each
    with weight 1/(2^s N), in that order.  With ``dedupe=True`` duplicate nodes
    are merged (weights summed) and only shifts 0 <= k <= N/2 are expanded:
    the node sets generated by k and N - k coincide, so the upper half
    contributes a multiplicity factor of 2.  Deduplicated nodes come out
    sorted lexicographically.
    """
    N, s = rule.N, rule.s
    count = N // 2 + 1 if dedupe else N
    rows = count << s
    if rows > _SYM_ROW_CAP:
        raise ValueError(f"symmetrization would materialize {rows} rows (cap {_SYM_ROW_CAP})")

    m = np.arange(1 << s)
    flip = ((m ^ (m >> 1))[:, None] >> np.arange(s) & 1).astype(bool)
    base = _numerators(rule, count)[:, None, :]
    nums = np.where(flip, N - base, base).reshape(rows, s)
    if not dedupe:
        return WeightedPointSet(nums / float(N), np.full(rows, 1.0 / (N << s)))

    # shifts k and N-k generate identical reflection orbits
    k = np.arange(count)
    mult = np.where((k == 0) | (2 * k == N), 1.0, 2.0).repeat(1 << s)
    order = np.lexsort(nums.T[::-1])
    nums = nums[order]
    first = np.empty(rows, dtype=bool)
    first[0] = True
    np.any(nums[1:] != nums[:-1], axis=1, out=first[1:])
    starts = np.flatnonzero(first)
    counts = np.add.reduceat(mult[order], starts)
    pts = nums[starts] / float(N)
    w = counts / float(N << s)
    return WeightedPointSet(pts, w)


def node_set(rule: LatticeRule, variant: str) -> WeightedPointSet:
    """Nodes of the plain, tent-folded or deduplicated symmetrized rule; the
    full reflection multiset is ``symmetrize(rule, dedupe=False)``.  The tent
    set folds the numerators: ``tent_transform`` of the plain set, bit for bit."""
    N = rule.N
    if variant == "plain":
        return lattice_points(rule)
    if variant == "tent":
        return WeightedPointSet(_tent_nodes(_numerators(rule, N), N), np.full(N, 1.0 / N))
    if variant == "sym":
        return symmetrize(rule)
    raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")


def dual_lattice(rule: LatticeRule, H: int) -> np.ndarray:
    """Nonzero integer vectors h with |h_j| <= H and h . g == 0 (mod N).

    Exhaustive scan of the (2H+1)^s box; raises ValueError for boxes beyond
    _DUAL_BOX_CAP candidates.  Rows come back in odometer order.
    """
    if H < 0:
        raise ValueError("H must be nonnegative")
    s = rule.s
    total = (2 * H + 1) ** s
    if total > _DUAL_BOX_CAP:
        raise ValueError(
            f"dual lattice box has {total} candidates, above the cap {_DUAL_BOX_CAP}"
        )
    axes = [np.arange(-H, H + 1, dtype=np.int64)] * s
    grid = np.meshgrid(*axes, indexing="ij")
    hs = np.stack(grid, axis=-1).reshape(-1, s)
    g = np.asarray(rule.g, dtype=np.int64)
    keep = (hs @ g) % rule.N == 0
    keep &= np.any(hs != 0, axis=1)
    return hs[keep]


def write_vector_file(rule: LatticeRule, dest) -> None:
    """Write 'N s' then the generating vector to the text stream dest."""
    dest.write(f"{rule.N} {rule.s}\n" + " ".join(str(v) for v in rule.g) + "\n")


def read_vector_file(src) -> LatticeRule:
    """Parse the two-line format of write_vector_file from the text stream src."""
    lines = [ln for ln in src.read().splitlines() if ln.strip()]
    if len(lines) != 2:
        raise ValueError("vector file must have a header line and a vector line")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError("vector file header must be 'N s'")
    try:
        N, s = int(head[0]), int(head[1])
    except ValueError as exc:
        raise ValueError(f"bad vector file header: {lines[0]!r}") from exc
    comps = lines[1].split()
    if len(comps) != s:
        raise ValueError(f"expected {s} vector components, found {len(comps)}")
    return LatticeRule(N, _components(comps))


def _components(tokens) -> tuple[int, ...]:
    """Generating-vector components from text tokens, for the vector file
    and the CLI's --g; ValueError naming them otherwise."""
    try:
        return tuple(int(t) for t in tokens)
    except ValueError as exc:
        raise ValueError("vector components must be integers") from exc
