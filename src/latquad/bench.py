"""Convergence benchmarks: smooth product test integrands and rate fitting.

Two families of integrands on [0,1]^s, both with exact integral 1 and a
product structure whose coordinate influence decays like w^j:

    g: factor 1 + (w^j / 21) (-10 + 42 x^2 - 42 x^5 + 21 x^6)
    h: factor 1 + (w^j / 8) (31 - 84 x^2 + 8 x^3 + 70 x^4 - 28 x^6 + 8 x^7
                             - 16 cos(1) - 16 sin(x))

g's factors are reflection-symmetric about x = 1/2 up to odd terms that the
symmetrized rule kills exactly; h is deliberately not symmetric.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .cbc import cbc_construct
# lattice_points, tent_transform and symmetrize are not called here: the
# benchmark tracer wraps them as latquad.bench attributes.
from .points import (  # noqa: F401
    VARIANTS,
    LatticeRule,
    _dimension,
    _numerators,
    _tent_nodes,
    lattice_points,
    symmetrize,
    symmetrized_node_count,
    tent_transform,
)

__all__ = [
    "TestFunction",
    "ConvergenceRecord",
    "integrate",
    "converge_study",
    "fit_slope",
    "records_to_csv",
]

_ERROR_FLOOR = 1e-13


def _coordinates(s: int, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != s:
        raise ValueError(f"last axis must have {s} coordinates")
    return x


def _g_factors(s: int, w: float, x) -> np.ndarray:
    x = _coordinates(s, x)
    wj = w ** np.arange(1, s + 1)
    poly = -10.0 + 42.0 * x**2 - 42.0 * x**5 + 21.0 * x**6
    return 1.0 + (wj / 21.0) * poly


def _h_factors(s: int, w: float, x) -> np.ndarray:
    x = _coordinates(s, x)
    wj = w ** np.arange(1, s + 1)
    poly = (
        31.0
        - 84.0 * x**2
        + 8.0 * x**3
        + 70.0 * x**4
        - 28.0 * x**6
        + 8.0 * x**7
        - 16.0 * math.cos(1.0)
        - 16.0 * np.sin(x)
    )
    return 1.0 + (wj / 8.0) * poly


_FACTORS = {"g": _g_factors, "h": _h_factors}


@dataclass(frozen=True)
class TestFunction:
    """Benchmark integrand 'g' or 'h' with decay parameter w; integral is 1."""

    family: str
    s: int
    w: float
    exact_integral: float = field(default=1.0, init=False)

    def __post_init__(self) -> None:
        if self.family not in ("g", "h"):
            raise ValueError(f"family must be 'g' or 'h', got {self.family!r}")
        object.__setattr__(self, "s", _dimension(self.s))
        if not 0.0 < self.w <= 1.0:
            raise ValueError("w must be in (0, 1]")

    def factors(self, x) -> np.ndarray:
        """Per-coordinate factors, same shape as x; f(x) is their product."""
        return _FACTORS[self.family](self.s, self.w, x)

    def __call__(self, x) -> np.ndarray:
        return np.prod(self.factors(x), axis=-1)


@dataclass(frozen=True)
class ConvergenceRecord:
    variant: str
    N: int
    nodes: int
    estimate: float
    abs_error: float


def integrate(rule: LatticeRule, variant: str, f) -> float:
    """Quadrature estimate of a product integrand under the plain, tent or sym rule.

    ``f`` is a product integrand: ``f.factors(x)`` maps an (M, s) array of
    nodes to the (M, s) array of per-coordinate factors, and the integrand is
    their product over each row (``TestFunction`` is one).

    Only the N lattice nodes are evaluated.  The symmetrized rule averages f
    over the 2^s reflections x_j -> 1 - x_j of every node; for a product that
    average is the product of the per-coordinate means
    (phi_j(x_j) + phi_j(1 - x_j)) / 2, so the sym estimate costs O(N s) like
    the other two and no reflected node set is built.  Reflected and folded
    coordinates come from the integer numerators m = n g_j mod N, as
    (N - m) / N in ``symmetrize`` and 2 min(m, N - m) / N in
    ``tent_transform``.  The N node products are summed exactly with
    math.fsum.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    N = rule.N
    nums = _numerators(rule, N)
    if variant == "plain":
        F = f.factors(nums / float(N))
    elif variant == "tent":
        F = f.factors(_tent_nodes(nums, N))
    else:
        F = 0.5 * (f.factors(nums / float(N)) + f.factors((N - nums) / float(N)))
    return math.fsum(np.prod(F, axis=1).tolist()) / N


def _node_count(N) -> int:
    """N as an int; ValueError naming it unless it is an integer >= 2."""
    try:
        if operator.index(N) >= 2:
            return operator.index(N)
    except TypeError:
        pass
    raise ValueError(f"N_list entries must be integers >= 2, got {N!r}")


@lru_cache(maxsize=128)
def _cbc_cached(N: int, s: int, alpha: float, gammas: tuple[float, ...]) -> LatticeRule:
    return cbc_construct(N, s, alpha, gammas).rule


def converge_study(
    f: TestFunction,
    variant: str,
    N_list,
    cbc_alpha: float = 1,
    cbc_gammas=None,
) -> list[ConvergenceRecord]:
    """Error records over a nonempty, increasing N_list of integers >= 2, with
    CBC-constructed vectors.

    The construction weights default to gamma_j = w^j, matching the product
    decay of the integrand.  ``cbc_alpha`` goes to ``cbc_construct``
    unchanged: any finite alpha > 1/2, else ValueError.
    """
    Ns = [_node_count(N) for N in N_list]
    if not Ns:
        raise ValueError("N_list must be nonempty")
    if Ns != sorted(Ns) or len(set(Ns)) != len(Ns):
        raise ValueError("N_list must be strictly increasing")
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    if cbc_gammas is None:
        gammas = tuple(float(f.w) ** j for j in range(1, f.s + 1))
    else:
        gammas = tuple(float(g) for g in cbc_gammas)

    records = []
    for N in Ns:
        rule = _cbc_cached(N, f.s, cbc_alpha, gammas)
        est = integrate(rule, variant, f)
        nodes = symmetrized_node_count(N, f.s) if variant == "sym" else N
        records.append(
            ConvergenceRecord(variant, N, nodes, est, abs(est - f.exact_integral))
        )
    return records


def fit_slope(records) -> float:
    """Least-squares slope of log2(abs_error) against log2(N).

    Errors at or below _ERROR_FLOOR = 1e-13 sit in rounding noise and are
    excluded; at least four usable records are required.
    """
    xs = [math.log2(r.N) for r in records if r.abs_error > _ERROR_FLOOR]
    ys = [math.log2(r.abs_error) for r in records if r.abs_error > _ERROR_FLOOR]
    if len(xs) < 4:
        raise ValueError(f"need at least 4 records above the error floor, have {len(xs)}")
    return float(np.polyfit(xs, ys, 1)[0])


def records_to_csv(records) -> str:
    """CSV with header variant,N,nodes,estimate,abs_error; 17 significant digits."""
    lines = ["variant,N,nodes,estimate,abs_error"]
    for r in records:
        lines.append(f"{r.variant},{r.N},{r.nodes},{r.estimate:.17g},{r.abs_error:.17g}")
    return "\n".join(lines) + "\n"
