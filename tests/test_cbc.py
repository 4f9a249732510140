"""Greedy component-by-component search and its error certificate."""
import itertools
import math

import numpy as np
import pytest

from latquad import cbc
from latquad.cbc import _reference_construct, _UnitScreen, candidate_set, cbc_construct
from latquad.kernels import korobov_omega
from latquad.points import LatticeRule
from latquad.wce import cbc_bound_constant, wce_korobov_lattice


def test_candidate_sets():
    assert candidate_set(2) == [1]
    assert candidate_set(5) == [1, 2, 3, 4]
    assert candidate_set(6) == [1, 5]
    assert candidate_set(12) == [1, 5, 7, 11]
    with pytest.raises(ValueError):
        candidate_set(1)


@pytest.mark.parametrize("N", [4, 1021, 4093, 16384])
def test_one_dimension_picks_the_first_unit(N):
    # every unit permutes the residues, so all of them tie exactly in s = 1
    res = cbc_construct(N, 1, 1, (1.0,))
    assert res.rule == LatticeRule(N, (1,))
    assert res.per_dim_e2[0] == pytest.approx(math.pi**2 / (3.0 * N * N), abs=1e-13)
    e2 = wce_korobov_lattice(res.rule, 1, (1.0,)).e2
    assert abs(res.per_dim_e2[0] - e2) <= 1e-12 * (1.0 + e2)


def _exhaustive_min(N, s, alpha, gammas):
    om = korobov_omega(alpha, np.arange(N) / N)
    n = np.arange(N)
    best = math.inf
    for g in itertools.product(candidate_set(N), repeat=s):
        prod = np.ones(N)
        for z, gamma in zip(g, gammas):
            prod = prod * (1.0 + gamma * om[(n * z) % N])
        best = min(best, float(np.sum(prod)) / N - 1.0)
    return best


@pytest.mark.parametrize("N", [5, 7, 8, 12])
def test_greedy_attains_the_exhaustive_minimum_in_two_dimensions(N):
    gammas = (1.0, 0.6)
    res = cbc_construct(N, 2, 1, gammas)
    best = _exhaustive_min(N, 2, 1, gammas)
    assert res.per_dim_e2[-1] == pytest.approx(best, rel=1e-12)


def test_greedy_error_matches_the_closed_form_recomputation():
    res = cbc_construct(64, 4, 2, (1.0, 0.5, 0.25, 0.125))
    recomputed = wce_korobov_lattice(res.rule, 2, (1.0, 0.5, 0.25, 0.125)).e2
    assert res.per_dim_e2[-1] == pytest.approx(recomputed, rel=1e-12)
    # prefix errors decrease never: each added coordinate adds error terms
    assert all(a <= b + 1e-15 for a, b in zip(res.per_dim_e2, res.per_dim_e2[1:]))


def test_construction_is_deterministic():
    a = cbc_construct(101, 5, 1, (1.0,) * 5)
    b = cbc_construct(101, 5, 1, (1.0,) * 5)
    assert a == b


def test_certificate_holds_at_prime_moduli():
    gammas = tuple(1.0 / j for j in range(1, 4))
    res = cbc_construct(17, 3, 1, gammas)
    assert all(res.bound_ok)
    for d in range(3):
        c = cbc_bound_constant(1, gammas[: d + 1], tau=1.0)
        assert res.per_dim_e2[d] <= c * c / 16.0


def test_input_validation():
    with pytest.raises(ValueError):
        cbc_construct(8, 0, 1, ())
    with pytest.raises(ValueError):
        cbc_construct(8, 2, 4, (1.0, 1.0))
    with pytest.raises(ValueError):
        cbc_construct(8, 2, 1.5, (1.0, 1.0))
    with pytest.raises(ValueError):
        cbc_construct(8, 2, 1, (1.0,))
    with pytest.raises(ValueError):
        cbc_construct(8, 2, 1, (1.0, 0.0))


_WEIGHTS = {"j^-2": tuple(1.0 / j**2 for j in range(1, 7)),
            "0.9^j": tuple(0.9**j for j in range(1, 7))}
# all screened moduli up to 64, then each prime and power of two near 2^k;
# 1019, 2039 and 4079 are 2 times a prime, so their FFT length has a large
# prime factor
_SCREENED = [N for N in range(5, 65) if cbc._has_fft_screen(N)] + [
    127, 128, 257, 256, 509, 512, 1019, 1021, 1024, 2039, 2048, 4079, 4093, 4096]


@pytest.mark.parametrize("weights", sorted(_WEIGHTS))
@pytest.mark.parametrize("alpha", [1, 2, 3])
@pytest.mark.parametrize("N", _SCREENED)
def test_fft_screen_matches_the_reference_scan(N, alpha, weights):
    gammas = _WEIGHTS[weights]
    assert cbc_construct(N, 6, alpha, gammas) == _reference_construct(N, 6, alpha, gammas)


@pytest.mark.parametrize("N", [12, 1000])
def test_other_moduli_take_the_reference_scan(N, monkeypatch):
    def refuse(*args):
        raise AssertionError("screen used for a modulus that is neither prime nor 2^m")

    gammas = _WEIGHTS["0.9^j"]
    expected = _reference_construct(N, 6, 1, gammas)
    monkeypatch.setattr(cbc, "_UnitScreen", refuse)
    assert cbc_construct(N, 6, 1, gammas) == expected


@pytest.mark.parametrize("N,alpha", [(8, 1), (257, 1), (509, 3), (1019, 2), (2048, 2),
                                     (4079, 1), (4096, 3)])
def test_screened_errors_stay_within_their_bound(N, alpha):
    gammas = _WEIGHTS["0.9^j"]
    zs = np.array(candidate_set(N))
    om = korobov_omega(alpha, np.arange(N) / N)
    n = np.arange(N)
    screen = _UnitScreen(N, om, zs)
    prod = np.ones(N)
    for z, gamma in zip(cbc_construct(N, 6, alpha, gammas).rule.g, gammas):
        e2, bound = screen.screen(prod, gamma)
        direct = np.array([float(np.sum(prod * (1.0 + gamma * om[(n * c) % N]))) / N - 1.0
                           for c in zs])
        assert np.abs(e2 - direct).max() <= bound
        assert bound < 1e-9
        prod *= 1.0 + gamma * om[(n * z) % N]
