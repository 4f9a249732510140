"""Greedy component-by-component search and its error certificate."""
import itertools
import math

import numpy as np
import pytest

from latquad import cbc
from latquad.cbc import _UnitScreen, cbc_construct
from latquad.cli import main
from latquad.kernels import _omega_table, korobov_omega
from latquad.points import LatticeRule
from latquad.wce import (
    cbc_bound_constant,
    wce_cosine_sym,
    wce_cosine_tent,
    wce_korcos_sym,
    wce_korobov_lattice,
)

from oracles import candidate_set, cbc_scan


@pytest.mark.parametrize("base,N", [(3, 7), (5, 1 << 20), (2, 4093), (3, 4194301)])
@pytest.mark.parametrize("count", [0, 1, 3, 255, 256, 257, 1025])
def test_powers_are_modular_powers(base, N, count):
    got = cbc._powers(base, count, N)
    assert got.dtype == np.int64
    assert got.tolist() == [pow(base, k, N) for k in range(count)]


def test_candidate_sets():
    """cbc._units against the gcd list of the oracle."""
    assert candidate_set(2) == [1]
    assert candidate_set(5) == [1, 2, 3, 4]
    assert candidate_set(6) == [1, 5]
    assert candidate_set(12) == [1, 5, 7, 11]
    for N in [*range(2, 5001), 1 << 18]:  # 4093 and 4096 inside the sweep
        zs = cbc._units(N)
        assert zs.dtype == np.int64
        assert zs.tolist() == candidate_set(N), N
    with pytest.raises(ValueError):
        candidate_set(1)
    with pytest.raises(ValueError):
        cbc._units(1)
    with pytest.raises(ValueError):
        cbc_construct(1, 2, 1.0, (1.0, 1.0))


@pytest.mark.parametrize("N", [4, 1021, 4093, 16384])
def test_one_dimension_picks_the_first_unit(N):
    # every unit permutes the residues, so all of them tie exactly in s = 1
    res = cbc_construct(N, 1, 1, (1.0,))
    assert res.rule == LatticeRule(N, (1,))
    assert res.per_dim_e2[0] == pytest.approx(math.pi**2 / (3.0 * N * N), abs=1e-13)
    assert res.per_dim_e2[0] == wce_korobov_lattice(res.rule, 1, (1.0,)).e2


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
    assert res.per_dim_e2[-1] == recomputed
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
    with pytest.raises(ValueError, match="alpha must be finite"):
        cbc_construct(8, 2, 0.5, (1.0, 1.0))
    with pytest.raises(ValueError, match="alpha must be finite"):
        cbc_construct(8, 2, math.nan, (1.0, 1.0))
    with pytest.raises(ValueError):
        cbc_construct(8, 2, 1, (1.0,))
    with pytest.raises(ValueError):
        cbc_construct(8, 2, 1, (1.0, 0.0))
    with pytest.raises(ValueError, match="modulus must be >= 2, got 0"):
        cbc_construct(0, 2, 1, (1.0, 1.0))


def test_table_cap_refuses_before_the_units_are_built(monkeypatch):
    def refuse(N):
        raise AssertionError("units built for a modulus above the omega table's cap")

    monkeypatch.setattr(cbc, "_units", refuse)
    with pytest.raises(ValueError, match="omega table capped"):
        cbc_construct((1 << 22) + 1, 2, 1, (1.0, 1.0))


@pytest.mark.parametrize("N,s,bad", [(64.9, 2, "64.9"), (64, 2.7, "2.7"), (64.0, 2, "64.0")])
def test_non_integer_sizes_are_refused_instead_of_truncated(N, s, bad):
    with pytest.raises(ValueError, match=f"must be an integer, got {bad}"):
        cbc_construct(N, s, 1, (1.0, 0.5))


def test_numpy_integer_sizes_are_accepted():
    res = cbc_construct(np.int64(64), np.int64(2), 1, (1.0, 0.5))
    assert res == cbc_construct(64, 2, 1, (1.0, 0.5))
    assert type(res.rule.N) is int


_WEIGHTS = {"j^-2": tuple(1.0 / j**2 for j in range(1, 7)),
            "0.9^j": tuple(0.9**j for j in range(1, 7))}
# all screened moduli up to 64, among them 2, 3, 4 and 8, whose levels hold
# at most two classes, then each prime and power of two near 2^k;
# 1019, 2039 and 4079 are 2 times a prime, so their FFT length has a large
# prime factor
_SCREENED = [N for N in range(2, 65) if N & (N - 1) == 0 or all(N % q for q in range(2, N))] + [
    127, 128, 257, 256, 509, 512, 1019, 1021, 1024, 2039, 2048, 4079, 4093, 4096]


@pytest.mark.parametrize("weights", sorted(_WEIGHTS))
@pytest.mark.parametrize("alpha", [1, 2, 3])
@pytest.mark.parametrize("N", _SCREENED)
def test_fft_screen_matches_the_reference_scan(N, alpha, weights):
    gammas = _WEIGHTS[weights]
    assert cbc_construct(N, 6, alpha, gammas) == cbc_scan(N, 6, alpha, gammas)


# a sample of the screened moduli, prime and 2^m, small and large
_SCREENED_SAMPLE = [5, 8, 13, 32, 61, 127, 256, 1019, 1021, 2048, 4093]


@pytest.mark.parametrize("weights", sorted(_WEIGHTS))
@pytest.mark.parametrize("alpha", [0.75, 1.5])
@pytest.mark.parametrize("N", _SCREENED_SAMPLE)
def test_fft_screen_matches_the_reference_scan_at_non_integer_alpha(N, alpha, weights):
    # both searches read one aliased omega table, so they agree bit for bit
    gammas = _WEIGHTS[weights]
    assert cbc_construct(N, 6, alpha, gammas) == cbc_scan(N, 6, alpha, gammas)


def test_non_integer_alpha_constructs_a_certified_rule():
    """At alpha = 0.75 every route returns: CBC within its tau = 1 bound,
    the Korobov single sum equal to CBC's last error (one table, one
    evaluator), and the fold averages at most the Korobov error up to
    their tails."""
    gammas = _WEIGHTS["j^-2"][:4]
    res = cbc_construct(1021, 4, 0.75, gammas)
    assert all(res.bound_ok)
    kor = wce_korobov_lattice(res.rule, 0.75, gammas)
    assert kor.tail_bound > 0.0
    assert kor.e2 == res.per_dim_e2[-1]
    for fn in (wce_cosine_tent, wce_korcos_sym, wce_cosine_sym):
        fold = fn(res.rule, 0.75, gammas)
        assert fold.tail_bound > 0.0
        assert 0.0 < fold.e2 <= kor.e2 + kor.tail_bound + fold.tail_bound, fn.__name__


# unit roundoff: the fold averages' rounding slack is _FOLD_SLACK_U u (1 + e^2)
_U = 2.0**-53
_FOLD_SLACK_U = 32


def _assert_fold_averages_below_korobov(rule, alpha, gammas):
    """tent <= Korobov(gamma), cosine-sym <= Korobov(4^-alpha gamma) and
    korcos-sym <= Korobov((1 + 4^-alpha) gamma / 2), each within both tails
    plus _FOLD_SLACK_U u (1 + e^2_kor).  Each e^2 is fl(fsum / N) - 1 over
    node products, so its rounding scales with 1 + e^2, and the inequality
    is an equality in one dimension; the sweeps below stay within 1 u."""
    for fn, scale in ((wce_cosine_tent, 1.0), (wce_cosine_sym, 4.0**-alpha),
                      (wce_korcos_sym, 0.5 * (1.0 + 4.0**-alpha))):
        fold = fn(rule, alpha, gammas)
        kor = wce_korobov_lattice(rule, alpha, [g * scale for g in gammas])
        slack = _FOLD_SLACK_U * _U * (1.0 + kor.e2)
        assert fold.e2 <= kor.e2 + fold.tail_bound + kor.tail_bound + slack, (
            fn.__name__, rule, alpha, gammas)


@pytest.mark.parametrize("weights", sorted(_WEIGHTS))
@pytest.mark.parametrize("alpha", [0.75, 1, 1.5, 2, 3])
def test_fold_averages_stay_below_the_korobov_error_on_cbc_rules(alpha, weights):
    # e^2_tent = sum_k r(k) c_k^2 2^-|k|_0 <= sum_k r(k) c_k = e^2_kor, and
    # a sym error is a fold average at weights gamma' <= gamma
    gammas = _WEIGHTS[weights]
    for N in _SCREENED:
        _assert_fold_averages_below_korobov(cbc_construct(N, 6, alpha, gammas).rule,
                                            alpha, gammas)


def test_fold_averages_stay_below_the_korobov_error_on_random_rules():
    rng = np.random.default_rng(14)
    for _ in range(240):
        N = int(rng.integers(2, 701))
        s = int(rng.integers(1, 6))
        rule = LatticeRule(N, tuple(int(v) for v in rng.integers(1, N, size=s)))
        alpha = float(rng.choice([0.75, 1, 1.5, 2, 2.5, 3]))
        gammas = tuple(float(v) for v in rng.uniform(0.05, 2.0, size=s))
        _assert_fold_averages_below_korobov(rule, alpha, gammas)


@pytest.mark.parametrize("N", [12, 1000])
def test_other_moduli_take_the_reference_scan(N, monkeypatch):
    def refuse(*args):
        raise AssertionError("screen used for a modulus that is neither prime nor 2^m")

    gammas = _WEIGHTS["0.9^j"]
    expected = cbc_scan(N, 6, 1, gammas)
    monkeypatch.setattr(cbc, "_UnitScreen", refuse)
    assert cbc_construct(N, 6, 1, gammas) == expected


@pytest.mark.parametrize("N,alpha", [(8, 1), (257, 1), (509, 3), (1019, 2), (2048, 2),
                                     (4079, 1), (4096, 3), (4093, 1.5)])
def test_screened_errors_stay_within_their_bound(N, alpha):
    # at every coordinate the screened correlation T lies within its bound
    # of the directly summed D of each unit, and the bound is far below the
    # terms' scale that sets the tie window
    gammas = _WEIGHTS["0.9^j"]
    zs = np.array(candidate_set(N))
    om, _ = _omega_table(alpha, N)
    n = np.arange(N)
    screen = _UnitScreen(N, om, zs)
    prod = np.ones(N)
    for z, gamma in zip(cbc_construct(N, 6, alpha, gammas).rule.g, gammas):
        scale = float(np.abs(prod[1:]).sum()) * float(np.abs(om[1:]).max())
        T, bound = screen.screen(prod, scale)
        direct = np.array([float(np.sum(prod[1:] * om[n[1:] * c % N])) for c in zs])
        assert np.abs(T - direct).max() <= bound
        assert bound <= 1e-10 * scale
        prod *= 1.0 + gamma * om[(n * z) % N]


@pytest.mark.parametrize("alpha", [1, 1.5, 2])
@pytest.mark.parametrize("N", [1000, 1021, 1024])
def test_last_weight_does_not_change_the_last_component(N, alpha):
    # unit z's error is a common term plus gamma_s D(z) / N, so the weight
    # scales the differences between units and cannot pick the winner, even
    # when those differences fall below any window on e2 itself
    gammas = tuple(1.0 / j**2 for j in range(1, 5))
    g = cbc_construct(N, 4, alpha, gammas).rule.g
    for f in (1e-6, 1e-9):
        assert cbc_construct(N, 4, alpha, gammas[:3] + (gammas[3] * f,)).rule.g == g


def test_units_resolve_near_alpha_one_half(capsys):
    """At alpha = 0.5000001 Omega[0] is about 1e7 and node 0 dominates e2,
    but not D: each component is the smallest unit within the tie window of
    the minimum of D, here summed by math.fsum over every unit."""
    N, s, alpha = 61, 3, 0.5000001
    assert main(["cbc", "--n", str(N), "--s", str(s), "--alpha", str(alpha)]) == 0
    g = tuple(int(v) for v in capsys.readouterr().out.split()[2:])
    om, _ = _omega_table(alpha, N)
    n = np.arange(N)
    prod = np.ones(N)
    want = [1]
    for _ in range(s - 1):
        prod *= 1.0 + om[(n * want[-1]) % N]  # the CLI's default weight is 1
        D = {z: math.fsum(prod[1:] * om[n[1:] * z % N]) for z in candidate_set(N)}
        top = min(D.values()) + cbc.TIE_RTOL * float(np.abs(prod[1:]).sum()) * float(
            np.abs(om[1:]).max())
        want.append(min(z for z, v in D.items() if v <= top))
    assert g == tuple(want)


@pytest.mark.parametrize("alpha", [1, 2, 3, 0.75, 1.5])
@pytest.mark.parametrize("N", [61, 1021, 64, 1024, 12, 1000])
def test_reported_errors_are_the_korobov_single_sum(N, alpha):
    # one evaluator reports both: every prefix error is wce's, bit for bit
    gammas = _WEIGHTS["0.9^j"]
    res = cbc_construct(N, 6, alpha, gammas)
    for d in range(6):
        prefix = LatticeRule(N, res.rule.g[: d + 1])
        assert res.per_dim_e2[d] == wce_korobov_lattice(prefix, alpha, gammas[: d + 1]).e2


_EVEN_MODULI = [2, 3, 4, 8, 12, 61, 64, 100, 1021, 1024]


@pytest.mark.parametrize("alpha", [1, 2, 3, 0.75, 1.5])
@pytest.mark.parametrize("N", _EVEN_MODULI)
def test_direct_correlation_is_even_in_the_unit(N, alpha):
    """The identity the halved search rests on: the directly summed D(z)
    equals D(N - z) bit for bit at every coordinate, so the smallest unit in
    the tie window is at most N/2, and so is every component."""
    gammas = _WEIGHTS["0.9^j"][:4]
    g = cbc_construct(N, 4, alpha, gammas).rule.g
    assert all(2 * z <= N for z in g)
    om, _ = _omega_table(alpha, N)
    n = np.arange(N)
    prod = np.ones(N)
    for z, gamma in zip(g, gammas):
        for u in candidate_set(N):
            assert float(np.sum(prod[1:] * om[n[1:] * u % N])) == float(
                np.sum(prod[1:] * om[n[1:] * (N - u) % N])), u
        prod *= 1.0 + gamma * om[(n * z) % N]


@pytest.mark.parametrize("N", [2, 3, 4, 8, 16])
def test_degenerate_levels_screen_within_their_bound(N):
    # N = 2 and 4 hold only the nodes N/4, N/2 and 3N/4, summed as one
    # constant; N = 3 has one class, N = 8 one level of two classes and the
    # constant, N = 16 two levels and the constant.  prod is not
    # even in n here, so each fold adds two different node values.
    zs = np.array(candidate_set(N))
    om, _ = _omega_table(2, N)
    n = np.arange(N)
    prod = np.random.default_rng(N).uniform(0.5, 2.0, N)
    scale = float(np.abs(prod[1:]).sum()) * float(np.abs(om[1:]).max())
    T, bound = _UnitScreen(N, om, zs).screen(prod, scale)
    direct = np.array([float(np.sum(prod[1:] * om[n[1:] * c % N])) for c in zs])
    assert np.abs(T - direct).max() <= bound


@pytest.mark.parametrize("alpha", [1, 1.5, 3])
@pytest.mark.parametrize("N", [8192, 16384])
def test_merged_levels_screen_within_their_bound(N, alpha):
    # 11 and 12 levels share one inverse transform; prod of both signs
    # spanning six decades weights the levels unevenly, and the bound must
    # still hold while staying far below the terms' scale
    zs = cbc._units(N)
    zs = zs[2 * zs <= N]
    om, _ = _omega_table(alpha, N)
    n = np.arange(N)
    rng = np.random.default_rng(N + int(2 * alpha))
    prod = rng.choice([-1.0, 1.0], N) * 10.0 ** rng.uniform(-4.0, 2.0, N)
    scale = float(np.abs(prod[1:]).sum()) * float(np.abs(om[1:]).max())
    T, bound = _UnitScreen(N, om, zs).screen(prod, scale)
    direct = np.array([float(np.sum(prod[1:] * om[n[1:] * c % N])) for c in zs])
    assert np.abs(T - direct).max() <= bound
    assert bound <= 1e-10 * scale


@pytest.mark.parametrize("alpha", [1, 2])
def test_fft_screen_matches_the_reference_scan_past_the_sweep(alpha):
    # one size past the sweep's 4096, where the longest level grows again
    gammas = _WEIGHTS["0.9^j"][:3]
    assert cbc_construct(8192, 3, alpha, gammas) == cbc_scan(8192, 3, alpha, gammas)


def test_screen_takes_one_inverse_transform_per_coordinate(monkeypatch):
    # every 2-adic level of 2048 is summed in one spectrum: one irfft per
    # screened coordinate, none for the first
    calls = []
    irfft = np.fft.irfft

    def counting(*args, **kwargs):
        calls.append(kwargs.get("n"))
        return irfft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "irfft", counting)
    cbc_construct(2048, 6, 1, _WEIGHTS["j^-2"])
    assert calls == [2048 // 4] * 5


@pytest.mark.parametrize("N,forward,lengths", [(2048, 2, None), (4096, 3, None),
                                               (2039, 1, {2048})])
def test_screen_takes_few_forward_transforms_per_coordinate(N, forward, lengths, monkeypatch):
    """The 2-adic levels of at most _TILE entries share one 2-D rfft and each
    longer level takes its own; 2039's length 1019 is prime, so its one
    level is zero-padded to 2048.  __init__ transforms b once per group as
    well, so a build of 6 coordinates, 5 of them screened, takes 6 times
    the count of one coordinate."""
    calls = []
    rfft, irfft = np.fft.rfft, np.fft.irfft

    def counting(transform):
        def run(x, *args, **kwargs):
            calls.append((transform, kwargs.get("n", np.shape(x)[-1])))
            return transform(x, *args, **kwargs)
        return run

    monkeypatch.setattr(np.fft, "rfft", counting(rfft))
    monkeypatch.setattr(np.fft, "irfft", counting(irfft))
    cbc_construct(N, 6, 1, _WEIGHTS["j^-2"])
    assert sum(f is rfft for f, _ in calls) == 6 * forward
    assert sum(f is irfft for f, _ in calls) == 5
    if lengths is not None:
        assert {n for _, n in calls} == lengths


def _aimed(x, n, G, sign):
    """Per row of x, the error of x's length-n spectrum, of 2-norm
    eta_n sqrt(n) |x|_2 over the full spectrum, that moves one entry of
    the correlation most in the direction of sign: along sign conj(G),
    where G holds what multiplies each bin into that entry."""
    k = np.arange(n // 2 + 1)
    w = np.where((k == 0) | (2 * k == n), 1.0, 2.0)
    norm = np.sqrt((w * np.abs(G) ** 2).sum(axis=-1, keepdims=True))
    eta = cbc._FFT_ETA * cbc._U * math.log2(max(n, 2))
    return sign * eta * math.sqrt(n) * np.linalg.norm(x, axis=-1, keepdims=True) * np.conj(G) / norm


@pytest.mark.parametrize("N,alpha", [(16, 2), (61, 1), (2048, 1), (4093, 3), (8192, 1.5),
                                     (2027, 2)])
def test_screen_bound_covers_its_modelled_fft_errors(N, alpha, monkeypatch):
    """Push every transform off by the largest error the bound models, all of
    it aimed at one class: each row of each forward spectrum, a's and the
    stored b's, whether a level's own, one of the tiled rows or 2027's
    zero-padded one, by eta_n times its 2-norm along the direction that
    moves that class's correlation most, and the inverse output by eta_n0
    times its 2-norm on that class's entry.  Its |T - D| must stay within B."""
    zs = cbc._units(N)
    zs = zs[2 * zs <= N]
    om, _ = _omega_table(alpha, N)
    n = np.arange(N)
    rng = np.random.default_rng(N)
    prod = rng.choice([-1.0, 1.0], N) * 10.0 ** rng.uniform(-4.0, 2.0, N)
    scale = float(np.abs(prod[1:]).sum()) * float(np.abs(om[1:]).max())
    direct = np.array([float(np.sum(prod[1:] * om[n[1:] * c % N])) for c in zs])
    exact = _UnitScreen(N, om, zs)
    i = len(zs) // 3
    sign = 1.0 if exact.screen(prod, scale)[0][i] >= direct[i] else -1.0
    p = int(exact.pos[i])
    a = prod[exact.nodes] + prod[exact.mirror]
    rfft, irfft = np.fft.rfft, np.fft.irfft
    # bin j of a group's length-n spectrum lands on bin j n0 / n of the
    # inverse's, so its phase at entry p is that of bin j at length n
    phases = [np.exp(2j * np.pi * np.arange(n // 2 + 1) * p / n) for _, n, _, _ in exact.groups]
    # each group transforms its b once in __init__ and its rows of a once in
    # screen, in group order; b's error enters through the stored conj(B)
    spectra = [rfft(a[rows], n=n) for rows, n, _, _ in exact.groups]
    errs = [lambda y, n=n, X=X, ph=ph: _aimed(y, n, np.conj(X * ph), sign)
            for (_, n, _, _), X, ph in zip(exact.groups, spectra, phases)]

    def perturbed_rfft(x, *args, **kwargs):
        return rfft(x, *args, **kwargs) + errs.pop(0)(x)

    def perturbed_irfft(X, *args, **kwargs):
        y = irfft(X, *args, **kwargs)
        y[p] += sign * cbc._FFT_ETA * cbc._U * math.log2(max(len(y), 2)) * np.linalg.norm(y)
        return y

    monkeypatch.setattr(np.fft, "rfft", perturbed_rfft)
    monkeypatch.setattr(np.fft, "irfft", perturbed_irfft)
    screen = _UnitScreen(N, om, zs)
    assert errs == []
    errs[:] = [lambda x, n=n, fb=fb, ph=ph: _aimed(x, n, fb * ph, sign)
               for (_, n, _, fb), ph in zip(exact.groups, phases)]
    T, bound = screen.screen(prod, scale)
    assert errs == []
    assert np.abs(T - direct).max() <= bound
    # the aimed class takes a fair share of B, so a B short by that share fails
    assert abs(T[i] - direct[i]) >= 0.05 * bound


@pytest.mark.parametrize("N", [4, 8, 16, 2048, 4096])
def test_screen_bound_covers_its_modelled_direct_errors(N):
    """Move each folded a[i] by u |a[i]| and the constant by 3u P W, the
    rounding that B's direct term models, all toward one class: its |T - D|
    must stay within B.  The nodes of the constant (N/4, N/2, 3N/4) carry
    nearly all of P here, so B's FFT terms are far below u P W and a B
    without its direct term would not hold."""
    zs = cbc._units(N)
    zs = zs[2 * zs <= N]
    om, _ = _omega_table(1, N)
    n = np.arange(N)
    screen = _UnitScreen(N, om, zs)
    prod = np.random.default_rng(N).uniform(0.5, 2.0, N)
    prod[screen.nodes] *= 1e-9
    prod[screen.mirror] *= 1e-9
    scale = float(np.abs(prod[1:]).sum()) * float(np.abs(om[1:]).max())
    direct = np.array([float(np.sum(prod[1:] * om[n[1:] * c % N])) for c in zs])
    i = len(zs) // 3
    sign = 1.0 if screen.screen(prod, scale)[0][i] >= direct[i] else -1.0
    moved = prod.copy()
    a = prod[screen.nodes] + prod[screen.mirror]
    # a[i] enters the class's T times omega[n_i z]
    moved[screen.nodes] += sign * cbc._U * np.abs(a) * np.sign(om[screen.nodes * zs[i] % N])
    moved[N // 2] += sign * 3.0 * cbc._U * scale / om[N // 2]
    T, bound = screen.screen(moved, scale)
    assert np.abs(T - direct).max() <= bound
    assert abs(T[i] - direct[i]) >= 0.05 * bound


def test_screen_bound_past_the_float64_range_keeps_every_unit():
    # a node product near 1e160 squares past the float64 range in B's
    # |a|_2: B is inf, every unit is summed directly, and the build returns
    gammas = (1e160, 1e-10)
    res = cbc_construct(64, 2, 1, gammas)
    assert res == cbc_scan(64, 2, 1, gammas)
    assert 1e156 < res.per_dim_e2[-1] < math.inf
