"""End-to-end command-line checks, run in process through ``main``."""
import math
import os
import warnings

import numpy as np
import pytest

from latquad import cli
from latquad.bench import TestFunction as Integrand
from latquad.bench import converge_study, integrate, records_to_csv
from latquad.cbc import cbc_construct
from latquad.cli import _fmt, _read_points_file, _write_points, main, parse_gammas
from latquad.kernels import DEFAULT_POLICY, SpaceSpec, TruncationPolicy
from latquad.points import (
    LatticeRule,
    WeightedPointSet,
    lattice_points,
    node_set,
    read_vector_file,
    symmetrize,
    write_vector_file,
)
from latquad.wce import wce_double_sum


def run_cli(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_parse_gammas_comma_list():
    assert parse_gammas("1, 0.5,0.25", 3) == (1.0, 0.5, 0.25)
    with pytest.raises(ValueError):
        parse_gammas("1,0.5", 3)


def test_parse_gammas_constant_replication():
    assert parse_gammas("0.7", 4) == (0.7,) * 4
    assert parse_gammas("1e-2", 2) == (0.01, 0.01)


def test_parse_gammas_power_law():
    assert parse_gammas("/j^2", 3) == pytest.approx((1.0, 0.25, 1.0 / 9.0))
    assert parse_gammas("0.9/j^1", 3) == pytest.approx((0.9, 0.45, 0.3))
    assert parse_gammas("2/j^0.5", 2) == pytest.approx((2.0, 2.0 / math.sqrt(2.0)))


def test_cbc_writes_vector_file(tmp_path, capsys):
    out = tmp_path / "vec.txt"
    code, stdout, stderr = run_cli(
        capsys, "cbc", "--n", "8", "--s", "3", "--alpha", "1", "--gamma", "1",
        "-o", str(out), "--report")
    assert code == 0
    assert stdout == ""
    assert out.read_text() == "8 3\n1 3 1\n"
    with open(out, "r", encoding="ascii") as fh:
        rule = read_vector_file(fh)
    assert rule.N == 8 and rule.g == (1, 3, 1)
    report = stderr.strip().splitlines()
    assert report == [
        "dim 1: e2=0.051404189589006943 bound_ok=True",
        "dim 2: e2=1.0804929408799695 bound_ok=True",
        "dim 3: e2=8.5641082095199614 bound_ok=True",
    ]


def test_cbc_report_is_the_korobov_route(capsys):
    # each report line prints the e2 that wce --space korobov prints for
    # that prefix of the vector, digit for digit
    args = ["--n", "1021", "--alpha", "1.5", "--gamma", "/j^2"]
    code, out, err = run_cli(capsys, "cbc", "--s", "4", *args, "--report")
    assert code == 0
    g = out.split()[2:]
    for d, line in enumerate(err.splitlines(), start=1):
        _, wce_out, _ = run_cli(capsys, "wce", "--space", "korobov",
                                "--g", ",".join(g[:d]), *args)
        assert line.split()[2] == wce_out.split()[0]


def test_cbc_default_output_is_stdout(capsys):
    code, stdout, stderr = run_cli(capsys, "cbc", "--n", "5", "--s", "2")
    assert code == 0
    assert stdout == "5 2\n1 2\n"
    assert stderr == ""


def test_points_plain_bare_coordinates(capsys):
    code, stdout, _ = run_cli(
        capsys, "points", "--n", "4", "--g", "1,3", "--variant", "plain")
    assert code == 0
    rows = [[float(t) for t in line.split()] for line in stdout.strip().splitlines()]
    assert all(len(r) == 2 for r in rows)
    np.testing.assert_array_equal(np.asarray(rows), lattice_points(LatticeRule(4, (1, 3))).points)


def test_points_tent_matches_api(capsys):
    from latquad.points import tent_transform

    code, stdout, _ = run_cli(
        capsys, "points", "--n", "5", "--g", "1,2", "--variant", "tent")
    assert code == 0
    rows = np.asarray(
        [[float(t) for t in line.split()] for line in stdout.strip().splitlines()])
    np.testing.assert_array_equal(rows, tent_transform(lattice_points(LatticeRule(5, (1, 2)))).points)


def test_points_sym_has_weight_column(capsys):
    code, stdout, _ = run_cli(
        capsys, "points", "--n", "4", "--g", "1,3", "--variant", "sym")
    assert code == 0
    rows = np.asarray(
        [[float(t) for t in line.split()] for line in stdout.strip().splitlines()])
    assert rows.shape == (9, 3)
    ps = symmetrize(LatticeRule(4, (1, 3)))
    np.testing.assert_array_equal(rows[:, :2], ps.points)
    np.testing.assert_array_equal(rows[:, 2], ps.weights)
    assert math.fsum(rows[:, 2]) == pytest.approx(1.0, abs=1e-15)


def test_points_no_dedupe_row_count(capsys):
    code, stdout, _ = run_cli(
        capsys, "points", "--n", "3", "--g", "1,2", "--variant", "sym", "--no-dedupe")
    assert code == 0
    rows = stdout.strip().splitlines()
    assert len(rows) == 4 * 3
    weights = [float(line.split()[-1]) for line in rows]
    assert weights == pytest.approx([1.0 / 12.0] * 12)


def _reference_text(ps, with_weights):
    # _fmt on every value, one row per line
    rows = np.column_stack((ps.points, ps.weights)) if with_weights else ps.points
    return "".join(" ".join(_fmt(v) for v in row) + "\n" for row in rows.tolist())


def _assert_same_bits(read, ps):
    np.testing.assert_array_equal(read.points.view(np.uint64), ps.points.view(np.uint64))
    np.testing.assert_array_equal(read.weights.view(np.uint64), ps.weights.view(np.uint64))


_WRITER_RULES = [(4093, 3, ("plain",)), (127, 4, ("plain", "tent", "sym")),
                 (64, 3, ("plain", "tent", "sym")), (61, 5, ("tent", "sym")), (5, 1, ("sym",))]


@pytest.mark.parametrize("N,s,variants", _WRITER_RULES)
def test_points_bytes_are_fmt_per_value_and_read_back_bit_for_bit(tmp_path, capsys, N, s, variants):
    gammas = tuple(1.0 / j**2 for j in range(1, s + 1))
    rule = cbc_construct(N, s, 1.0, gammas).rule
    g = ",".join(map(str, rule.g))
    for variant in variants:
        for dedupe in (True, False) if variant == "sym" else (True,):
            path = tmp_path / f"{variant}-{dedupe}.txt"
            argv = ["points", "--n", str(N), "--g", g, "--variant", variant, "-o", str(path)]
            code, _, _ = run_cli(capsys, *argv, *([] if dedupe else ["--no-dedupe"]))
            assert code == 0
            ps = node_set(rule, variant) if dedupe else symmetrize(rule, dedupe=False)
            assert path.read_text() == _reference_text(ps, with_weights=variant == "sym")
            _assert_same_bits(_read_points_file(str(path), s), ps)


def test_write_points_keeps_signed_zero_subnormal_and_last_ulp(tmp_path):
    tiny, top = 5e-324, 1.0 - 2.0**-53
    ps = WeightedPointSet(
        np.array([[0.0, -0.0], [tiny, top], [-0.0, 0.0], [top, tiny], [0.0, 0.0]]),
        np.array([0.5, 0.125, 0.125, 0.125, 0.125]))
    path = tmp_path / "nodes.txt"
    with open(path, "w", encoding="ascii") as fh:
        _write_points(ps, fh, with_weights=True)
    text = path.read_text()
    assert text == _reference_text(ps, with_weights=True)
    assert text.splitlines()[:3] == [
        "0 -0 0.5", "4.9406564584124654e-324 0.99999999999999989 0.125", "-0 0 0.125"]
    _assert_same_bits(_read_points_file(str(path), 2), ps)


def test_threads_default_is_the_affinity_set_not_every_host_cpu(capsys, monkeypatch):
    # a process pinned to one core of a larger host defaults to one worker
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    seen = []

    def record(spec, ps, threads):
        seen.append(threads)
        return wce_double_sum(spec, ps, threads=threads)

    monkeypatch.setattr(cli, "wce_double_sum", record)
    code, stdout, _ = run_cli(capsys, "wce", "--space", "double-sum", "--family", "korobov",
                              "--n", "5", "--g", "1,2")
    assert code == 0 and stdout.startswith("e2=")
    assert seen == [1]


def test_wce_korobov_output_line(capsys):
    code, stdout, _ = run_cli(
        capsys, "wce", "--space", "korobov", "--n", "2", "--g", "1",
        "--alpha", "1", "--gamma", "1")
    assert code == 0
    # pi^2 / 12 printed with 17 significant digits
    assert stdout == "e2=0.82246703342411287 tail=0 method=closed-form-single-sum\n"


def test_wce_vector_file_input(tmp_path, capsys):
    vec = tmp_path / "vec.txt"
    with open(vec, "w") as fh:
        write_vector_file(LatticeRule(16, (1, 7)), fh)
    code, stdout, _ = run_cli(
        capsys, "wce", "--space", "korobov", "--vector-file", str(vec),
        "--alpha", "2", "--gamma", "1,0.5")
    assert code == 0
    _, direct, _ = run_cli(
        capsys, "wce", "--space", "korobov", "--n", "16", "--g", "1,7",
        "--alpha", "2", "--gamma", "1,0.5")
    assert stdout == direct


def test_wce_double_sum_points_file_round_trip(tmp_path, capsys):
    pts = tmp_path / "nodes.txt"
    code, _, _ = run_cli(
        capsys, "points", "--n", "4", "--g", "1,3", "--variant", "sym", "-o", str(pts))
    assert code == 0
    code, stdout, _ = run_cli(
        capsys, "wce", "--space", "double-sum", "--family", "korobov",
        "--points-file", str(pts), "--s", "2", "--alpha", "1", "--gamma", "1")
    assert code == 0
    # the file holds the node set to the bit, so the sum over it is the
    # sum over the set built from the rule, digit for digit
    code, direct, _ = run_cli(
        capsys, "wce", "--space", "double-sum", "--family", "korobov",
        "--n", "4", "--g", "1,3", "--variant", "sym", "--alpha", "1", "--gamma", "1")
    assert code == 0
    assert stdout == direct
    spec = SpaceSpec("korobov", 1.0, (1.0, 1.0))
    ref = wce_double_sum(spec, symmetrize(LatticeRule(4, (1, 3))), TruncationPolicy())
    assert stdout == f"e2={ref.e2:.17g} tail={ref.tail_bound:.17g} method={ref.method.value}\n"


def test_wce_double_sum_variant_from_rule(capsys):
    code, stdout, _ = run_cli(
        capsys, "wce", "--space", "double-sum", "--family", "sobolev",
        "--n", "8", "--g", "1,5", "--variant", "tent", "--alpha", "2", "--gamma", "0.5")
    assert code == 0
    from latquad.points import tent_transform

    spec = SpaceSpec("sobolev", 2.0, (0.5, 0.5))
    ref = wce_double_sum(spec, tent_transform(lattice_points(LatticeRule(8, (1, 5)))),
                         TruncationPolicy())
    assert float(stdout.split()[0].split("=")[1]) == pytest.approx(ref.e2, rel=1e-12)


def test_wce_closed_spaces_match_api(capsys):
    from latquad.kernels import TruncationPolicy as TP
    from latquad.wce import wce_cosine_sym, wce_cosine_tent, wce_korcos_sym, wce_korobov_lattice

    fns = {"korobov": wce_korobov_lattice, "cosine-tent": wce_cosine_tent,
           "korcos-sym": wce_korcos_sym, "cosine-sym": wce_cosine_sym}
    rule = LatticeRule(8, (1, 5))
    for space, fn in fns.items():
        code, stdout, _ = run_cli(
            capsys, "wce", "--space", space, "--n", "8", "--g", "1,5",
            "--alpha", "2", "--gamma", "0.8")
        assert code == 0
        ref = fn(rule, 2.0, (0.8, 0.8), TP())
        assert stdout == f"e2={ref.e2:.17g} tail={ref.tail_bound:.17g} method={ref.method.value}\n"


def test_integrate_output_line(capsys):
    code, stdout, _ = run_cli(
        capsys, "integrate", "--n", "16", "--g", "1,7", "--variant", "tent",
        "--family", "g", "--w", "0.5")
    assert code == 0
    assert stdout == "estimate=1.000034637027772 abs_error=3.4637027771955431e-05\n"
    f = Integrand("g", 2, 0.5)
    est = integrate(LatticeRule(16, (1, 7)), "tent", f)
    assert stdout.startswith(f"estimate={est:.17g} ")


def test_converge_csv_matches_api(tmp_path, capsys):
    out = tmp_path / "study.csv"
    code, _, _ = run_cli(
        capsys, "converge", "--family", "g", "--s", "2", "--w", "0.9",
        "--variants", "plain,tent", "--nmin", "3", "--nmax", "5", "-o", str(out))
    assert code == 0
    f = Integrand("g", 2, 0.9)
    records = []
    for variant in ("plain", "tent"):
        records.extend(converge_study(f, variant, [8, 16, 32]))
    assert out.read_text() == records_to_csv(records)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "variant,N,nodes,estimate,abs_error"
    assert len(lines) == 1 + 6


def test_bound_output_line(capsys):
    code, stdout, _ = run_cli(capsys, "bound", "--alpha", "1", "--s", "1", "--gamma", "1")
    assert code == 0
    assert stdout == "C=1.8137993642342181\n"
    code, stdout, _ = run_cli(
        capsys, "bound", "--alpha", "2", "--s", "2", "--gamma", "1,0.5", "--tau", "1.5")
    assert code == 0
    assert stdout == "C=4.9085194540339758\n"


def test_usage_errors_exit_one(capsys):
    code, _, err = run_cli(capsys, "wce", "--space", "bogus", "--n", "4", "--g", "1")
    assert code == 1
    # the usage lines above it wrap with the terminal width
    assert err.splitlines()[-1] == (
        "latquad wce: error: argument --space: invalid choice: 'bogus' (choose from "
        "'korobov', 'cosine-tent', 'korcos-sym', 'cosine-sym', 'double-sum')")
    code, _, err = run_cli(
        capsys, "wce", "--space", "korobov", "--n", "4", "--g", "1,3", "--gamma", "1,2,3")
    assert code == 1
    assert "weights" in err
    code, _, err = run_cli(capsys, "wce", "--space", "korobov")
    assert code == 1
    assert "rule is required" in err
    # --g reads like a vector file's components, and a modulus below 2 is
    # refused before any omega table is built, whatever its value
    code, _, err = run_cli(capsys, "wce", "--space", "korobov", "--n", "16", "--g", "1.5,3")
    assert (code, err) == (1, "latquad: vector components must be integers\n")
    for n in ("0", "1", "-3"):
        code, _, err = run_cli(capsys, "cbc", "--n", n, "--s", "2")
        assert (code, err) == (1, f"latquad: modulus must be >= 2, got {n}\n")


def _unrecognized(err: str, *argv: str) -> bool:
    """True when err ends with argparse's refusal of argv as unknown arguments."""
    return err.splitlines()[-1].endswith(f"error: unrecognized arguments: {' '.join(argv)}")


@pytest.mark.parametrize("flag", [("--tol", "0"), ("--tol", "nan"), ("--max-terms", "0")])
@pytest.mark.parametrize("space", ["korobov", "cosine-tent", "korcos-sym", "cosine-sym"])
def test_bad_truncation_policy_exits_one_on_rule_spaces(capsys, space, flag):
    # wce takes no truncation flags: the rule routes sum no series, and the
    # series of a points file runs at the default policy
    code, stdout, err = run_cli(capsys, "wce", "--space", space, "--n", "5", "--g", "1,2", *flag)
    assert code == 1
    assert stdout == ""
    assert _unrecognized(err, *flag)


@pytest.mark.parametrize("flag,message", [(("--tol", "0"), "tol must be positive"),
                                          (("--tol", "nan"), "tol must be positive")])
def test_bad_truncation_policy_exits_one_on_the_series_route(tmp_path, capsys, flag, message):
    # a points file whose nodes give no denominator sums the series at
    # non-integer alpha, at the default policy: --tol is no option there
    # either, and the library's policy still refuses the value
    pts = tmp_path / "nodes.txt"
    pts.write_text(_off_lattice_text([[0.25], [0.75]]))
    code, stdout, err = run_cli(capsys, "wce", "--space", "double-sum", "--family", "korobov",
                                "--points-file", str(pts), "--s", "1", "--alpha", "1.5", *flag)
    assert (code, stdout) == (1, "")
    assert _unrecognized(err, *flag)
    with pytest.raises(ValueError, match=message):
        TruncationPolicy(tol=float(flag[1]))


def test_points_file_past_the_table_cap_takes_the_tol(tmp_path, capsys):
    # nodes k / 2039 beside k / 2053 are p / N with N = 2039 * 2053, but 2 N
    # is past the omega table's cap: the file sums the series at the default
    # tolerance, and the line is wce_double_sum's under it
    k = np.arange(5)
    X = np.stack([k / 2039, k / 2053], axis=1)
    pts = tmp_path / "nodes.txt"
    pts.write_text("".join(f"{a!r} {b!r}\n" for a, b in X.tolist()))
    code, stdout, err = run_cli(capsys, "wce", "--space", "double-sum", "--family", "korcos",
                                "--points-file", str(pts), "--s", "2", "--alpha", "1.5",
                                "--gamma", "1,0.5")
    assert (code, err) == (0, "")
    res = wce_double_sum(SpaceSpec("korcos", 1.5, (1.0, 0.5)),
                         WeightedPointSet(X, np.full(5, 0.2)), DEFAULT_POLICY)
    assert stdout == f"e2={res.e2:.17g} tail={res.tail_bound:.17g} method=kernel-double-sum\n"
    assert res.tail_bound > 1e-7


_WEIGHT_ROUTES = {
    "korobov": ("wce", "--space", "korobov", "--n", "5", "--g", "1,2"),
    "cosine-tent": ("wce", "--space", "cosine-tent", "--n", "5", "--g", "1,2"),
    "double-sum": ("wce", "--space", "double-sum", "--family", "korobov",
                   "--n", "5", "--g", "1,2"),
    "bound": ("bound", "--alpha", "1", "--s", "2"),
    "cbc": ("cbc", "--n", "7", "--s", "2"),
}


@pytest.mark.parametrize("weight", ["nan", "inf"])
@pytest.mark.parametrize("route", sorted(_WEIGHT_ROUTES))
def test_non_finite_weights_exit_one(capsys, route, weight):
    code, stdout, err = run_cli(capsys, *_WEIGHT_ROUTES[route], "--gamma", weight)
    assert code == 1
    assert stdout == ""
    assert err.startswith("latquad: ") and "finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("text", ["nan 0.5\n0.5 0.0\n", "0.0 0.5 nan\n0.5 0.0 1.0\n"])
def test_points_file_with_nan_exits_one(tmp_path, capsys, text):
    # a NaN coordinate, then a NaN weight column
    pts = tmp_path / "nodes.txt"
    pts.write_text(text)
    code, stdout, err = run_cli(
        capsys, "wce", "--space", "double-sum", "--family", "korobov",
        "--points-file", str(pts), "--s", "2")
    assert code == 1
    assert stdout == ""
    assert "must be finite" in err


@pytest.mark.parametrize("text,message", [
    ("0.1 0.2 0.3 0.4\n", "line 1: expected 2 or 3 columns, got 4"),
    ("0.1 0.2\n0.3 0.4 0.5\n", "points file mixes weighted and unweighted lines"),
    ("\n  \n\t\n", "points file is empty"),
    ("0.1 0.2\n0.3 x\n", "line 2: could not convert string to float: 'x'"),
    # \v and \f separate tokens but end no line, \r\n and \r end one; the
    # first bad line is named, and a bad token before its column count
    ("0.1\v0.2\n0.3 x\n", "line 2: could not convert string to float: 'x'"),
    ("0.1 0.2\r\n0.3 x\r\n", "line 2: could not convert string to float: 'x'"),
    ("0.1 0.2\r0.3 x\r", "line 2: could not convert string to float: 'x'"),
    ("0.1 0.2\f\n0.3 0.4 0.5 0.6\n0.7 x\n", "line 2: expected 2 or 3 columns, got 4"),
    ("0.1 0.2\n0.3 0.4 0.5 x\n", "line 2: could not convert string to float: 'x'"),
])
def test_points_file_errors_exit_one(tmp_path, capsys, text, message):
    pts = tmp_path / "nodes.txt"
    pts.write_text(text)
    code, stdout, err = run_cli(
        capsys, "wce", "--space", "double-sum", "--family", "korobov",
        "--points-file", str(pts), "--s", "2")
    assert code == 1
    assert stdout == ""
    assert err == f"latquad: {message}\n"



@pytest.mark.parametrize("argv,message", [
    (("--space", "double-sum", "--family", "korobov", "--vector-file", "{vec}"),
     "--points-file takes no rule, got --vector-file"),
    (("--space", "double-sum", "--family", "korobov", "--n", "11"),
     "--points-file takes no rule, got --n"),
    (("--space", "double-sum", "--family", "korobov", "--g", "1,4"),
     "--points-file takes no rule, got --g"),
    (("--space", "double-sum", "--family", "korobov", "--n", "11", "--g", "1,4"),
     "--points-file takes no rule, got --n and --g"),
    (("--space", "korobov",), "--points-file is for --space double-sum, not --space korobov"),
    (("--space", "cosine-tent", "--n", "11", "--g", "1,4"),
     "--points-file is for --space double-sum, not --space cosine-tent"),
])
def test_points_file_beside_a_rule_exits_one(tmp_path, capsys, argv, message):
    # each of these once printed the e2 of one input and ignored the other
    pts, vec = tmp_path / "nodes.txt", tmp_path / "vec.txt"
    assert run_cli(capsys, "points", "--n", "7", "--g", "1,3", "--variant", "plain",
                   "-o", str(pts))[0] == 0
    with open(vec, "w") as fh:
        write_vector_file(LatticeRule(11, (1, 4)), fh)
    argv = [a.format(vec=vec) for a in argv]
    code, stdout, err = run_cli(capsys, "wce", *argv, "--points-file", str(pts), "--s", "2")
    assert code == 1
    assert stdout == ""
    assert err == f"latquad: {message}\n"


@pytest.mark.parametrize("argv,message", [
    (("wce", "--space", "double-sum", "--family", "korobov", "--points-file", "{pts}",
      "--s", "2", "--variant", "sym"), "--points-file takes no --variant, got --variant sym"),
    (("wce", "--space", "korobov", "--n", "7", "--g", "1,3", "--s", "5"),
     "--s is for --points-file: a rule sets its own dimension"),
    (("wce", "--space", "double-sum", "--family", "korobov", "--n", "7", "--g", "1,3",
      "--s", "2"), "--s is for --points-file: a rule sets its own dimension"),
    (("wce", "--space", "korobov", "--n", "7", "--g", "1,3", "--family", "cosine"),
     "--family is for --space double-sum, not --space korobov"),
    (("wce", "--space", "cosine-sym", "--n", "7", "--g", "1,3", "--variant", "tent"),
     "--variant is for --space double-sum, not --space cosine-sym"),
    (("wce", "--space", "korobov", "--vector-file", "{vec}", "--n", "5", "--g", "1,2"),
     "--vector-file takes no --n or --g, got --n and --g"),
    (("wce", "--space", "double-sum", "--family", "cosine", "--vector-file", "{vec}",
      "--n", "5"), "--vector-file takes no --n or --g, got --n"),
    (("points", "--vector-file", "{vec}", "--g", "1,2", "--variant", "plain"),
     "--vector-file takes no --n or --g, got --g"),
    (("integrate", "--vector-file", "{vec}", "--n", "5", "--variant", "tent",
      "--family", "g", "--w", "0.5"), "--vector-file takes no --n or --g, got --n"),
    (("points", "--n", "7", "--g", "1,3", "--variant", "plain", "--no-dedupe"),
     "--no-dedupe is for --variant sym, not --variant plain"),
    (("points", "--n", "7", "--g", "1,3", "--variant", "tent", "--no-dedupe"),
     "--no-dedupe is for --variant sym, not --variant tent"),
    (("wce", "--space", "korobov", "--n", "7", "--g", "1,3", "--alpha", "1.5", "--threads", "1"),
     "--threads is for --space double-sum, not --space korobov"),
])
def test_unread_flags_exit_one(tmp_path, capsys, argv, message):
    # each of these once exited 0 and ignored the named flag
    pts, vec = tmp_path / "nodes.txt", tmp_path / "vec.txt"
    assert run_cli(capsys, "points", "--n", "7", "--g", "1,3", "--variant", "plain",
                   "-o", str(pts))[0] == 0
    with open(vec, "w") as fh:
        write_vector_file(LatticeRule(11, (1, 4)), fh)
    code, stdout, err = run_cli(capsys, *[a.format(pts=pts, vec=vec) for a in argv])
    assert code == 1
    assert stdout == ""
    assert err == f"latquad: {message}\n"


def test_double_sum_on_a_rule_defaults_to_the_plain_nodes(capsys):
    argv = ("wce", "--space", "double-sum", "--family", "korobov", "--n", "7", "--g", "1,3")
    code, stdout, _ = run_cli(capsys, *argv)
    assert code == 0
    assert run_cli(capsys, *argv, "--variant", "plain")[1] == stdout


# emit's three rules, (N, s, family, alpha, gamma): a points file holds its
# node set to the bit, so its double sum prints its vector file's line
_TWIN_RULES = [(127, 4, "korobov", 1, "/j^2"), (251, 3, "sobolev", 1, "0.9/j^1"),
               (61, 5, "korobov", 2, "0.5")]


@pytest.mark.parametrize("variant", ["tent", "sym"])
@pytest.mark.parametrize("N,s,family,alpha,gamma", _TWIN_RULES)
def test_points_file_double_sum_prints_its_vector_file_line(
        tmp_path, capsys, N, s, family, alpha, gamma, variant):
    vec, pts = tmp_path / "vec.txt", tmp_path / "nodes.txt"
    assert run_cli(capsys, "cbc", "--n", str(N), "--s", str(s), "--alpha", str(alpha),
                   "--gamma", gamma, "-o", str(vec))[0] == 0
    assert run_cli(capsys, "points", "--vector-file", str(vec), "--variant", variant,
                   "-o", str(pts))[0] == 0
    common = ("wce", "--space", "double-sum", "--family", family, "--alpha", str(alpha),
              "--gamma", gamma, "--threads", "2")
    code, from_file, _ = run_cli(capsys, *common, "--points-file", str(pts), "--s", str(s))
    assert code == 0
    code, from_rule, _ = run_cli(capsys, *common, "--vector-file", str(vec),
                                 "--variant", variant)
    assert code == 0
    assert from_file.startswith("e2=")
    assert from_file == from_rule


def _e2_tail(line: str) -> tuple[float, float]:
    e2, tail, _method = line.split()
    return float(e2.removeprefix("e2=")), float(tail.removeprefix("tail="))


def _off_lattice_text(rows) -> str:
    """Points-file text of the nodes moved to x + 2^-10 sin(2 pi x): the
    map keeps equal values equal, but the coordinates give no denominator,
    so a double sum at non-integer alpha sums the series."""
    return "".join(" ".join(repr(x + 2.0**-10 * math.sin(2 * math.pi * x)) for x in row) + "\n"
                   for row in rows)


# emit's three rules at non-integer alpha, with a periodic family in place of
# sobolev, which has no series: (N, s, family, gamma)
_TWIN_RULES = [(127, 4, "korobov", "/j^2"), (251, 3, "cosine", "0.9/j^1"),
               (61, 5, "korcos", "0.5")]


@pytest.mark.parametrize("alpha", ["1.5", "2.5"])
@pytest.mark.parametrize("variant", ["tent", "sym"])
@pytest.mark.parametrize("N,s,family,gamma", _TWIN_RULES)
def test_points_file_prints_the_line_of_its_vector_file(
        tmp_path, capsys, N, s, family, gamma, variant, alpha):
    # a file that points writes holds its rule set's floats, which give a
    # denominator: it reads Omega_2N as the vector file does, to the byte
    vec, pts = tmp_path / "vec.txt", tmp_path / "nodes.txt"
    assert run_cli(capsys, "cbc", "--n", str(N), "--s", str(s), "--alpha", alpha,
                   "--gamma", gamma, "-o", str(vec))[0] == 0
    assert run_cli(capsys, "points", "--vector-file", str(vec), "--variant", variant,
                   "-o", str(pts))[0] == 0
    common = ("wce", "--space", "double-sum", "--family", family, "--alpha", alpha,
              "--gamma", gamma)
    code, from_file, _ = run_cli(capsys, *common, "--points-file", str(pts), "--s", str(s))
    assert code == 0
    code, from_rule, _ = run_cli(capsys, *common, "--vector-file", str(vec),
                                 "--variant", variant)
    assert code == 0
    assert from_file == from_rule
    assert 0.0 < _e2_tail(from_rule)[1] < 1e-10


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_thread_count_below_one_exits_one(capsys, threads):
    code, stdout, err = run_cli(
        capsys, "wce", "--space", "double-sum", "--family", "korobov",
        "--n", "5", "--g", "1,2", "--threads", threads)
    assert code == 1
    assert stdout == ""
    assert err == f"latquad: threads must be at least 1, got {threads}\n"


@pytest.mark.parametrize("s", ["0", "-1"])
@pytest.mark.parametrize("route", ["bound", "points-file", "cbc", "converge"])
def test_dimension_below_one_exits_one(tmp_path, capsys, route, s):
    pts = tmp_path / "nodes.txt"
    pts.write_text("0.1 0.2\n")
    argv = {
        "bound": ("bound", "--alpha", "1"),
        "points-file": ("wce", "--space", "double-sum", "--family", "korobov",
                        "--points-file", str(pts)),
        "cbc": ("cbc", "--n", "5"),
        "converge": ("converge", "--family", "g", "--w", "0.9", "--nmin", "3", "--nmax", "4"),
    }[route]
    code, stdout, err = run_cli(capsys, *argv, "--s", s)
    assert code == 1
    assert stdout == ""
    assert err == "latquad: dimension must be at least 1\n"


_ALPHA_ROUTES = {
    space: ("wce", "--space", space, "--n", "5", "--g", "1,2")
    for space in ("korobov", "cosine-tent", "korcos-sym", "cosine-sym")
}
_ALPHA_ROUTES["double-sum"] = ("wce", "--space", "double-sum", "--family", "korobov",
                               "--n", "5", "--g", "1,2")
_ALPHA_ROUTES["bound"] = ("bound", "--s", "2")
_ALPHA_ROUTES["cbc"] = ("cbc", "--n", "5", "--s", "2")
_ALPHA_ROUTES["converge"] = ("converge", "--family", "g", "--s", "2", "--w", "0.9",
                             "--nmin", "3", "--nmax", "4")


@pytest.mark.parametrize("alpha", ["nan", "inf"])
@pytest.mark.parametrize("route", sorted(_ALPHA_ROUTES))
def test_non_finite_alpha_exits_one(capsys, route, alpha):
    code, stdout, err = run_cli(capsys, *_ALPHA_ROUTES[route], "--alpha", alpha)
    assert code == 1
    assert stdout == ""
    assert err.startswith("latquad: ") and "alpha must be finite" in err
    assert "Traceback" not in err


def test_converge_empty_exponent_range_exits_one(capsys):
    code, stdout, err = run_cli(
        capsys, "converge", "--family", "g", "--s", "2", "--w", "0.9",
        "--nmin", "5", "--nmax", "3")
    assert code == 1
    assert stdout == ""
    assert err == "latquad: --nmin must not exceed --nmax, got --nmin 5 --nmax 3\n"


@pytest.mark.parametrize("nmin", ["-1", "0"])
def test_converge_exponent_below_one_exits_one(capsys, nmin):
    # refused by the CLI, naming the flag, before the library sees N = 2^nmin
    code, stdout, err = run_cli(
        capsys, "converge", "--family", "g", "--s", "2", "--w", "0.9",
        "--nmin", nmin, "--nmax", "3")
    assert code == 1
    assert stdout == ""
    assert err == f"latquad: --nmin must be at least 1, got --nmin {nmin}\n"


def test_fold_average_cap_exits_one(capsys):
    # 2^s N = 2^8 (2^16 + 1) is just above the 2^24 work cap, 2^8 2^16 is at it
    g = "1,3,5,7,9,11,13,15"
    code, stdout, err = run_cli(
        capsys, "wce", "--space", "cosine-tent", "--n", "65537", "--g", g,
        "--alpha", "1", "--gamma", "1")
    assert code == 1
    assert stdout == ""
    assert "capped at 2^s N = 16777216" in err
    code, stdout, err = run_cli(
        capsys, "wce", "--space", "cosine-tent", "--n", "65536", "--g", g,
        "--alpha", "1", "--gamma", "1")
    assert code == 0
    assert stdout.endswith(" method=fold-average-double-sum\n")


@pytest.mark.parametrize("variants", ["", " , ", "tent,tent", "plain,sym,plain"])
def test_converge_rejects_empty_or_repeated_variants(capsys, variants):
    code, stdout, err = run_cli(
        capsys, "converge", "--family", "g", "--s", "2", "--w", "0.9",
        "--nmin", "3", "--nmax", "4", "--variants", variants)
    assert code == 1
    assert stdout == ""
    assert err.startswith("latquad: --variants must name distinct variants")


def test_truncation_budget_exit_two(tmp_path, capsys):
    # a points file whose nodes give no denominator sums series at
    # non-integer alpha, under the term budget: at alpha = 0.55 the default
    # tolerance needs about 1e70 terms
    four = tmp_path / "four.txt"
    four.write_text(_off_lattice_text([[0], [0.25], [0.5], [0.75]]))
    code, stdout, err = run_cli(
        capsys, "wce", "--space", "double-sum", "--family", "cosine",
        "--points-file", str(four), "--s", "1", "--alpha", "0.55", "--gamma", "1")
    assert code == 2
    assert stdout == ""
    assert "computation failed" in err
    assert "above the cap of 2000000" in err
    # the rule's own nodes read the Omega_2N table, the closed form at integer
    # alpha and the aliased omega table on the Korobov route, and a points
    # file at integer alpha the closed form: none takes a tolerance
    double_sum = ("--space", "double-sum", "--family", "cosine")
    for route, alpha in ((double_sum, "1.5"), (double_sum, "1"), (("--space", "korobov"), "1.5"),
                         ((*double_sum, "--points-file", str(four), "--s", "1"), "1")):
        rule = () if "--points-file" in route else ("--n", "4", "--g", "1")
        code, stdout, err = run_cli(capsys, "wce", *route, *rule,
                                    "--alpha", alpha, "--gamma", "1", "--tol", "1e-14")
        assert (code, stdout) == (1, "")
        assert _unrecognized(err, "--tol", "1e-14")
    # near alpha = 1/2 the term count overflows a float: still a budget
    # failure of the double-sum series, while the table routes return
    five = tmp_path / "five.txt"
    five.write_text(_off_lattice_text([[n / 5, 2 * n % 5 / 5] for n in range(5)]))
    code, stdout, err = run_cli(
        capsys, "wce", "--space", "double-sum", "--family", "korobov",
        "--points-file", str(five), "--s", "2", "--alpha", "0.5000001")
    assert code == 2
    assert stdout == ""
    assert "computation failed" in err and "Traceback" not in err
    for space in ("korobov", "cosine-tent"):
        code, stdout, err = run_cli(
            capsys, "wce", "--space", space, "--n", "5", "--g", "1,2", "--alpha", "0.5000001")
        assert code == 0, space
        e2, tail = (float(f.split("=")[1]) for f in stdout.split()[:2])
        assert math.isfinite(e2) and 0.0 < tail < math.inf, space


def test_points_file_series_runs_at_the_default_policy(tmp_path, capsys):
    # random nodes give no denominator: the file sums the series under the
    # one fixed policy, prints its rigorous tail, and exits 2 at the term cap
    X = np.random.default_rng(32).random((50, 2))
    pts = tmp_path / "nodes.txt"
    pts.write_text("".join(f"{a!r} {b!r}\n" for a, b in X.tolist()))
    argv = ("wce", "--space", "double-sum", "--family", "cosine", "--points-file", str(pts),
            "--s", "2")
    code, stdout, err = run_cli(capsys, *argv, "--alpha", "1.5")
    assert (code, err) == (0, "")
    res = wce_double_sum(SpaceSpec("cosine", 1.5, (1.0, 1.0)),
                         WeightedPointSet(X, np.full(50, 1 / 50)), DEFAULT_POLICY)
    assert stdout == f"e2={res.e2:.17g} tail={res.tail_bound:.17g} method=kernel-double-sum\n"
    assert res.tail_bound > 0.0
    code, stdout, err = run_cli(capsys, *argv, "--alpha", "0.55")
    assert (code, stdout) == (2, "")
    assert "above the cap of 2000000" in err
    code, help_text, _ = run_cli(capsys, "wce", "--help")
    assert code == 0
    assert "--tol" not in help_text and "--max-terms" not in help_text


_OVERFLOW_ROUTES = {
    "double-sum": ("wce", "--n", "16", "--g", "1,3", "--space", "double-sum",
                   "--family", "korobov"),
    # three row blocks on two threads, each with its own numpy error state
    "double-sum-threads": ("wce", "--n", "1031", "--g", "1,3", "--space", "double-sum",
                           "--family", "cosine", "--threads", "2"),
    "korobov": ("wce", "--n", "16", "--g", "1,3", "--space", "korobov"),
    "cosine-tent": ("wce", "--n", "16", "--g", "1,3", "--space", "cosine-tent"),
    "cbc": ("cbc", "--n", "16", "--s", "3"),
    "bound": ("bound", "--alpha", "1.5", "--s", "2"),
}


@pytest.mark.parametrize("route", sorted(_OVERFLOW_ROUTES))
def test_overflow_exits_two_with_one_message(capsys, route):
    # no nan or inf is printed, and no numpy warning names a source line
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, stdout, err = run_cli(capsys, *_OVERFLOW_ROUTES[route], "--gamma", "1e300")
    assert code == 2
    assert stdout == ""
    assert err == ("latquad: computation failed: float overflow: the weights drive "
                   "a kernel product past the float64 range\n")
    assert caught == []


@pytest.mark.parametrize("variant,n", [("plain", "4000037"), ("tent", "4097")])
def test_double_sum_cap_refuses_before_building_nodes(capsys, monkeypatch, variant, n):
    # plain and tent sets hold N nodes, so N alone decides the cap
    def refuse(*args, **kwargs):
        raise AssertionError("node_set called for a rule above the double-sum cap")

    monkeypatch.setattr(cli, "node_set", refuse)
    code, stdout, err = run_cli(
        capsys, "wce", "--space", "double-sum", "--family", "korobov", "--n", n,
        "--g", "1,3,5", "--variant", variant)
    assert code == 1
    assert stdout == ""
    assert err == f"latquad: double sum capped at 4096 nodes, got {n}\n"


def test_help_exits_zero(capsys):
    assert run_cli(capsys, "--help")[0] == 0


def test_repeated_runs_are_byte_identical(capsys):
    argv = ("wce", "--space", "double-sum", "--family", "korcos", "--n", "5",
            "--g", "1,2", "--variant", "sym", "--alpha", "1", "--gamma", "0.9")
    runs = [run_cli(capsys, *argv, *threads)
            for threads in ((), (), ("--threads", "1"), ("--threads", "4"))]
    assert {code for code, _, _ in runs} == {0}
    assert runs[0][1].startswith("e2=")
    assert len({stdout for _, stdout, _ in runs}) == 1
