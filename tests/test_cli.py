"""Command-line surface: output formats, exit codes, round-tripping."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import fibhess.cli as cli
import fibhess.sequences as sequences
from fibhess.cli import (
    EXIT_BUDGET,
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from fibhess.matrices import build_m
from fibhess.ring import X, Y, BivarPoly, GaussianInt
from fibhess.sequences import f_poly


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def poly_from_terms_json(terms):
    """Rebuild a polynomial from the CLI's JSON term list, with the int <->
    str digit limit lifted while it reads; a repeated monomial is an error."""
    with cli._unlimited_int_digits():
        coeffs = {
            (int(t["xexp"]), int(t["yexp"])): GaussianInt(int(t["re"]), int(t["im"]))
            for t in terms
        }
    if len(coeffs) != len(terms):
        raise ValueError("JSON term list repeats a monomial")
    return BivarPoly(coeffs)


def terms_json_by_terms(poly):
    return [
        {"xexp": xe, "yexp": ye, "re": str(c.re), "im": str(c.im)} for (xe, ye), c in poly.terms()
    ]


@pytest.mark.parametrize(
    "poly, expected",
    [
        (BivarPoly(), []),
        (
            BivarPoly({(0, 2): 3, (2, 0): -1}),
            [
                {"xexp": 2, "yexp": 0, "re": "-1", "im": "0"},
                {"xexp": 0, "yexp": 2, "re": "3", "im": "0"},
            ],
        ),
        (
            BivarPoly({(1, 1): GaussianInt(0, -4), (0, 0): GaussianInt(0, 1)}),
            [
                {"xexp": 1, "yexp": 1, "re": "0", "im": "-4"},
                {"xexp": 0, "yexp": 0, "re": "0", "im": "1"},
            ],
        ),
        (
            BivarPoly({(0, 3): GaussianInt(2, -5), (1, 0): 7, (0, 4): GaussianInt(0, 2)}),
            [
                {"xexp": 1, "yexp": 0, "re": "7", "im": "0"},
                {"xexp": 0, "yexp": 4, "re": "0", "im": "2"},
                {"xexp": 0, "yexp": 3, "re": "2", "im": "-5"},
            ],
        ),
        (BivarPoly({(True, 0): True}), [{"xexp": 1, "yexp": 0, "re": "1", "im": "0"}]),
    ],
    ids=["zero", "real", "imaginary", "mixed", "bool"],
)
def test_poly_terms_json_edge_cases(poly, expected):
    assert terms_json_by_terms(poly) == expected
    # the CLI writes the text that json.dumps gives; True == 1, so the text
    # is what shows that exponents are written as JSON ints
    assert cli._poly_terms_json(poly) == json.dumps(expected)


def test_poly_terms_json_of_route_values():
    mixed = (X + Y.scale(GaussianInt(0, 1))) ** 5
    for poly in (f_poly(4, 30), sequences.ROUTES["det-w"](3, 12), mixed):
        assert cli._poly_terms_json(poly) == json.dumps(terms_json_by_terms(poly))


# --- the table of exact outputs ---------------------------------------------
#
# cli_golden.json holds one row per CLI check: the argv, the exact stdout
# and stderr, the exit code and why the row is there.  CI runs the same rows
# through the installed console script.

GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text())


@pytest.mark.parametrize("row", GOLDEN, ids=lambda row: " ".join(row["argv"]))
def test_cli_golden_row(capsys, row):
    assert run(capsys, *row["argv"]) == (row["exit"], row["stdout"], row["stderr"])


def test_cli_golden_covers_the_cli():
    argvs = [row["argv"] for row in GOLDEN]
    assert len({tuple(argv) for argv in argvs}) == len(argvs)
    for row in GOLDEN:
        assert row["exit"] in (EXIT_OK, EXIT_USAGE, EXIT_BUDGET) and row["why"]
        # a success writes nothing to stderr, a refusal nothing to stdout
        assert (row["stderr"] if row["exit"] == EXIT_OK else row["stdout"]) == ""
    passing = [row["argv"] for row in GOLDEN if row["exit"] == EXIT_OK]

    def values(flag):
        return {argv[argv.index(flag) + 1] for argv in passing if flag in argv}

    assert {argv[0] for argv in passing} == {"gen", "family", "check", "matrix"}
    assert values("--method") == set(sequences.ROUTES)
    assert values("--name") == set(sequences.FAMILIES)
    assert values("--kind") == set(cli._BUILDERS)


# --- gen -----------------------------------------------------------------


@pytest.mark.parametrize(
    "method", ["recurrence", "det-w", "det-m", "per-h", "per-k"]
)
def test_gen_methods_agree(capsys, method):
    code, out, _ = run(
        capsys, "gen", "--p", "2", "--n", "9", "--method", method, "--format", "json"
    )
    assert code == EXIT_OK
    assert poly_from_terms_json(json.loads(out)["poly"]) == f_poly(2, 9)


def test_gen_json_round_trip(capsys):
    code, out, _ = run(
        capsys, "gen", "--p", "3", "--n", "18", "--format", "json"
    )
    assert code == EXIT_OK
    assert poly_from_terms_json(json.loads(out)["poly"]) == f_poly(3, 18)


def test_gen_text_json_same_poly(capsys):
    _, text_out, _ = run(capsys, "gen", "--p", "2", "--n", "7")
    _, json_out, _ = run(capsys, "gen", "--p", "2", "--n", "7", "--format", "json")
    assert str(poly_from_terms_json(json.loads(json_out)["poly"])) == text_out.strip()


def test_gen_usage_errors(capsys):
    # argparse rejects a method outside its choices and writes its own
    # stderr, whose text differs across Python versions, so this argv is
    # not a row of cli_golden.json
    assert run(capsys, "gen", "--p", "1", "--n", "3", "--method", "nope")[0] == EXIT_USAGE


# --- family -----------------------------------------------------------------


# F(21000) has 4389 decimal digits, past CPython's default limit of 4300 on
# converting ints to and from decimal text; main lifts it while it runs.

BIG_N = 21000


def fibonacci(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def parse_decimal(text):
    """int(text) for text of any length, in chunks under the digit limit."""
    value = 0
    for start in range(0, len(text), 1000):
        chunk = text[start : start + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def digit_limit():
    return sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None


def run_big_family(capsys, *fmt):
    before = digit_limit()
    code, out, _ = run(capsys, "family", "--name", "fibonacci-numbers", "--n", str(BIG_N), *fmt)
    assert code == EXIT_OK
    assert digit_limit() == before  # restored after main returns
    return out.strip()


def test_family_past_the_int_digit_limit_text(capsys):
    out = run_big_family(capsys)
    assert len(out) > 4300
    assert parse_decimal(out) == fibonacci(BIG_N)


def test_family_past_the_int_digit_limit_json(capsys):
    record = json.loads(run_big_family(capsys, "--format", "json"))
    [term] = record["poly"]
    assert (term["xexp"], term["yexp"], term["im"]) == (0, 0, "0")
    assert parse_decimal(term["re"]) == fibonacci(BIG_N)


def test_json_round_trip_past_the_int_digit_limit(capsys):
    record = json.loads(run_big_family(capsys, "--format", "json"))
    before = digit_limit()
    poly = poly_from_terms_json(record["poly"])
    assert digit_limit() == before
    assert poly == BivarPoly.constant(fibonacci(BIG_N))


def test_family_without_the_int_digit_limit_api(capsys, monkeypatch):
    # CPython before 3.10.7 has no digit limit, so there is none to lift
    monkeypatch.delattr(sys, "set_int_max_str_digits", raising=False)
    monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
    code, out, _ = run(capsys, "family", "--name", "fibonacci-numbers", "--n", "300")
    assert code == EXIT_OK
    assert out.strip() == str(fibonacci(300))


# --- check --------------------------------------------------------------------


def test_check_json_reports(capsys):
    code, out, _ = run(
        capsys, "check", "--p-max", "2", "--n-max", "3", "--format", "json"
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert len(lines) == 6
    for line in lines:
        report = json.loads(line)
        assert report["all_equal"] is True
        assert report["first_mismatch"] is None
        polys = {
            route: poly_from_terms_json(terms)
            for route, terms in report["values"].items()
        }
        assert set(polys) == {"recurrence", "det-w", "det-m", "per-h", "per-k"}
        assert len(set(polys.values())) == 1


def test_check_detects_corrupted_builder(capsys, monkeypatch):
    # sabotage one route and make sure the mismatch is caught and named
    monkeypatch.setattr(
        sequences, "build_m", lambda p, n: build_m(p, n).scale_row(0, 2)
    )
    code, out, err = run(capsys, "check", "--p-max", "1", "--n-max", "3")
    assert code == EXIT_CHECK_FAILED
    assert "det-m" in err


def test_check_json_matches_per_cell_cross_check(capsys):
    code, out, _ = run(capsys, "check", "--p-max", "4", "--n-max", "12", "--format", "json")
    assert code == EXIT_OK
    expected = []
    for p in range(1, 5):
        for n in range(1, 13):
            report = sequences.cross_check(p, n)
            record = {
                "p": p,
                "n": n,
                "all_equal": report.all_equal,
                "first_mismatch": None,
                "values": {route: terms_json_by_terms(v) for route, v in report.values.items()},
            }
            expected.append(json.dumps(record))
    assert out.splitlines() == expected


def test_check_holds_no_row_of_cells(capsys):
    # cells are printed as they come; a row of 200 reports is about 7 MiB
    tracemalloc.start()
    try:
        code = main(["check", "--p-max", "1", "--n-max", "200"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    assert capsys.readouterr().out == "200 checks, 200 passed\n"
    assert peak < 2 * 2**20


def build_m_corrupted_from_order_6(p, n):
    return build_m(p, n).scale_row(5, 2) if n > 5 else build_m(p, n)


def test_check_failure_stays_in_its_cell(capsys, monkeypatch):
    # M is corrupted from order 6 on: one pass over the order-8 matrix must
    # still pass cells 1..5 and fail 6..8
    monkeypatch.setattr(sequences, "build_m", build_m_corrupted_from_order_6)
    code, out, err = run(capsys, "check", "--p-max", "1", "--n-max", "8", "--format", "json")
    assert code == EXIT_CHECK_FAILED
    verdicts = [(r["n"], r["all_equal"]) for r in map(json.loads, out.splitlines())]
    assert verdicts == [(n, n <= 5) for n in range(1, 9)]
    # the JSON lines carry the verdicts; the text format names the first failure
    code, out, err = run(capsys, "check", "--p-max", "1", "--n-max", "8")
    assert code == EXIT_CHECK_FAILED
    assert out == "8 checks, 5 passed\n"
    assert err == "FAIL at p=1, n=6: recurrence != det-m\n"


def test_failing_cell_json_matches_per_cell_records(capsys, monkeypatch):
    # with M corrupted from order 6 on, each line is still the record built
    # from that cell's own five values, and a differing route carries its own
    # terms rather than the recurrence's
    monkeypatch.setattr(sequences, "build_m", build_m_corrupted_from_order_6)
    code, out, _ = run(capsys, "check", "--p-max", "2", "--n-max", "8", "--format", "json")
    assert code == EXIT_CHECK_FAILED
    expected = []
    for p in (1, 2):
        for n in range(1, 9):
            report = sequences.cross_check(p, n)
            values = {route: terms_json_by_terms(v) for route, v in report.values.items()}
            if n > 5:
                assert report.first_mismatch == ("recurrence", "det-m")
                assert values["det-m"] != values["recurrence"]
            record = {
                "p": p,
                "n": n,
                "all_equal": report.all_equal,
                "first_mismatch": list(report.first_mismatch) if report.first_mismatch else None,
                "values": values,
            }
            expected.append(json.dumps(record))
    assert out.splitlines() == expected


def test_a_failing_cell_renders_each_distinct_value_once(capsys, monkeypatch):
    # with M corrupted from order 6 on, a failing cell holds three values:
    # the recurrence's, det-m's, and the one that det-w, per-h and per-k
    # share through their plan group; an agreeing cell renders one
    monkeypatch.setattr(sequences, "build_m", build_m_corrupted_from_order_6)
    rendered = []
    write_terms, write_cell = cli._poly_terms_json, cli._report_json

    def counting_terms(poly):
        rendered.append(poly)
        return write_terms(poly)

    renders = []

    def counting_cell(report):
        before = len(rendered)
        line = write_cell(report)
        renders.append((report.p, report.n, len(rendered) - before))
        return line

    monkeypatch.setattr(cli, "_poly_terms_json", counting_terms)
    monkeypatch.setattr(cli, "_report_json", counting_cell)
    code, _, _ = run(capsys, "check", "--p-max", "2", "--n-max", "8", "--format", "json")
    assert code == EXIT_CHECK_FAILED
    assert renders == [(p, n, 1 if n <= 5 else 3) for p in (1, 2) for n in range(1, 9)]


def test_check_closed_pipe_ends_quietly():
    # the output (about 150 kB) outgrows the pipe buffer, so the process is
    # still writing when the reader goes away
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    with subprocess.Popen(
        [sys.executable, "-m", "fibhess.cli", "check", "--p-max", "3", "--n-max", "30",
         "--format", "json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    ) as proc:
        assert json.loads(proc.stdout.readline())["p"] == 1
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=120)
    assert "Traceback" not in err
    assert code != EXIT_CHECK_FAILED


# --- error boundary -------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--p", "0", "--n", "3", "--method", "per-k"],
        ["gen", "--p", "2", "--n", "0", "--method", "oracle-det-w"],
        ["family", "--name", "pell-p-poly", "--n", "3", "--p", "0"],
        ["family", "--name", "pell-numbers", "--n", "5", "--p", "0"],
        ["family", "--name", "chebyshev-U", "--n", "-1"],
        ["matrix", "--kind", "k", "--p", "1", "--order", "0"],
        ["check", "--p-max", "2", "--n-max", "0"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_bad_arguments_are_usage_errors(capsys, monkeypatch, argv):
    # rejected before any computation: a library call would raise here
    def unreachable(*args, **kwargs):
        raise AssertionError("computed with bad arguments")

    for table in (sequences.ROUTES, cli._BUILDERS):
        for name in table:
            monkeypatch.setitem(table, name, unreachable)
    monkeypatch.setattr(cli, "family_value", unreachable)
    monkeypatch.setattr(cli, "cross_check_prefix", unreachable)
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ")


def test_internal_value_error_is_not_a_usage_error(monkeypatch):
    def broken(p, n):
        raise ValueError("internal")

    monkeypatch.setitem(sequences.ROUTES, "recurrence", broken)
    with pytest.raises(ValueError, match="internal"):
        main(["gen", "--p", "1", "--n", "3"])


# --- matrix ---------------------------------------------------------------------


def test_matrix_usage(capsys):
    # argparse's own rejection, as in test_gen_usage_errors
    assert run(capsys, "matrix", "--kind", "z", "--p", "1", "--order", "2")[0] == EXIT_USAGE


def test_cli_import_loads_no_json_dataclasses_inspect_or_typing():
    # without site, the interpreter loads only what the CLI imports; none of
    # the standard-library modules the CLI uses imports these four, and the
    # CLI writes its JSON records itself
    src = str(Path(__file__).resolve().parent.parent / "src")
    probe = (
        "import sys, fibhess.cli;"
        " print(sorted({'json', 'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
