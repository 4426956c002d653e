"""Command-line surface: output formats, exit codes, round-tripping."""

import json
import os
import subprocess
import sys
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
    poly_from_terms_json,
)
from fibhess.matrices import build_m
from fibhess.ring import X, Y, BivarPoly
from fibhess.sequences import f_poly


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- gen -----------------------------------------------------------------


def test_gen_text(capsys):
    code, out, _ = run(capsys, "gen", "--p", "3", "--n", "6")
    assert code == EXIT_OK
    assert out.strip() == "x^5 + 2*x*y"


def test_gen_zero_term(capsys):
    code, out, _ = run(capsys, "gen", "--p", "1", "--n", "0", "--method", "recurrence")
    assert code == EXIT_OK
    assert out.strip() == "0"


def test_gen_json(capsys):
    code, out, _ = run(
        capsys, "gen", "--p", "4", "--n", "6", "--method", "det-w", "--format", "json"
    )
    assert code == EXIT_OK
    record = json.loads(out)
    assert record["p"] == 4 and record["n"] == 6 and record["method"] == "det-w"
    assert record["poly"] == [
        {"xexp": 5, "yexp": 0, "re": "1", "im": "0"},
        {"xexp": 0, "yexp": 1, "re": "1", "im": "0"},
    ]


@pytest.mark.parametrize(
    "method", ["recurrence", "det-w", "det-m", "per-h", "per-k"]
)
def test_gen_methods_agree(capsys, method):
    code, out, _ = run(
        capsys, "gen", "--p", "2", "--n", "9", "--method", method, "--format", "json"
    )
    assert code == EXIT_OK
    assert poly_from_terms_json(json.loads(out)["poly"]) == f_poly(2, 9)


def test_gen_matrix_method_at_n1(capsys):
    # order-0 matrix edge case: det = per = 1
    code, out, _ = run(capsys, "gen", "--p", "2", "--n", "1", "--method", "per-k")
    assert code == EXIT_OK
    assert out.strip() == "1"


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


def test_gen_oracle_methods(capsys):
    code, out, _ = run(
        capsys, "gen", "--p", "1", "--n", "7", "--method", "oracle-det-w"
    )
    assert code == EXIT_OK
    assert out.strip() == str(f_poly(1, 7))
    code, out, _ = run(
        capsys, "gen", "--p", "1", "--n", "7", "--method", "oracle-per-h"
    )
    assert code == EXIT_OK
    assert out.strip() == str(f_poly(1, 7))


def test_gen_oracle_budget_exit(capsys):
    code, _, err = run(
        capsys, "gen", "--p", "1", "--n", "12", "--method", "oracle-det-w"
    )
    assert code == EXIT_BUDGET
    assert "cap" in err
    code, _, _ = run(
        capsys, "gen", "--p", "1", "--n", "10", "--method", "oracle-per-h"
    )
    assert code == EXIT_BUDGET


def test_gen_usage_errors(capsys):
    assert run(capsys, "gen", "--p", "0", "--n", "3")[0] == EXIT_USAGE
    assert run(capsys, "gen", "--p", "1", "--n", "-2")[0] == EXIT_USAGE
    assert run(capsys, "gen", "--p", "1", "--n", "3", "--method", "nope")[0] == EXIT_USAGE
    assert run(capsys, "gen", "--p", "1", "--n", "0", "--method", "det-w")[0] == EXIT_USAGE


# --- family -----------------------------------------------------------------


def test_family_pell_numbers(capsys):
    code, out, _ = run(capsys, "family", "--name", "pell-numbers", "--n", "5")
    assert code == EXIT_OK
    assert out.strip() == "29"


def test_family_boundary(capsys):
    code, out, _ = run(capsys, "family", "--name", "fibonacci-numbers", "--n", "1")
    assert code == EXIT_OK
    assert out.strip() == "1"


def test_family_chebyshev(capsys):
    code, out, _ = run(capsys, "family", "--name", "chebyshev-U", "--n", "2")
    assert code == EXIT_OK
    assert out.strip() == "4*x^2 - 1"


def test_family_with_p(capsys):
    code, out, _ = run(
        capsys, "family", "--name", "fibonacci-p-numbers", "--n", "5", "--p", "3"
    )
    assert code == EXIT_OK
    assert out.strip() == "2"


def test_family_unknown_lists_names(capsys):
    code, _, err = run(capsys, "family", "--name", "lucas", "--n", "3")
    assert code == EXIT_USAGE
    assert "pell-numbers" in err


def test_family_missing_p(capsys):
    code, _, err = run(capsys, "family", "--name", "pell-p-poly", "--n", "3")
    assert code == EXIT_USAGE


# --- check --------------------------------------------------------------------


def test_check_small_grid(capsys):
    code, out, _ = run(capsys, "check", "--p-max", "2", "--n-max", "6")
    assert code == EXIT_OK
    assert out.strip() == "12 checks, 12 passed"


def test_check_single(capsys):
    code, out, _ = run(capsys, "check", "--p-max", "1", "--n-max", "1")
    assert code == EXIT_OK
    assert out.strip() == "1 check, 1 passed"


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


def test_check_usage(capsys):
    assert run(capsys, "check", "--p-max", "0", "--n-max", "3")[0] == EXIT_USAGE


# --- error boundary -------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--p", "0", "--n", "3", "--method", "per-k"],
        ["gen", "--p", "2", "--n", "0", "--method", "oracle-det-w"],
        ["family", "--name", "pell-p-poly", "--n", "3", "--p", "0"],
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
    monkeypatch.setattr(cli, "cross_check", unreachable)
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


def test_matrix_print(capsys):
    code, out, _ = run(capsys, "matrix", "--kind", "w", "--p", "4", "--order", "5")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "[x, i, 0, 0, 0]"
    assert lines[4] == "[y, 0, 0, 0, x]"


def test_matrix_h(capsys):
    code, out, _ = run(capsys, "matrix", "--kind", "h", "--p", "3", "--order", "5")
    assert code == EXIT_OK
    assert "[-i*y, 0, 0, x, -i]" in out


def test_matrix_usage(capsys):
    assert run(capsys, "matrix", "--kind", "z", "--p", "1", "--order", "2")[0] == EXIT_USAGE
    assert run(capsys, "matrix", "--kind", "w", "--p", "0", "--order", "2")[0] == EXIT_USAGE
