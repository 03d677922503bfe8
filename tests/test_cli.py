import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from hayesdist import cli
from hayesdist.cli import run


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_moments_check_worked_example(capsys):
    code, data = run_json(capsys, ["moments-check", "--p", "2", "--ell", "1", "--Q", "1", "--k", "1"])
    assert code == 0 and data["pass"]
    half = [c for c in data["checks"] if c["k"] == 1 and c["j"] == 2 and c["eps"] == 1]
    assert half[0]["moment"] == "1/2"


def test_rs_census_worked_example(capsys):
    code, data = run_json(capsys, ["rs", "--p", "2", "--k", "1", "--ell", "1", "--census"])
    assert code == 0
    census = data["census"]
    assert census["word_totals"] == {"deep-hole": 2, "ordinary": 2, "neither": 0}
    deep = {w["word"] for w in census["words"] if w["kind"] == "deep-hole"}
    assert deep == {"x^2", "x^2 + 1"}


def test_rs_single_word(capsys):
    code, data = run_json(capsys, ["rs", "--p", "2", "--k", "1", "--ell", "1", "--word", "x^2 + x"])
    assert code == 0
    assert data["kind"] == "ordinary"
    assert data["row"]["counts"] == {"0": "1", "2": "1"}


def test_kernels_truncated_binomial(capsys):
    code, data = run_json(
        capsys, ["kernels", "truncated-binomial", "--m", "0", "--r", "5", "--n", "9", "--q", "4"]
    )
    assert code == 0 and data["value"] == "1/1"


def test_kernels_cycle_average_routes_agree(capsys):
    code, data = run_json(
        capsys,
        ["kernels", "cycle-average", "--j", "4", "--a-val", "7/2", "--b-val", "1/2", "--p-char", "3"],
    )
    assert code == 0
    routes = data["routes"]
    assert routes["series"] == routes["closed"] == routes["cycle_types"] == data["value"]


def test_kernels_phi(capsys):
    code, data = run_json(capsys, ["kernels", "phi", "--p", "2", "--Q", "x^2 + x", "--j", "2"])
    assert code == 0 and data["value"] == "1"


def test_exact_dist_artifact(tmp_path, capsys):
    out = tmp_path / "dist.json"
    code = run(["exact-dist", "--p", "2", "--ell", "1", "--Q", "1", "--k", "1", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["version"]
    assert data["config"]["subcommand"] == "exact-dist"
    assert data["distributions"][0]["counts"] == {"1": "2"}


def test_byte_identical_reruns(tmp_path):
    argv = ["bounds-check", "--p", "2", "--ell", "1", "--Q", "1", "--k", "1", "--seed", "5"]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run(argv + ["--out", str(out1)]) == 0
    assert run(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_csv_determinism_and_header(tmp_path):
    argv = ["approx", "--p", "3", "--ell", "1", "--Q", "1", "--k", "2", "--format", "csv"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(argv + ["--out", str(out1)]) == 0
    assert run(argv + ["--out", str(out2)]) == 0
    text = out1.read_text()
    assert out1.read_bytes() == out2.read_bytes()
    lines = text.splitlines()
    assert lines[0].startswith("# {")
    assert lines[1].split(",")[:4] == ["eps", "r", "count", "exact"]


def test_budget_exceeded_exit_code(capsys):
    # sieve at q = 5, n = 5, |G| = 5, d = 2: 8 DP rows of 5 cells, plus one
    # convolution gather of 5 cells
    code, data = run_json(
        capsys,
        ["exact-dist", "--p", "5", "--ell", "1", "--Q", "1", "--k", "1", "--max-enum", "16"],
    )
    assert code == 2
    assert data["error"] == "budget-exceeded"
    assert data["value"] == 45


def test_budget_exceeded_exit_code_enumeration(capsys):
    # the enumeration oracle behind moments-check budgets q^k = 2^9
    code, data = run_json(
        capsys,
        ["moments-check", "--p", "2", "--ell", "1", "--Q", "1", "--k-min", "9", "--k", "9",
         "--max-enum", "16"],
    )
    assert code == 2
    assert data["error"] == "budget-exceeded"
    assert data["value"] == 512


def test_exact_dist_large_k_default_budget(capsys):
    code, data = run_json(capsys, ["exact-dist", "--p", "2", "--a", "6", "--ell", "1", "--Q", "1", "--k", "32"])
    assert code == 0
    assert len(data["distributions"]) == 64
    assert all(sum(map(int, d["counts"].values())) == 64 ** 32 for d in data["distributions"])


def test_rs_census_budgets_only_the_sieve(capsys):
    # 243^3 received words, none of them enumerated
    code, data = run_json(capsys, ["rs", "--p", "3", "--a", "5", "--k", "2", "--ell", "1", "--census"])
    assert code == 0
    census = data["census"]
    assert len(census["classes"]) == 243
    assert sum(census["word_totals"].values()) == 243 ** 3
    assert "words" not in census


@pytest.mark.parametrize(
    "argv,engine,unit",
    [
        (["exact-dist", "--p", "3", "--ell", "1", "--Q", "x", "--k", "1"], "sieve", "dp_cells"),
        (["approx", "--p", "3", "--ell", "1", "--Q", "1", "--k", "2"], "sieve", "dp_cells"),
        (["rs", "--p", "3", "--k", "1", "--ell", "1", "--word", "x^2 + 1"], "sieve", "dp_cells"),
        (["rs", "--p", "3", "--k", "1", "--ell", "1", "--census"], "sieve", "dp_cells"),
        (["moments-check", "--p", "3", "--ell", "1", "--Q", "x", "--k", "2"], "enumeration", "comparisons"),
        (["bounds-check", "--p", "3", "--ell", "1", "--Q", "x", "--k", "1"], "enumeration", "comparisons"),
        (["weil", "--p", "3", "--ell", "1", "--Q", "x"], "characters", "character_sums"),
        (["series-check", "--p", "3", "--ell", "1", "--Q", "x", "--d-max", "3"], "enumeration", "comparisons"),
    ],
)
def test_artifact_names_engine_and_work(capsys, argv, engine, unit):
    code, data = run_json(capsys, argv)
    assert code == 0
    assert data["engine"] == engine
    assert data["work"][unit] > 0


def test_moments_check_work_count(capsys):
    # |G| * q^k * n comparisons summed over k = 0..2: 6 classes, 2 points;
    # factorization pairs C(n, j) q^(k+t+ell-j) for j = k+1..k+2 (t = ell = 1):
    # k = 0: 2*3 + 1*1, k = 1: 1*3 + 0*1, k = 2: none
    code, data = run_json(capsys, ["moments-check", "--p", "3", "--ell", "1", "--Q", "x", "--k", "2"])
    assert code == 0
    assert data["work"] == {"comparisons": 6 * (1 + 3 + 9) * 2, "factorization_pairs": 7 + 3}


def test_bounds_check_remainder_records(capsys, monkeypatch):
    # the pmf bound is computed once per (k, r) and shared by every class,
    # and no remainder check is dropped on the way
    calls = []
    bound = cli.pmf_remainder_bound

    def counted(r, n, q, k, t, ell):
        calls.append((k, r))
        return bound(r, n, q, k, t, ell)

    monkeypatch.setattr(cli, "pmf_remainder_bound", counted)
    code, data = run_json(capsys, ["bounds-check", "--p", "3", "--ell", "1", "--Q", "x", "--k", "2"])
    assert code == 0 and data["pass"]
    # |G| = 6, t = ell = 1: r = 0..k+2 for k = 0..2, j = k+1..k+2; the same
    # enumeration and factorization work as the moments-check case
    assert data["work"] == {"comparisons": 6 * (1 + 3 + 9) * 2, "factorization_pairs": 7 + 3}
    assert calls == [(k, r) for k in range(3) for r in range(k + 3)]
    names = [c["name"] for c in data["checks"]]
    pmf = [name for name in names if name.startswith("pmf remainder ")]
    assert len(pmf) == 6 * (3 + 4 + 5)
    assert pmf == [
        f"pmf remainder k={k} eps={eps} r={r}" for k in range(3) for eps in range(6) for r in range(k + 3)
    ]
    assert [name for name in names if name.startswith("factorization remainder ")] == [
        f"factorization remainder k={k} j={j}" for k in range(3) for j in (k + 1, k + 2)
    ]
    # remainder hypotheses not met (ell = 0): no enumeration, no factorization
    code, data = run_json(capsys, ["bounds-check", "--p", "3", "--ell", "0", "--Q", "x", "--k", "2"])
    assert code == 0
    assert data["work"] == {"comparisons": 0, "factorization_pairs": 0}


def test_truncated_binomial_verdicts_match_fraction_form():
    # every (n, q, r, m) cell of the integer-form floor and proximity verdicts
    # against the same inequality on the Fraction mu_m(r) = sum_{j<=m} (-1)^j C(n-r, j) q^-j,
    # including floor cells with n - r > q, which the suite skips
    cells = 0
    floor_false = 0
    expected = iter(
        (n, q, r, m)
        for n in range(13) for q in range(2, 10) for r in range(n + 1) for m in range(13)
    )
    mu = None
    for n, q, r, m, floor, close in cli.truncated_binomial_verdicts():
        assert (n, q, r, m) == next(expected)
        N = n - r
        mu = Fraction(1) if m == 0 else mu + Fraction((-1) ** m * math.comb(N, m), q ** m)
        if m == 0:
            assert floor is None
        else:
            assert floor == (mu >= Fraction(q - N, q)), (n, q, r, m)
            floor_false += not floor
        target = Fraction(q - 1, q) ** N
        assert close == (abs(mu - target) <= Fraction(math.comb(N, m + 1), q ** (m + 1))), (n, q, r, m)
        cells += 1
    assert cells == 9464
    assert floor_false > 0  # the Fraction-form floor fails on some n - r > q cells


def test_weil_and_series_work_counts(capsys):
    # |G| = 3 * 2; weil: 5 nontrivial characters, coefficients j = 0..ell+t+2 = 4,
    # class counts of degrees 0..4; series-check --d-max 3: degrees 0..3 counted
    # and classified, oracle at k = 0, 1 on n = 2 points, factorization pairs
    # as in the moments-check case
    code, data = run_json(capsys, ["weil", "--p", "3", "--ell", "1", "--Q", "x"])
    assert code == 0
    assert data["work"] == {"classes": 6, "monic_enumerated": 1 + 3 + 9 + 27 + 81, "character_sums": 5 * 5}
    code, data = run_json(capsys, ["series-check", "--p", "3", "--ell", "1", "--Q", "x", "--d-max", "3"])
    assert code == 0
    assert data["work"] == {
        "classes": 6, "monic_enumerated": 40, "polynomials_checked": 40, "comparisons": 6 * (1 + 3) * 2,
        "factorization_pairs": 7 + 3,
    }


def test_series_check_counts_factorization_pairs(capsys):
    # Q = x^2 + 1 has no root in GF(3), so n = 3; d-max 4 = t + ell leaves
    # k = 0 alone: C(3, j) * 3^(4 - j) pairs for j = 1..4
    code, data = run_json(capsys, ["series-check", "--p", "3", "--ell", "2", "--Q", "x^2 + 1", "--d-max", "4"])
    assert code == 0 and data["pass"]
    assert data["work"]["factorization_pairs"] == 3 * 27 + 3 * 9 + 1 * 3 == 111


def test_csv_header_carries_engine(capsys):
    code = run(["approx", "--p", "3", "--ell", "1", "--Q", "1", "--k", "2", "--format", "csv"])
    header = json.loads(capsys.readouterr().out.splitlines()[0][2:])
    assert code == 0
    assert header["engine"] == "sieve" and set(header["work"]) == {"dp_cells", "convolution_cells"}
    assert "table" not in header


def _weil_bound_violated(monkeypatch):
    monkeypatch.setattr("hayesdist.chars.weil_bound", lambda j, t, ell, q: -1.0)


def _decomposition_lift_missing(monkeypatch):
    monkeypatch.setattr("hayesdist.hayes._orders_mod", lambda ladders, member: np.zeros(len(member), dtype=int))


def _class_count_mismatch(monkeypatch):
    from hayesdist.hayes import phi

    monkeypatch.setattr("hayesdist.hayes.phi", lambda j, Q: phi(j, Q) + 1)


@pytest.mark.parametrize(
    "corrupt,error,exc_type",
    [
        (_weil_bound_violated, "arithmetic-check", "ArithmeticError"),
        (_decomposition_lift_missing, "internal", "RuntimeError"),
        (_class_count_mismatch, "internal", "RuntimeError"),
    ],
)
def test_internal_errors_become_records(capsys, monkeypatch, corrupt, error, exc_type):
    corrupt(monkeypatch)
    code, data = run_json(capsys, ["weil", "--p", "3", "--ell", "1", "--Q", "x"])
    assert code == 1
    assert data["error"] == error and data["type"] == exc_type
    assert data["message"]


def test_weil_refuses_before_the_character_table(capsys, monkeypatch):
    def table_built(group):
        raise AssertionError("character table built on a refused run")

    monkeypatch.setattr("hayesdist.cli.character_table", table_built)
    code, data = run_json(capsys, ["weil", "--p", "3", "--ell", "1", "--Q", "x", "--max-enum", "10"])
    assert code == 2
    assert data == {"budget": 10, "error": "budget-exceeded", "value": 3 ** 4, "what": "L-polynomial enumeration q^j"}


class _ClosedPipe:
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


def test_broken_pipe_is_a_record(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    code = run(["rs", "--p", "3", "--k", "2", "--ell", "1", "--census"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == '{"error": "broken-pipe"}\n'


def test_broken_pipe_in_a_real_pipe():
    # a pipe whose read end is closed before the child writes: no traceback,
    # no message from the interpreter's last flush, only the record
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "hayesdist.cli", "rs", "--p", "3", "--k", "2", "--ell", "1", "--census"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b'{"error": "broken-pipe"}\n'


def test_validation_failure_exit_code(capsys):
    code, data = run_json(capsys, ["exact-dist", "--p", "3", "--ell", "1", "--Q", "2*x", "--k", "1"])
    assert code == 1
    assert data["error"] == "validation"


def test_weil_diagnostics(capsys):
    code, data = run_json(capsys, ["weil", "--p", "3", "--ell", "1", "--Q", "x"])
    assert code == 0 and data["pass"]
    nontrivial = [c for c in data["characters"] if "coeffs" in c]
    assert len(nontrivial) == 5
    assert all(c["coeffs"][0]["re"] == pytest.approx(1) for c in nontrivial)


def test_bounds_check_passes(capsys):
    code, data = run_json(capsys, ["bounds-check", "--p", "3", "--ell", "1", "--Q", "x", "--k", "2"])
    assert code == 0 and data["pass"]


def test_series_check(capsys):
    code, data = run_json(capsys, ["series-check", "--p", "2", "--ell", "1", "--Q", "x", "--d-max", "5"])
    assert code == 0 and data["pass"]


def test_regimes_table(capsys):
    code, data = run_json(
        capsys, ["regimes", "--p", "2", "--a", "4", "--ell", "1", "--k-list", "2,4", "--delta0", "0.05"]
    )
    assert code == 0
    rows = data["table"]
    assert [row["k"] for row in rows] == [2, 4]
    assert all(row["gamma"] == 0.0 for row in rows)  # t + ell - 1 = 0
