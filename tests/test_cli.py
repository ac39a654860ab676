"""Command-line interface: output formats, schema conformance, exit codes.

Every JSON payload the tool can emit is validated against the shipped
schema; numbers are cross-checked against the library calls the commands
wrap; exit codes follow the documented contract (0 success, 1 failed
verification or golden mismatch, 2 usage or domain errors).
"""

import csv
import io
import json
from importlib import resources

import jsonschema
import pytest

from immom import cli
from immom.cli import main, rational_payload, report
from immom.moments import (
    LEADING_LIMIT,
    SECOND_MOMENT_LIMIT,
    leading_coefficient,
    mean,
    second_moment,
)
from immom.partitions import Partition
from immom.ratfun import RationalFunction as R


def load_schema():
    text = resources.files("immom.data").joinpath("report.schema.v1.json").read_text()
    return json.loads(text)


SCHEMA = load_schema()


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    return code, payload


# ---------------------------------------------------------------------------
# formula commands


def test_mean_text(capsys):
    code, out, err = run(capsys, "mean", "2,1")
    assert code == 0
    assert "6 / (d (d^2 - 1))" in out


def test_mean_json_symbolic_and_evaluated(capsys):
    code, payload = run_json(capsys, "mean", "2,1")
    assert code == 0
    assert payload["kind"] == "mean"
    assert payload["lambda"] == [2, 1]
    assert payload["rational"]["machine"] == "6 / ((d - 1)*d*(d + 1))"
    assert "value" not in payload

    code, payload = run_json(capsys, "mean", "2,1", "--d", "3")
    assert code == 0
    assert payload["value"] == "1/4"


def test_second_moment_json(capsys):
    code, payload = run_json(capsys, "second-moment", "2")
    assert code == 0
    assert payload["kind"] == "second_moment"
    assert payload["rational"]["machine"] == second_moment((2,)).to_machine()
    assert payload["wall_time_s"] >= 0
    assert "warnings" not in payload


def test_second_moment_regime_warning(capsys):
    # evaluation below twice the block size is flagged as a continuation
    code, payload = run_json(capsys, "second-moment", "2", "--d", "3")
    assert code == 0
    assert len(payload["warnings"]) == 1
    assert "continuation" in payload["warnings"][0]

    code, payload = run_json(capsys, "second-moment", "2", "--d", "4")
    assert code == 0
    assert "warnings" not in payload


def test_leading_json(capsys):
    code, payload = run_json(capsys, "leading", "3,2")
    assert code == 0
    assert payload["kind"] == "leading_coefficient"
    assert payload["integer"] == 94560
    assert payload["integer"] == leading_coefficient((3, 2))


def test_det_moment_json(capsys):
    code, payload = run_json(capsys, "det-moment", "2", "--power", "4")
    assert code == 0
    assert payload["kind"] == "determinant_moment"
    assert payload["power"] == 4
    assert payload["rational"]["machine"] == "12 / ((d - 1)*d^2*(d + 1))"


def test_perm_conjecture_json(capsys):
    code, payload = run_json(capsys, "perm-conjecture", "3", "--d", "8")
    assert code == 0
    assert payload["kind"] == "permanent_fourth_conjecture"
    assert payload["power"] == 4
    assert "warnings" not in payload  # d = 8 >= 2n


@pytest.mark.parametrize("n", ["-1", "0"])
def test_perm_conjecture_rejects_n_below_one(capsys, n):
    code, out, err = run(capsys, "perm-conjecture", n)
    assert code == 2
    assert out == "" and err == "error: need n >= 1\n"


def test_second_moment_of_the_empty_shape(capsys):
    code, out, err = run(capsys, "second-moment", "-", "--d", "3")
    assert code == 0 and err == ""
    assert out.startswith("E|Imm^(-) M|^4 = 1\nat d = 3: 1/1\n")


@pytest.mark.parametrize("argv, kind, extra", [
    (("mean", "-"), "mean", {}),
    (("second-moment", "-", "--d", "3"), "second_moment", {"value": "1/1"}),
    (("leading", "-"), "leading_coefficient", {"integer": 1}),
    (("sample", "-", "--d", "3", "--samples", "100", "--workers", "1"),
     "estimate", {"estimate": 1.0, "stderr": 0.0}),
])
def test_empty_shape_json_validates(capsys, argv, kind, extra):
    code, payload = run_json(capsys, *argv)
    assert code == 0
    assert payload["kind"] == kind
    assert payload["lambda"] == [] and payload["n"] == 0
    assert extra.items() <= payload.items()


def test_wg_json(capsys):
    code, payload = run_json(capsys, "wg", "2,1")
    assert code == 0
    assert payload["kind"] == "weingarten"
    assert payload["rational"]["machine"] == (
        "-1 / ((d - 2)*(d - 1)*(d + 1)*(d + 2))"
    )


# ---------------------------------------------------------------------------
# dominance


def test_dominance_json(capsys):
    code, payload = run_json(capsys, "dominance", "4")
    assert code == 0
    assert payload["kind"] == "dominance"
    assert payload["d_values"] == list(range(4, 15))
    assert payload["pairs_checked"] > 0
    assert payload["violations"] == []
    assert payload["ok"] is True


def test_dominance_single_d(capsys):
    code, payload = run_json(capsys, "dominance", "3", "--d", "5")
    assert code == 0
    assert payload["d_values"] == [5]


# ---------------------------------------------------------------------------
# sampling


def test_sample_single_point_json(capsys):
    code, payload = run_json(
        capsys, "sample", "2,1", "--d", "5", "--samples", "2000",
        "--seed", "7", "--workers", "1",
    )
    assert code == 0
    assert payload["kind"] == "estimate"
    assert payload["d"] == 5 and payload["samples"] == 2000
    # reproducible bit for bit
    code2, payload2 = run_json(
        capsys, "sample", "2,1", "--d", "5", "--samples", "2000",
        "--seed", "7", "--workers", "1",
    )
    assert payload2["estimate"] == payload["estimate"]
    assert payload2["stderr"] == payload["stderr"]


def test_sample_scan_json_and_csv(capsys):
    args = (
        "sample", "2", "--d", "3:6", "--samples", "1000",
        "--seed", "3", "--workers", "1",
    )
    code, payload = run_json(capsys, *args)
    assert code == 0
    assert payload["kind"] == "scan"
    assert [r["d"] for r in payload["rows"]] == [3, 4, 5, 6]

    code, out, err = run(capsys, *args, "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 4
    assert list(rows[0]) == [
        "lambda", "n", "d", "power", "samples", "seed", "estimate", "stderr",
    ]
    assert rows[0]["lambda"] == "2"
    assert [float(r["estimate"]) for r in rows] == [
        r2["estimate"] for r2 in payload["rows"]
    ]


def test_sample_default_samples_by_power(capsys):
    code, payload = run_json(
        capsys, "sample", "1", "--d", "2", "--workers", "1",
    )
    assert payload["samples"] == 10**4
    # power 4 default would be 10^5; keep runtime tiny by overriding,
    # and check the power is carried through instead
    code, payload = run_json(
        capsys, "sample", "1", "--d", "2", "--power", "4",
        "--samples", "500", "--workers", "1",
    )
    assert payload["power"] == 4 and payload["samples"] == 500


# ---------------------------------------------------------------------------
# verify


def test_verify_passes_and_validates(capsys):
    code, payload = run_json(
        capsys, "verify", "2,1", "--d", "3:6", "--samples", "2000",
        "--seed", "11", "--workers", "1",
    )
    assert code == 0
    assert payload["kind"] == "verify"
    assert payload["ok"] is True
    assert payload["ok_fraction"] == 1.0
    for row in payload["rows"]:
        lam_mean = mean((2, 1)).evaluate(row["d"])
        assert row["exact"] == f"{lam_mean.numerator}/{lam_mean.denominator}"
        assert row["ok"] is True


def test_verify_fourth_moment_point(capsys):
    code, payload = run_json(
        capsys, "verify", "2", "--d", "4", "--power", "4",
        "--samples", "20000", "--seed", "5", "--workers", "1",
    )
    assert code == 0
    assert payload["ok"] is True


def test_verify_deterministic_point_uses_absolute_floor(capsys):
    # |det| of a 1x1 block of a 1-dimensional unitary is identically 1:
    # stderr collapses and the absolute floor must accept the point
    code, payload = run_json(
        capsys, "verify", "1", "--d", "1", "--samples", "100",
        "--seed", "0", "--workers", "1",
    )
    assert code == 0
    assert payload["rows"][0]["ok"] is True


def test_verify_failure_exit_code(capsys):
    # an absurd threshold forces z-failures at every point: honest exit 1
    code, out, err = run(
        capsys, "verify", "2", "--d", "3:12", "--samples", "1000",
        "--seed", "1", "--threshold", "0.0001", "--workers", "1",
    )
    assert code == 1
    assert "FAIL" in out


def test_verify_csv(capsys):
    code, out, err = run(
        capsys, "verify", "1,1", "--d", "2:4", "--samples", "1000",
        "--seed", "2", "--workers", "1", "--format", "csv",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["d"] for r in rows] == ["2", "3", "4"]
    assert all(r["ok"] == "1" for r in rows)


# ---------------------------------------------------------------------------
# golden tables


def test_table1_small_n(capsys):
    code, payload = run_json(capsys, "table1", "--max-n", "3")
    assert code == 0
    assert payload["kind"] == "table1"
    assert payload["ok"] is True
    # single-column shapes are absent by design: they are determinant
    # moments with their own closed form
    lams = [tuple(r["lambda"]) for r in payload["rows"]]
    assert lams == [(2,), (3,), (2, 1)]
    for row in payload["rows"]:
        assert row["mean_ok"] and row["fourth_ok"]
        assert row["fourth_erratum"] is False


def test_table1_csv(capsys):
    code, out, err = run(capsys, "table1", "--max-n", "2", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert list(rows[0]) == [
        "lambda", "mean_ok", "fourth_ok", "fourth_erratum", "mean", "fourth",
    ]
    assert all(r["mean_ok"] == "1" and r["fourth_ok"] == "1" for r in rows)


def test_table2_json(capsys):
    code, payload = run_json(capsys, "table2", "--max-n", "5")
    assert code == 0
    assert payload["kind"] == "table2"
    assert payload["ok"] is True
    by_lam = {tuple(r["lambda"]): r["j"] for r in payload["rows"]}
    assert by_lam[(1,)] == 2
    assert by_lam[(3, 2)] == 94560
    for r in payload["rows"]:
        assert r["ok"] is True
        assert r["j"] == r["expected"]


def test_table2_csv(capsys):
    code, out, err = run(capsys, "table2", "--max-n", "3", "--format", "csv")
    assert code == 0
    assert out.splitlines() == [
        "lambda,j,expected,ok",
        "1,2,2,1",
        "2,12,12,1",
        "3,144,144,1",
        '"2,1",180,180,1',
    ]


# ---------------------------------------------------------------------------
# output plumbing


def test_rational_payload_round_trips():
    f = mean((2, 1))
    p = rational_payload(f)
    assert p["prefactor"] == 6
    assert p["denominator_factors"] == [[-1, 1], [0, 1], [1, 1]]
    rebuilt = R.ratio(
        tuple(p["numerator_coeffs"]),
        {off: m for off, m in p["denominator_factors"]},
        den_scalar=p["denominator_scalar"],
    ) * p["prefactor"]
    assert rebuilt == f


def test_report_shapes():
    rep = report("mean", lam=Partition((2, 1)), value=mean((2, 1)), d=3)
    assert rep["schema_version"] == 1
    assert rep["kind"] == "mean"
    assert rep["lambda"] == [2, 1]
    assert rep["n"] == 3
    assert rep["value"] == "1/4"
    assert rep["rational"]["machine"] == "6 / ((d - 1)*d*(d + 1))"
    rep2 = report("leading_coefficient", lam=Partition((1,)), integer=2)
    assert rep2["integer"] == 2


def test_report_keeps_trailing_fields_in_order_and_drops_none():
    rep = report("check", n=4, zeta=1, alpha=None, ok=False, beta=[], mid=None, a=0)
    assert list(rep.items()) == [
        ("schema_version", 1), ("kind", "check"), ("n", 4),
        ("zeta", 1), ("ok", False), ("beta", []), ("a", 0),
    ]
    # d without a value is a plain field after the shape
    assert list(report("estimate", lam=(2,), d=5, power=2)) == [
        "schema_version", "kind", "lambda", "n", "d", "power",
    ]


@pytest.mark.parametrize("argv, keys", [
    (("sample", "2,1", "--d", "5", "--samples", "50", "--workers", "1"),
     ["schema_version", "kind", "lambda", "n", "d", "power", "samples", "seed",
      "workers", "estimate", "stderr"]),
    (("sample", "2,1", "--d", "4:5", "--samples", "50", "--workers", "1"),
     ["schema_version", "kind", "lambda", "n", "power", "samples", "seed",
      "workers", "rows"]),
    (("verify", "2,1", "--d", "4:5", "--samples", "50", "--workers", "1"),
     ["schema_version", "kind", "lambda", "n", "power", "samples", "seed",
      "workers", "threshold", "rows", "ok_fraction", "ok"]),
    (("dominance", "3"),
     ["schema_version", "kind", "n", "d_values", "pairs_checked", "violations", "ok"]),
    (("table2", "--max-n", "2"),
     ["schema_version", "kind", "max_n", "rows", "ok"]),
])
def test_json_payload_key_order(capsys, argv, keys):
    code, payload = run_json(capsys, *argv)
    assert list(payload) == keys


def test_out_file(tmp_path, capsys):
    target = tmp_path / "mean.json"
    code, out, err = run(
        capsys, "mean", "2,1", "--format", "json", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    jsonschema.validate(payload, SCHEMA)
    assert payload["kind"] == "mean"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("immom ")


# ---------------------------------------------------------------------------
# error handling: exit code 2


def test_bad_partition(capsys):
    code, out, err = run(capsys, "mean", "2,x")
    assert code == 2
    assert "error:" in err


def test_pole_evaluation(capsys):
    code, out, err = run(capsys, "mean", "2,1", "--d", "1")
    assert code == 2
    assert "error:" in err


def test_odd_det_power(capsys):
    code, out, err = run(capsys, "det-moment", "2", "--power", "3")
    assert code == 2


def test_too_few_samples(capsys):
    code, out, err = run(
        capsys, "sample", "1", "--d", "2", "--samples", "1", "--workers", "1"
    )
    assert code == 2


def test_backwards_range(capsys):
    code, out, err = run(
        capsys, "sample", "1", "--d", "5:3", "--samples", "100", "--workers", "1"
    )
    assert code == 2
    assert err == "error: empty dimension range '5:3'\n"
    code, out, err = run(capsys, "sample", "1", "--d", "7:", "--samples", "100")
    assert code == 2
    assert err == "error: cannot parse dimension range '7:'; use D or LO:HI\n"


def test_csv_unavailable_for_formula_output(capsys):
    code, out, err = run(capsys, "mean", "2,1", "--format", "csv")
    assert code == 2
    assert "csv" in err.lower()


def test_limit_guard_without_override(capsys):
    code, out, err = run(capsys, "second-moment", "1^6")
    assert code == 2
    assert "limit" in err.lower()


def test_limit_override_help_names_the_guards(capsys):
    with pytest.raises(SystemExit):
        main(["leading", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert (f"fourth moments stop at n = {SECOND_MOMENT_LIMIT}, leading coefficients "
            f"at n = {LEADING_LIMIT}, unless overridden") in help_text


def test_workers_validation(capsys):
    code, out, err = run(capsys, "sample", "1", "--d", "2", "--workers", "0")
    assert code == 2


def test_table1_max_n_range(capsys):
    code, out, err = run(capsys, "table1", "--max-n", "7")
    assert code == 2


def test_wg_pole(capsys):
    # the Weingarten function continues below d = n, so wg reaches the pole,
    # named with the factor text of the display
    code, out, err = run(capsys, "wg", "2,1", "--d", "2")
    assert code == 2
    assert err.strip() == "error: pole at d = 2 (factor d - 2)"


def _must_not_run(*args, **kwargs):
    raise AssertionError("computed before the domain check")


@pytest.mark.parametrize("argv", [
    ("mean", "3,2"),
    ("second-moment", "3,2"),
    ("perm-conjecture", "5"),
    ("det-moment", "5"),
    ("dominance", "5"),
    ("sample", "3,2", "--samples", "2000", "--workers", "1"),
    ("verify", "3,2", "--samples", "2000", "--workers", "1"),
])
def test_dimension_below_block_size_rejected(capsys, monkeypatch, argv):
    # the domain rule is checked before any exact or sampled computation;
    # sample and verify check the smallest d of a range
    rejected = ["2", "3", "4"] + (["4:6"] if argv[0] in ("sample", "verify") else [])
    with monkeypatch.context() as m:
        for name in ("mean", "second_moment", "det_moment", "perm_fourth_conjecture",
                     "mean_dominance_check", "moment_scan"):
            m.setattr(cli, name, _must_not_run)
        for d in rejected:
            code, out, err = run(capsys, *argv, "--d", d)
            assert code == 2, (argv, d)
            assert out == ""
            assert err.strip() == "error: d must be at least n = 5", (argv, d)
    code, out, err = run(capsys, *argv, "--d", "5")
    assert code == 0, argv
