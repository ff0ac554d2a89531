import json
import subprocess
import sys
import textwrap

import pytest

from sblq.core import datum_to_dict
from sblq.fixtures import build_shipped, shipped_fixture_dict


def run_cli(*argv, stdin=None):
    return subprocess.run([sys.executable, "-m", "sblq.cli", *argv],
                          capture_output=True, text=True, input=stdin)


@pytest.fixture(scope="module")
def bht_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "bht.json"
    path.write_text(json.dumps(shipped_fixture_dict("bht")))
    return str(path)


def test_classify_exit_zero_and_status(bht_file):
    proc = run_cli("classify", bht_file, "--report", "json")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["schema_version"] == "1"
    assert report["result"]["status"]["display"] == "Bounded(lacey-thiele)"
    assert report["seeds"]["seed"] == 0
    assert "timing" in report


def test_classify_text_report(bht_file):
    proc = run_cli("classify", bht_file)
    assert proc.returncode == 0
    assert "Bounded(lacey-thiele)" in proc.stdout


def test_stdin_pipe_round_trip():
    fixture = run_cli("fixtures", "bht", "--alpha", "1/3")
    assert fixture.returncode == 0
    proc = run_cli("classify", "-", "--report", "json", stdin=fixture.stdout)
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["result"]["status"]["display"] == "Bounded(lacey-thiele)"
    assert report["result"]["summands"][0]["display"].startswith("N_1")


def test_malformed_rational_exit_one():
    blob = json.dumps({"dim_H": 2, "dims": [1, 1, 1, 1],
                       "pi": [[["0", "1"]], [["1", "0"]],
                              [["1", "1"]], [["1", "1/0"]]]})
    proc = run_cli("classify", "-", stdin=blob)
    assert proc.returncode == 1
    assert "pi[3][0][1]" in proc.stderr


def test_unknown_flag_exit_one(bht_file):
    proc = run_cli("classify", bht_file, "--nonsense")
    assert proc.returncode == 1


def test_unclassified_exit_two(tmp_path):
    from sblq.core import module_to_datum
    from sblq.tables import FamilyTag, build
    d = module_to_datum(build(FamilyTag("IV", 1)))
    path = tmp_path / "iv1.json"
    path.write_text(json.dumps(datum_to_dict(d)))
    proc = run_cli("classify", str(path), "--report", "json")
    assert proc.returncode == 2
    report = json.loads(proc.stdout)
    assert report["result"]["status"]["kind"] == "Unclassified"


def test_validate_subcommand(bht_file):
    proc = run_cli("validate", bht_file, "--report", "json")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["valid"] is True


def test_decompose_certificates(tmp_path):
    path = tmp_path / "tw.json"
    path.write_text(json.dumps(shipped_fixture_dict("twisted_paraproduct")))
    proc = run_cli("decompose", str(path), "--report", "json", "--certificates")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    displays = [s["display"] for s in report["result"]["summands"]]
    assert displays == ["J^(1)_1", "J^(2)_1"]
    assert "pencil_base_change_phi" in report["certificates"]


def test_every_shipped_fixture_classifies():
    for name in ("bht", "young", "three_twisted", "coifman_meyer_2"):
        blob = json.dumps(datum_to_dict(build_shipped(name)))
        proc = run_cli("classify", "-", "--report", "json", stdin=blob)
        assert proc.returncode == 0, name


CERTIFIED_REPORTS = textwrap.dedent("""
    import contextlib, io, json, sys
    from importlib import resources
    from sblq.cli import main
    from sblq.fixtures import SHIPPED_FIXTURES

    out = []
    for name in SHIPPED_FIXTURES:
        path = str(resources.files("sblq").joinpath(f"fixtures/{name}.json"))
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(["classify", path, "--report", "json", "--certificates"])
        report = json.loads(buf.getvalue())
        del report["timing"]
        out.append([name, code, report])
    print(json.dumps([sys.flags.optimize, out]))
""")


def test_certified_reports_identical_under_optimize():
    # every rank decision and certificate check must survive `python -O`
    runs = [json.loads(subprocess.run([sys.executable, *flags, "-c", CERTIFIED_REPORTS],
                                      capture_output=True, text=True, check=True).stdout)
            for flags in ((), ("-O",))]
    assert [flag for flag, _ in runs] == [0, 1]
    plain, optimized = (out for _, out in runs)
    assert len(plain) == 11 and all(code == 0 for _, code, _ in plain)
    assert optimized == plain


def test_rotations_eigen_table():
    proc = run_cli("rotations", "eigen", "--dim", "3", "--max-degree", "6",
                   "--report", "json")
    assert proc.returncode == 0
    rows = json.loads(proc.stdout)["result"]["eigenvalues"]
    assert rows[0]["lambda"] == 1.0
    assert abs(rows[2]["lambda"] + 0.5) < 1e-12
    assert rows[3]["lambda"] == 0.0


def test_rotations_verify_small():
    proc = run_cli("rotations", "verify", "--band", "4", "--grid", "12",
                   "--seed", "1", "--report", "json")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["pass"] is True


def test_numcheck_eval_and_equiv(bht_file):
    proc = run_cli("numcheck", "eval", bht_file, "--quad", "tensor:32",
                   "--report", "json")
    assert proc.returncode == 0
    result = json.loads(proc.stdout)["result"]
    assert result["value"] != 0.0
    proc = run_cli("numcheck", "equiv", bht_file, "--seed", "2",
                   "--quad", "tensor:32", "--report", "json")
    assert proc.returncode == 0


def test_numcheck_mikhlin_pass_and_tolerance_failure():
    proc = run_cli("numcheck", "mikhlin", "gaussian", "--report", "json")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["pass"] is True
    proc = run_cli("numcheck", "mikhlin", "gaussian", "--kernel-scale", "100",
                   "--report", "json")
    assert proc.returncode == 3


def test_numcheck_delta(bht_file):
    proc = run_cli("numcheck", "delta", bht_file, "--report", "json")
    assert proc.returncode == 0
    result = json.loads(proc.stdout)["result"]
    assert result["pass"] is True
    assert result["residuals"][0] > result["residuals"][2]


def test_fixture_list_contains_all_names():
    proc = run_cli("fixtures", "--list", "--report", "json")
    names = json.loads(proc.stdout)["result"]["fixtures"]
    assert "triangular_hilbert" in names and "bht" in names


def test_refine_real_flag(tmp_path):
    # a rootless quadratic regular parameter has no real refinement; a split
    # one gets certified isolating intervals
    fixture = run_cli("fixtures", "N_2", "--alpha", "3/2")
    proc = run_cli("decompose", "-", "--refine-real", "--report", "json",
                   stdin=fixture.stdout)
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    roots = report["result"]["real_roots"]
    (intervals,) = roots.values()
    assert len(intervals) == 1  # double root collapses to one interval
    from fractions import Fraction
    lo, hi = (Fraction(x) for x in intervals[0])
    assert lo <= Fraction(3, 2) <= hi


def test_fixtures_family_spec_errors():
    proc = run_cli("fixtures", "QQ_3")
    assert proc.returncode == 1
