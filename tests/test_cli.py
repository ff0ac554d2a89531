import contextlib
import hashlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import textwrap

import pytest

from sblq.core import datum_to_dict
from sblq.fixtures import build_shipped, shipped_fixture_dict


def run_cli(*argv, stdin=None):
    return subprocess.run([sys.executable, "-m", "sblq.cli", *argv],
                          capture_output=True, text=True, input=stdin, timeout=120)


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


@pytest.mark.parametrize("dim_H, dims", [(-1, [0, 0, 0, 0]), (1.5, [1, 1, 1, 1]),
                                         (True, [1, 1, 1, 1])])
def test_bad_dimensions_exit_one(dim_H, dims):
    blob = json.dumps({"dim_H": dim_H, "dims": dims,
                       "pi": [[["1"]] * n for n in dims]})
    proc = run_cli("classify", "-", stdin=blob)
    assert proc.returncode == 1
    assert "datum error: dim_H" in proc.stderr


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


def test_settings_nothing_reads_are_gone(bht_file):
    # validate, fixtures and `rotations eigen` draw nothing at random, and
    # numcheck searches for no certificate; classify and decompose draw their
    # certificates from a fixed stream with a proven budget and print it
    for argv, seeds in ((("validate", bht_file), (None, None)),
                        (("fixtures", "--list"), (None, None)),
                        (("rotations", "eigen", "--max-degree", "2"), (None, None)),
                        (("classify", bht_file), (0, 32)),
                        (("decompose", bht_file), (0, 32))):
        for flag in ("--seed", "--trials"):
            assert run_cli(*argv, flag, "1").returncode == 1, (argv, flag)
        report = json.loads(run_cli(*argv, "--report", "json").stdout)
        assert report["seeds"] == dict(zip(("seed", "trials"), seeds))
    proc = run_cli("numcheck", "delta", bht_file, "--trials", "1")
    assert proc.returncode == 1


def _scrambled_file(tmp_path, tags, name):
    from sblq.core import apply_equivalence, direct_sum_all, module_to_datum, random_equivalence
    from sblq.tables import build
    d = module_to_datum(direct_sum_all([build(t) for t in tags]))
    d = apply_equivalence(d, random_equivalence(d, 4))
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(datum_to_dict(d)))
    return str(path)


def test_certificates_act_on_the_users_datum(tmp_path):
    # a kernel-only summand no longer shrinks the printed matrices: on both
    # routes they have dim_H rows
    from sblq.tables import FamilyTag
    c0 = FamilyTag("C", 0)
    for tags, key, dim_h in (([c0, FamilyTag("C", 1)], "pencil_base_change_phi", 4),
                             ([FamilyTag("Y"), FamilyTag("Z"), c0], "module_isomorphism", 6)):
        path = _scrambled_file(tmp_path, tags, key)
        proc = run_cli("decompose", path, "--certificates", "--report", "json")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["result"]["summands"][0]["display"] == "C_0"
        (matrix,) = report["certificates"].values()
        assert len(matrix) == len(matrix[0]) == dim_h


PENCIL_FIXTURES = ("bht", "coifman_meyer_1", "coifman_meyer_2", "twisted_paraproduct",
                   "j2", "n1_j1", "three_twisted", "triangular_hilbert")


def test_printed_pencil_certificate_checks_from_the_report_alone(tmp_path):
    # phi carries Pi_0 onto [I_a | 0], and Pi_1, Pi_2, Pi_3 onto maps with
    # the row spaces of [0 | I_b], [A2^T | I_b] and [A3^T | I_b]: the pencil
    # read off one solve frames H_1 by C1_2^T
    from fractions import Fraction
    from pathlib import Path
    from sblq.core import datum_from_dict
    from sblq.linalg import Matrix, hstack, inverse, rank, vstack
    from sblq.tables import FamilyTag

    paths = []
    for name in PENCIL_FIXTURES:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(shipped_fixture_dict(name)))
        paths.append(str(path))
    c0 = FamilyTag("C", 0)
    paths.append(_scrambled_file(tmp_path, [c0, c0, FamilyTag("J1", 1), FamilyTag("J2", 1),
                                            FamilyTag("C", 1)], "holder_c0"))
    for path in paths:
        proc = run_cli("classify", path, "--certificates", "--report", "json")
        assert proc.returncode == 0, path
        pencil = json.loads(proc.stdout)["certificates"]["pencil"]
        a, b = pencil["a"], pencil["b"]

        def read(rows, r, c):
            return Matrix(r, c, [Fraction(x) for row in rows for x in row])

        phi_inv = inverse(read(pencil["base_change_phi"], a + b, a + b))
        pi = datum_from_dict(json.loads(Path(path).read_text())).pi
        eye = Matrix.identity(a + b)
        assert pi[0] @ phi_inv == eye.submatrix(range(a), range(a + b))
        wants = [eye.submatrix(range(a, a + b), range(a + b))] + [
            hstack(read(pencil[key], a, b).transpose(), Matrix.identity(b)) for key in ("a2", "a3")]
        for i, want in enumerate(wants, 1):
            got = pi[i] @ phi_inv
            assert rank(got) == rank(want) == rank(vstack(got, want)) == b, (path, i)


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
                                      capture_output=True, text=True, check=True,
                                      timeout=120).stdout)
            for flags in ((), ("-O",))]
    assert [flag for flag, _ in runs] == [0, 1]
    plain, optimized = (out for _, out in runs)
    assert len(plain) == 11 and all(code == 0 for _, code, _ in plain)
    assert optimized == plain


# sha256 of `classify <fixture> --report json`, without and with
# `--certificates`, once "timing" and "command" are removed.  A change to the
# exact core must leave every one of these reports byte for byte as it was;
# only a new certificate draw may move the `--certificates` digests of the
# three non-Hoelder fixtures (young, loomis_whitney, bilinear_holder_pk), and
# only a new frame for the printed pencil and its base change those of the
# eight Hoelder fixtures.
REPORT_SHA256 = {
    "bht": ("ed280c53b91f42fac73f8e2c479a932978bfc34e92c3a630c1ab3a58b2f49bfa",
           "36bd058df85321804ed4b9f094e9ad917ebfdb28f0c7ee991b80f25e8d789bb0"),
    "coifman_meyer_1": ("bdf421f30a55461bf05de2d55ff57d65f5ae95beef7ba4600119a4835ed0f4e7",
                       "5df2ea861d53bdb58d9bfa9a9db8b9a3f3c4242b639d1b9d9b3d47f0485ba1da"),
    "coifman_meyer_2": ("4d02f3c12570cf3f3c68b1c30014179db540476b3069eaab1c65bfa822091d1b",
                       "161c1c43c334fbf2a5ea14de3d2d31ea733b333ba7337a92dc1e9e2c67ae5dd4"),
    "twisted_paraproduct": ("f87d0bf3374c01b917a1cb54352bfc455c96cce5b9d0f75dd7e76722b2718f1f",
                           "33d8eee654d0960cbc2cb05a9307a1599f720ecfa2b423af8e0ffc4c0fc0af00"),
    "j2": ("8d72f6c55215f37bd19c694ebf704784990868038bac91df8008f79166e23193",
          "51f5ee83aace0d84c41d1c06f5a1a376e423b64c75f13011d66b56881d7dc7a4"),
    "n1_j1": ("839967fcba1a01c548c2fb362fa19efbada4f2e5c75b4ce0566ae4ea1bd923b7",
             "15006660a0a30f4368c82e2977d48b50e2485108102945e6aabce56cedad2af8"),
    "three_twisted": ("513cfd66e7ed041ca4fc49dd96dd05e57dd38279a028a3361cdbd5b4ff6ebc07",
                     "31f53a1d7e0230ed562c626ed5df653e39c6ac2bfe151844831ac6d22e289f4b"),
    "triangular_hilbert": ("286bc075d1959ff23c1c9aa967e9b6f36ecbf02154ab5aad2da9b64d581c5f7a",
                          "e03a2af445555f3206e4e9bca0eba85e9db49090d98fa5b039eaad7ebaebb1cd"),
    "young": ("b4504478627be29ceb49f8723d92e7fac77b10a1788bf1138d011ad2157b49a7",
             "d274c38f93f04be9aafd9649e950db10ccaa33a31de57f5206e53ae7d13fa330"),
    "loomis_whitney": ("dee5583a4a8221dc1b05f731fb956cca5a57e3cd33cd8519cbe55ac44468e1b2",
                      "301e701bd613867367dbdea17a25764f72154821bb9c0142fe27c6191f9e5389"),
    "bilinear_holder_pk": ("ea500eb6bfc53777ce6f596ad1141387be65c1e76d9b6786d884b7ec1f272cac",
                          "253783df2419f93b6ff3d6e30c0a9292ef32a9d3b710dec6a6199e0281407642"),
}


# sha256 of `decompose <fixture> --report json`, without and with
# `--certificates`, once "timing" and "command" are removed.  These reports
# print the kernel equality constraint, which the classify reports do not.
DECOMPOSE_SHA256 = {
    "bht": ("4311880b954e1fddfd6ed9712f214e52a60e126add3792b5a70de68d62156fd2",
        "0dcfc568e19c346ac59d8f288c98942ffabc98b87e00f4b113da44c346407b95"),
    "coifman_meyer_1": ("3983eec09c3c69522613ac476e2d459aae2553a445e861fe6ace54d5400ff574",
        "f9676e5ae03261c9d94df078fb17d4bae62d5cfd9d4f5802732aef1b033911bd"),
    "coifman_meyer_2": ("8e6008fffb66513a3cd180c47f04fbe26a7ac8885c23acad4e5d5142d91fa2b0",
        "990aad6affc7c4e1bdefdd608db61345df31c230c91ead68743ace3d009a3dc9"),
    "twisted_paraproduct": ("b050f6a7fe275a33bad1c8c824c9d29a1006ffd9726f860391277f241b4e8323",
        "4c474f2a88a3cd1053877484d7b52bce35f11c7873ba2b602d6d88245111bce7"),
    "j2": ("9bcd19f7aa8a66ef6b89b0891e8ed83a4bbb5c1ba6a671bee5a213cd4cf289f2",
        "b3a2bfa819cead86501a57f243f371827e7dabb658c5526532eb85b1c9665305"),
    "n1_j1": ("67b3b61ff2a6c0d7fd395c82d10ea6134601356eb25ffc6d18531de9a4ac9bf5",
        "020a012c49192a8fbe6cbaa4afd26883234dce4c297c06fea4c9b94a6fc77eae"),
    "three_twisted": ("e5fca27597dbff02e9e18827367d7dbe8730c651e4846be4dde9767193758446",
        "aa8df13add3c4d71bf85e8db650795ea50bf4d232525a566c9daa52e6606a83d"),
    "triangular_hilbert": ("dcf371c902f43c69c0ca9dbee1f025177c5239c705bd9e886c71a35937ff038a",
        "5b37747c783c126b5f365c9958cbbd3fca0d9a0b1d0c00fc045be7d5b639e6d0"),
    "young": ("be741f6e954a5cc1da5995e3b2132abad606fb894a642ba401f44c15df3ef0dc",
        "c574d62e29519a25681d443bc0dbe7a33f3f295d7392459f00e1a38719fd918a"),
    "loomis_whitney": ("93dd932bde8cab9616b06f16b3a810ba4fd70e2ad18f59b0643ec9d0506ed904",
        "bd5f29848f00072d1ed68c84c96e4626405d80cd08d078b13cdd12953937f31e"),
    "bilinear_holder_pk": ("2491127808c58784acb719c7af0e9d9b7e6328d6f55fd8b3cc8ade1df3f81aa6",
        "6f93aef515ffd9dc337514a02609fd291a9456bf7a413a2f5fbfcab6f8dbd82c"),
}

FIXTURE_HASHES = textwrap.dedent("""
    import contextlib, hashlib, io, json, sys
    from importlib import resources
    from sblq.cli import main
    from sblq.fixtures import SHIPPED_FIXTURES

    out = {}
    for command in ("classify", "decompose"):
        for name in SHIPPED_FIXTURES:
            path = str(resources.files("sblq").joinpath(f"fixtures/{name}.json"))
            for extra in ((), ("--certificates",)):
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = main([command, path, "--report", "json", *extra])
                report = json.loads(buf.getvalue())
                del report["timing"], report["command"]
                digest = hashlib.sha256(json.dumps(report, indent=1).encode()).hexdigest()
                out.setdefault(command, {}).setdefault(name, []).append([code, digest])
    print(json.dumps([sys.flags.optimize, out]))
""")


def _check_fixture_pins(*flags):
    from sblq.fixtures import SHIPPED_FIXTURES

    assert sorted(SHIPPED_FIXTURES) == sorted(REPORT_SHA256) == sorted(DECOMPOSE_SHA256)
    proc = subprocess.run([sys.executable, *flags, "-c", FIXTURE_HASHES],
                          capture_output=True, text=True, check=True, timeout=120)
    optimize, out = json.loads(proc.stdout)
    assert optimize == len(flags)
    for command, pins in (("classify", REPORT_SHA256), ("decompose", DECOMPOSE_SHA256)):
        for name in SHIPPED_FIXTURES:
            got = out[command][name]
            assert [code for code, _ in got] == [0, 0], (command, name)
            assert tuple(digest for _, digest in got) == pins[name], (command, name)


def test_fixture_reports_match_snapshot():
    _check_fixture_pins()


def test_fixture_reports_match_snapshot_under_optimize():
    _check_fixture_pins("-O")


# sha256 of three numeric reports (exit code first), once "timing" and
# "command" are removed.  Moving an import of numpy or scipy must not move a
# float in them.
NUMERIC_SHA256 = {
    "eigen": [0, "7c406ecf9c4cf305fa4e2518b623697ee5fd11b41a04b4b4b935ae5cbd3815a1"],
    "mikhlin": [0, "5475b715633b6aedc38db96fe396e6b23a1a4445fbebe9fcf897b41233018f92"],
    "eval": [0, "ae0a0a0167b235ac32b87cc2ea16cf5dd31b9261aeb73a7396b5cab0b520b6d3"],
}

NUMERIC_HASHES = textwrap.dedent("""
    import contextlib, hashlib, io, json
    from importlib import resources
    from sblq.cli import main

    path = str(resources.files("sblq").joinpath("fixtures/bht.json"))
    out = {}
    for key, argv in (("eigen", ["rotations", "eigen", "--dim", "3", "--max-degree", "8"]),
                      ("mikhlin", ["numcheck", "mikhlin", "bump"]),
                      ("eval", ["numcheck", "eval", path, "--quad", "tensor:8"])):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main([*argv, "--report", "json"])
        report = json.loads(buf.getvalue())
        del report["timing"], report["command"]
        out[key] = [code, hashlib.sha256(json.dumps(report, indent=1).encode()).hexdigest()]
    print(json.dumps(out))
""")


def test_numeric_reports_match_snapshot():
    proc = subprocess.run([sys.executable, "-c", NUMERIC_HASHES],
                          capture_output=True, text=True, check=True, timeout=120)
    assert json.loads(proc.stdout) == NUMERIC_SHA256


def test_numcheck_eval_hermite_points_up_to_the_cap(bht_file):
    # the weight is divided out per axis, so 300 points stay finite (the
    # closed form is 0.50027800947380254697); above the cap of the
    # Gauss-Hermite rule the request is refused
    proc = run_cli("numcheck", "eval", bht_file, "--quad", "tensor:300",
                   "--report", "json")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)["result"]
    assert abs(result["value"] - 0.50027800947380255) < 1e-15
    assert 0 <= result["error_estimate"] < 1e-15
    proc = run_cli("numcheck", "eval", bht_file, "--quad", "tensor:400")
    assert proc.returncode == 1
    assert "limited to 370 points" in proc.stderr


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


@pytest.mark.parametrize("target", ["gaussian", "bump", "odd", "extended"])
def test_numcheck_mikhlin_targets_pass_at_the_default_scale(target):
    # every shipped target is normalized to a sampled Mikhlin constant of one
    proc = run_cli("numcheck", "mikhlin", target, "--report", "json")
    assert proc.returncode == 0, proc.stdout
    result = json.loads(proc.stdout)["result"]
    assert result["pass"] is True
    assert abs(result["worst_constant"] - 1.0) < 1e-9


@pytest.mark.parametrize("argv, message", [
    (["numcheck", "eval", "{bht}", "--quad", "mc:0"], "points and samples"),
    (["numcheck", "eval", "{bht}", "--quad", "mc:-5"], "points and samples"),
    (["numcheck", "eval", "{bht}", "--quad", "tensor:0"], "points and samples"),
    (["numcheck", "eval", "{bht}", "--kernel-width", "0"], "kernel width"),
    (["numcheck", "eval", "{bht}", "--kernel-width", "-1"], "kernel width"),
    (["rotations", "eigen", "--max-degree", "-1"], "max degree"),
    (["rotations", "verify", "--band", "-2"], "band"),
    (["numcheck", "mikhlin", "gaussian", "--order", "-1"], "sampled orders"),
    (["numcheck", "delta", "{bht}", "--delta-points", "0"], "delta points"),
    (["numcheck", "delta", "{bht}", "--delta-points", "11"], "delta points"),
    # w^-1 is finite, but the decay form's w^-2 overflows
    (["numcheck", "eval", "{bht}", "--kernel-width", "1e-160"], "overflows"),
])
def test_out_of_range_numeric_requests_exit_one(bht_file, capsys, argv, message):
    from sblq.cli import main
    code = main([arg.format(bht=bht_file) for arg in argv])
    err = capsys.readouterr().err
    assert code == 1
    # the message and nothing else: no warning, no traceback
    assert err.startswith("invalid request:") and message in err
    assert err.count("\n") == 1


def test_smallest_kernel_width_with_finite_decay_form_evaluates(bht_file, capsys):
    from sblq.cli import main
    code = main(["numcheck", "eval", bht_file, "--kernel-width", "1e-154",
                 "--report", "json"])
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    assert math.isfinite(json.loads(out)["result"]["value"])


def test_oversized_tensor_grids_exit_one_without_allocating(tmp_path):
    # the address space is capped at 2 GiB, far below either grid
    # (24^9 and 370^4 nodes), so only a refusal before allocation exits 1
    # with the message alone
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    for name, extra in (("three_twisted", ["delta"]),
                        ("twisted_paraproduct", ["eval", "--quad", "tensor:370"])):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(shipped_fixture_dict(name)))
        proc = subprocess.run([sys.executable, "-m", "sblq.cli", "numcheck", extra[0],
                               str(path), *extra[1:]],
                              capture_output=True, text=True, timeout=60, preexec_fn=cap,
                              env=dict(os.environ, OPENBLAS_NUM_THREADS="1"))
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("invalid request: a quadrature grid of")
        assert "exceeds the limit of 2^24" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("mode", ["eval", "equiv"])
@pytest.mark.parametrize("quad", ["tensor:8", "tensor:24", "mc:20000"])
def test_divergent_forms_exit_one(tmp_path, capsys, mode, quad):
    # every map vanishes on e2: the form has no Gaussian weight in that
    # direction and diverges, so no rule may report a passing value
    path = tmp_path / "divergent.json"
    path.write_text(json.dumps({"dim_H": 2, "dims": [1, 1, 1, 1],
                                "pi": [[["1", "0"]]] * 4}))
    from sblq.cli import main
    code = main(["numcheck", mode, str(path), "--quad", quad])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("invalid request: the form has no nondegenerate Gaussian weight")


@pytest.mark.parametrize("argv, code, message", [
    (["numcheck", "mikhlin", "gaussian", "--kernel-scale", "nan"], 1, "kernel scale"),
    (["numcheck", "mikhlin", "bump", "--kernel-scale=-inf"], 1, "kernel scale"),
    (["numcheck", "eval", "{bht}", "--kernel-width", "inf"], 1, "kernel width"),
    (["numcheck", "eval", "{bht}", "--kernel-width", "nan"], 1, "kernel width"),
    (["numcheck", "eval", "{bht}", "--kernel-width", "1e-320"], 1, "overflows"),
    (["numcheck", "delta", "{bht}", "--kernel-width", "1e-320"], 1, "overflows"),
    # w^-1 = 1e200 is finite, but the decay form's w^-2 overflows
    (["numcheck", "eval", "{bht}", "--kernel-width", "1e-200"], 1, "overflows"),
])
def test_non_finite_numeric_results_fail(bht_file, capsys, argv, code, message):
    from sblq.cli import main
    got = main([arg.format(bht=bht_file) for arg in argv] + ["--report", "json"])
    err = capsys.readouterr().err
    assert got == code
    assert err.startswith("invalid request:") and message in err


@pytest.mark.parametrize("command", ["classify", "decompose", "validate"])
def test_malformed_json_exit_one(command):
    proc = run_cli(command, "-", stdin="{")
    assert proc.returncode == 1
    assert proc.stderr.startswith("not valid JSON:")


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
    # `decompose` reports certified isolating intervals of every regular
    # summand's real roots, with no flag asked for; the flag itself is gone
    fixture = run_cli("fixtures", "N_2", "--alpha", "3/2")
    assert run_cli("decompose", "-", "--refine-real", stdin=fixture.stdout).returncode == 1
    proc = run_cli("decompose", "-", "--report", "json", stdin=fixture.stdout)
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


@pytest.mark.parametrize("name", ["bht", "N_2"])
@pytest.mark.parametrize("alpha", ["1/0", "abc"])
def test_fixture_alpha_that_is_no_rational_exits_one(name, alpha):
    proc = run_cli("fixtures", name, "--alpha", alpha)
    assert proc.returncode == 1
    assert proc.stderr.startswith("cannot build fixture:")
    assert "Traceback" not in proc.stderr and proc.stdout == ""
