"""Tests of the benchmark itself: its contract, its checks and its trace.

Run from the repository root with `python -m pytest perfbench`.  They run
the benchmark in subprocesses, one pass per workload, so they take a few
minutes.
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path
from time import sleep

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from sblq.randomized import random_case  # noqa: E402
from sblq.tables import FamilyTag, dim_vector  # noqa: E402


def bench(workload, seed, trace, cwd=ROOT, root=ROOT):
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def test_benchmark_json_lists_what_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert tuple(workloads.WORKLOAD_OPS) == run.WORKLOADS


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_no_op_fails_and_every_metric_is_printed(workload):
    report, res = result(bench(workload, 3, 0))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert report["failed_ratio"] == 0.0, report["failures"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == dict(run.END_TO_END)
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_repeat_across_runs(workload):
    first, second = (result(bench(workload, 5, 1))[1] for _ in range(2))
    assert first["failed"] == 0 and second["failed"] == 0
    assert list(first["metrics"]) == [name for name, _ in PER_LAYER]
    counts = {k: v["value"] for k, v in first["metrics"].items()
              if not k.endswith("_s")}
    again = {k: v["value"] for k, v in second["metrics"].items()
             if not k.endswith("_s")}
    assert counts == again
    assert counts["trace.spans"] > 0
    if workload == "small-mix":
        assert counts["decompose.necessary_conditions.calls"] == \
            2 * counts["classify.classify.calls"]
        assert counts["numcheck.quad_points"] > 0
        assert counts["rotations.sph_basis.calls"] > 0
    if workload == "nonholder-ladder":
        assert counts["pencil.kronecker_blocks.calls"] == 0
        assert counts["core.module_isomorphic.trials_used"] > 0
    if workload == "holder-ladder":
        assert counts["decompose.match_nonholder.candidates"] == 0
        assert counts["pencil.kronecker_blocks.calls"] > 0
    if workload != "small-mix":
        assert counts["numcheck.quad_points"] == 0


def test_wrong_expected_answers_count_as_failed():
    right = workloads.fixture_op("bht")
    wrong = workloads.fixture_op("bht", expected=("Bounded", "coifman-meyer", None))
    tags, datum = random_case(7)
    wrong_tags = [FamilyTag("C", 0)] + tags
    ops = [right, wrong, workloads.generated_op("wrong-tags", wrong_tags, datum),
           workloads.generated_op("right-tags", tags, datum)]
    failures = {}
    times, failed = run.run_pass(ops, failures)
    assert len(times) == 4 and failed == 2
    assert set(failures) == {"fixture:bht", "wrong-tags"}


def test_raising_op_counts_as_failed():
    def boom():
        raise ValueError("boom")
    ops = [workloads.Op("raises", boom, lambda out: True)]
    failures = {}
    assert run.run_pass(ops, failures)[1] == 1
    assert "boom" in failures["raises"]


def test_quadrature_disagreement_counts_as_failed():
    agrees = workloads._agrees((0.4, 1e-3))
    assert agrees((0.4005, 1e-3)) and not agrees((0.41, 1e-3))


def test_every_op_gets_a_host_speed():
    ops = [workloads.Op(f"sleep{k}", lambda: sleep(0.01), lambda out: True)
           for k in range(3)]
    speeds = []
    times, failed = run.run_pass(ops, {}, speeds=speeds)
    assert failed == 0 and len(times) == len(speeds) == 3
    assert all(speed > 0 for speed in speeds)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("small-mix", 1, 0, cwd=tmp_path, root=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_inputs_repeat_for_a_seed():
    tags, _ = random_case(3)
    one, again, other = (workloads.scrambled(tags, random.Random(s)) for s in (4, 4, 5))
    assert one == again != other
    rng = random.Random(0)
    for total, shape in workloads.HOLDER_SHAPES.items():
        assert sum(dim_vector(t).total for t in workloads.holder_bag(rng, shape)) == total
    for (case, total), shape in workloads.NONHOLDER_SHAPES.items():
        bag = workloads.nonholder_bag(rng, case, shape)
        assert sum(dim_vector(t).total for t in bag) == total
