"""Tiny-size checks of the benchmark itself.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Recorder  # noqa: E402

lr, mods = run.load_package()

TINY = {"mis-gnp": 300, "matching-gnp": 300, "hitting-grouped": 60}

# every module that binds each traced name by import, at this commit
IMPORT_SITES = {
    ("mis", "rounding.round_labels"),
    ("mis", "rounding.evaluate"),
    ("mis", "rounding.greedy_color"),
    ("hitting", "rounding.round_labels"),
    ("hitting", "rounding.evaluate"),
    ("hitting", "rounding.greedy_color"),
    ("mis", "clustering.cluster_all"),
    ("matching", "clustering.cluster_constant"),
    ("clustering", "hitting.grouped_hitting_set"),
    ("clustering", "graphs.two_hop_sets"),
    ("clustering", "graphs.bfs_distances"),
    ("clustering", "graphs.induced_subgraph"),
    ("mis", "seeds.stream"),
    ("matching", "seeds.stream"),
    ("clustering", "seeds.stream"),
    ("mis", "graphs.square_graph"),
    ("mis", "graphs.induced_subgraph"),
    ("mis", "graphs.orient"),
}


def tiny(name: str) -> workloads.Workload:
    return workloads.workload(name, TINY[name])


def digest(lines: list[str]) -> str:
    return next(line for line in lines if line.startswith("digest "))


def test_declared_metrics_match_the_code():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in declared["workloads"]] == list(workloads.SIZES)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(workloads.SIZES))
def test_every_named_metric_is_emitted_with_its_unit(name, trace):
    result, lines = run.run(tiny(name), 1, 0.2, trace, lr, mods)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for metric, unit in expected.items():
        assert isinstance(result["metrics"][metric]["value"], (int, float))
        assert any(line.startswith(f"{metric} ") and f" {unit}" in line for line in lines)
    if trace:
        assert all(" pass" in line for line in lines if line.startswith("bypass-check"))


@pytest.mark.parametrize("name", list(workloads.SIZES))
def test_digest_repeats_on_a_seed_and_differs_across_seeds(name):
    traced = digest(run.run(tiny(name), 1, 0, True, lr, mods)[1])
    plain = digest(run.run(tiny(name), 1, 0, False, lr, mods)[1])
    other = digest(run.run(tiny(name), 2, 0, True, lr, mods)[1])
    assert traced == plain != other


def test_times_are_scaled_by_the_reference_passes_around_them():
    class SlowHost:  # every pass takes twice the reference length
        def run(self):
            return 2 * reference.REF_PASS_S

    stream = run.solve_stream(tiny("hitting-grouped"), 1, 0, None, lr, mods, SlowHost())
    assert stream.times == pytest.approx([t / 2 for t in stream.wall], rel=1e-12)
    assert len(stream.passes) == len(stream.wall) + 1 + 1  # warm-up, then one per solve


def test_recorder_patches_every_import_site_and_restores_them():
    original = mods["mis"].round_labels
    with Recorder() as rec:
        assert IMPORT_SITES <= set(rec.sites)
        assert mods["mis"].round_labels is not original
    assert mods["mis"].round_labels is original


def test_self_times_add_up_to_the_root_span():
    inst, _ = tiny("hitting-grouped").make(lr, 3, 0)
    with Recorder() as rec:
        rec.instance = 0
        mods["hitting"].grouped_hitting_set(inst)
    row = rec.per_instance()[0]
    name, _, parent, _, start, end = rec.spans[0]
    assert (name, parent) == ("hitting.grouped_hitting_set", -1)
    total_self = sum(v for k, v in row.items() if k.endswith(".self_s"))
    assert total_self == pytest.approx(end - start, rel=1e-9)
    assert row["rounding.round_labels.calls"] == row["hitting.steps"] > 0


def test_a_wrong_bypass_prediction_fails_the_traced_run():
    wrong = replace(tiny("hitting-grouped"), runs=("matching",), skips=("rounding",))
    result, lines = run.run(wrong, 1, 0, True, lr, mods)
    assert not result["correct"]
    assert "bypass-check matching runs: FAIL (no spans)" in lines
    assert "bypass-check rounding skipped: FAIL (spans recorded)" in lines


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mis-gnp", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
