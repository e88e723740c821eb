"""`bench/results.csv`, the source of the README's "Measured round growth"
table, is what the command the README names writes, in every column but
the wall time."""

from __future__ import annotations

import csv
from pathlib import Path

from localround.cli import main

ROOT = Path(__file__).resolve().parent.parent
COMMAND = "bench --ns 256,512,1024,2048,4096,8192 --algos mis,luby-rand --seed 7 --out"


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return [row[:-1] for row in csv.reader(fh)]  # the last column is wall_time_s


def test_committed_results_are_what_the_readme_command_writes(tmp_path):
    assert f"localround {COMMAND} bench/results.csv" in (ROOT / "README.md").read_text()
    out = tmp_path / "results.csv"
    assert main([*COMMAND.split(), str(out)]) == 0
    assert _rows(out) == _rows(ROOT / "bench" / "results.csv")
