"""The benchmark's behaviour digests, pinned.

perfbench hashes what the first instances of a workload output (the
solution, the ledger total and the claim counts), so a change that keeps
every report byte-identical keeps these digests.  This runs its traced
loop at seed 21 with no timed instance beyond the digest's, at the
benchmark's sizes, and checks that every layer the workload should run
ran and every layer it should skip did not.  It only imports perfbench.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import run  # noqa: E402
import workloads  # noqa: E402

DIGESTS = {
    "mis-gnp": "eae0e08962121a6735dbd0091160d410d2b183d3bb60ffdfed1d1ac0fb3fa299",
    "matching-gnp": "f218870843cb0bf95fac2104f1f1c60dd46c6f144437e9fb369d7f2b6b2d846a",
    "hitting-grouped": "64d3dac804349232f7acdfbf44ea99370edb47a1544a7a5db70a064a542e8d2b",
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_traced_run_keeps_its_digest(name):
    lr, mods = run.load_package()
    result, lines = run.run(workloads.workload(name), 21, 0, True, lr, mods)
    assert f"digest sha256:{DIGESTS[name]} (instances 0-2)" in lines
    checks = [line for line in lines if line.startswith("bypass-check")]
    assert checks and all(line.endswith(": pass") for line in checks), checks
    assert result["correct"] and result["failed"] == 0
