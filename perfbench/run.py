"""Closed-loop benchmark of the localround package.

One caller on one thread solves a stream of distinct seeded instances,
one after another, and verifies each before the next starts.  A fixed
reference kernel runs between any two timed pieces of work, and every
time is reported in reference seconds: scaled by how fast the host ran
that kernel just before and just after (see reference.py).

    python3 perfbench/run.py --workload mis-gnp --seed 1 --seconds 40 --trace 0

With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
alternates untraced and traced instances and reports per-layer self
times and counts from the traced ones, the tracing overhead, and whether
each layer ran or was bypassed as the workload predicts.  The last line
of standard output is one JSON object; the lines before it are the
human-readable report.  The package is imported from the `src`
directory next to this one and nowhere else.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any
from time import perf_counter

import workloads
from reference import REF_PASS_S, Reference, scale
from spans import Recorder, median_of

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# fresh processes timed for setup_s, spread evenly over the run; the
# median is reported
SETUP_SAMPLES = 11
# instances 0..DIGEST_INSTANCES-1 enter the behaviour digest; instance 0
# is the untimed warm-up, and every run solves at least this many
DIGEST_INSTANCES = 3
# a tail percentile needs this many samples beyond it
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "solve_s_p50": "s",
    "solve_s_tail": "s",
    "edges_per_s": "1/s",
    "peak_rss_mb": "MB",
    "verified_frac": "ratio",
}

PER_LAYER = {
    "rounding.round_labels.self_s": "s",
    "rounding.round_labels.calls": "count",
    "rounding.evaluate.self_s": "s",
    "rounding.evaluate.calls": "count",
    "rounding.greedy_color.self_s": "s",
    "rounding.colors": "count",
    "rounding.decision_nodes": "count",
    "rounding.edge_terms": "count",
    "mis.mis.self_s": "s",
    "mis.luby_derandomized_iteration.self_s": "s",
    "mis.build_mis_instance.self_s": "s",
    "mis.intra_round_mis.self_s": "s",
    "mis.good_vertices.self_s": "s",
    "mis.iterations": "count",
    "mis.intra_accept_ratio": "ratio",
    "mis.set_size": "count",
    "clustering.cluster_all.self_s": "s",
    "clustering.cluster_constant.self_s": "s",
    "clustering.delays_to_partition.self_s": "s",
    "clustering.hitting_calls": "count",
    "clustering.active_after_phase0": "count",
    "clustering.num_clusters": "count",
    "hitting.grouped_hitting_set.self_s": "s",
    "hitting.basic_hitting_set.self_s": "s",
    "hitting.split_into_copies.self_s": "s",
    "hitting.conflict_graph.self_s": "s",
    "hitting.steps": "count",
    "hitting.zeta": "count",
    "hitting.guarantee_slack": "ratio",
    "matching.approx_matching.self_s": "s",
    "matching.fractional_matching.self_s": "s",
    "matching.good_edges.self_s": "s",
    "matching.intra_round_matching.self_s": "s",
    "matching.finish_matching.self_s": "s",
    "matching.intra_accept_ratio": "ratio",
    "matching.size_ratio": "ratio",
    "graphs.square_graph.self_s": "s",
    "graphs.induced_subgraph.self_s": "s",
    "graphs.induced_subgraph.calls": "count",
    "graphs.two_hop_sets.self_s": "s",
    "graphs.bfs_distances.self_s": "s",
    "graphs.bfs_distances.calls": "count",
    "graphs.orient.self_s": "s",
    "seeds.stream.calls": "count",
    "seeds.stream.self_s": "s",
    "ledger.rounds_total": "count",
    "ledger.charges": "count",
    "errors.claims_checked": "count",
    "trace.overhead_pct": "%",
}

# (metric, claim counted as an accepted cluster, import site of stream)
ACCEPT_RATIOS = (
    ("mis.intra_accept_ratio", "intra-cluster-window", "mis"),
    ("matching.intra_accept_ratio", "intra-window", "matching"),
)

SETUP_CODE = """
import sys, time
start = time.perf_counter()
import localround, workloads
workloads.workload(sys.argv[1], int(sys.argv[3])).make(localround, int(sys.argv[2]), 0)
print(time.perf_counter() - start)
"""


def load_package():
    """Import localround from ../src, refusing any other copy."""
    if not (SRC / "localround" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC / 'localround'}")
    sys.path.insert(0, str(SRC))
    lr = importlib.import_module("localround")
    if not Path(lr.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: imported localround from {lr.__file__}, not {SRC}")
    # `localround.mis` is the function in the package namespace; the
    # modules come from import_module
    mods = {
        name: importlib.import_module(f"localround.{name}")
        for name in ("mis", "matching", "hitting")
    }
    return lr, mods


def setup_seconds(name: str, seed: int, size: int) -> float:
    """Import plus one input build, in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, name, str(seed), str(size)],
        env=env,
        capture_output=True,
        text=True,
        timeout=30,
        check=True,
    )
    return float(proc.stdout.strip())


def tail(times: list[float]) -> tuple[float, str]:
    """The highest whole percentile (nearest rank) with at least
    TAIL_BEYOND samples above its rank, searched down to p75; the maximum
    when fewer than 4 * TAIL_BEYOND samples leave none.

    Percentiles below p75 are not searched: near 2 * TAIL_BEYOND samples
    they would report the median as the tail, and a run's sample count
    would decide between that and the maximum."""
    ordered = sorted(times)
    n = len(ordered)
    for q in range(99, 74, -1):
        rank = -(-q * n // 100)  # ceil(q * n / 100)
        if n - rank >= TAIL_BEYOND:
            return ordered[rank - 1], f"p{q}"
    return ordered[-1], "max"


@dataclass
class Stream:
    """What one closed loop over a workload's instance stream observed."""

    # reference seconds of verified solves, untraced and traced
    times: list[float] = field(default_factory=list)
    traced_times: list[float] = field(default_factory=list)
    wall: list[float] = field(default_factory=list)  # wall seconds of `times`
    passes: list[float] = field(default_factory=list)  # reference pass seconds
    setup: list[float] = field(default_factory=list)  # reference seconds
    edges: int = 0  # input edges of the verified instances
    attempted: int = 0  # instances after the warm-up
    failures: dict[str, int] = field(default_factory=dict)
    facts: dict[int, dict] = field(default_factory=dict)  # per traced instance
    digest: Any = field(default_factory=hashlib.sha256)

    @property
    def failed(self) -> int:
        return self.attempted - len(self.times) - len(self.traced_times)


def solve_stream(
    workload, seed: int, seconds: float, recorder, lr, mods, reference, setup=None
) -> Stream:
    """Solve and verify instances one after another: an untimed warm-up,
    then until the next solve would end past `seconds`.  A reference pass
    follows every solve and setup sample, so each is timed between two.
    With a recorder, odd instances are traced.  With `setup`, it is
    sampled SETUP_SAMPLES times, evenly spread over the run."""
    failure_types = (lr.ClaimViolation, lr.RetryBudgetExceeded, lr.PreconditionError)
    out = Stream()
    index = 0
    begin = deadline = None

    def timed_pass() -> float:
        out.passes.append(reference.run())
        return out.passes[-1]

    ref = timed_pass()
    last = 0.0  # wall seconds of the latest solve
    # stop before a solve that would likely end past the deadline
    while deadline is None or perf_counter() + last < deadline or index < DIGEST_INSTANCES:
        inp, edges = workload.make(lr, seed, index)
        ledger = lr.RoundLedger()
        traced = recorder is not None and index % 2 == 1
        if traced:
            recorder.instance = index
        gc.collect()
        failure = None
        with recorder if traced else nullcontext():
            start = perf_counter()
            try:
                result = workload.solve(mods, inp, ledger)
            except failure_types as exc:
                failure = exc
            elapsed = last = perf_counter() - start
        before, ref = ref, timed_pass()
        factor = scale(before, ref)
        if failure is None:
            outcome = workload.check(inp, result, ledger)
            names = outcome.failed_checks
            record = [index, outcome.output, outcome.rounds_total, sorted(outcome.claims.items())]
        else:
            names = [f"{type(failure).__name__}:{getattr(failure, 'claim', '')}".rstrip(":")]
            record = [index, "failed", names]
        if index < DIGEST_INSTANCES:
            out.digest.update(json.dumps(record).encode())
        if index == 0:
            out.failures.update({f"warm-up {name}": 1 for name in names})
            begin = perf_counter()
            deadline = begin + seconds
        else:
            out.attempted += 1
            for name in names:
                out.failures[name] = out.failures.get(name, 0) + 1
            if not names:
                (out.traced_times if traced else out.times).append(elapsed * factor)
                if not traced:
                    out.wall.append(elapsed)
                out.edges += edges
                if traced:
                    row = dict(outcome.facts, claims=outcome.claims, scale=factor)
                    row["ledger.rounds_total"] = outcome.rounds_total
                    row["ledger.charges"] = outcome.charges
                    row["errors.claims_checked"] = sum(outcome.claims.values())
                    out.facts[index] = row
        while setup and len(out.setup) < SETUP_SAMPLES and (
            perf_counter() >= begin + len(out.setup) * seconds / SETUP_SAMPLES
        ):
            elapsed = setup()
            before, ref = ref, timed_pass()
            out.setup.append(elapsed * scale(before, ref))
        index += 1
    while setup and len(out.setup) < SETUP_SAMPLES:
        elapsed = setup()
        before, ref = ref, timed_pass()
        out.setup.append(elapsed * scale(before, ref))
    return out


def end_to_end(stream: Stream) -> tuple[dict, dict, list[str]]:
    solve = stream.times or [0.0]
    tail_value, tail_label = tail(solve)
    n = len(stream.times)
    metrics = {
        "setup_s": statistics.median(stream.setup),
        "solve_s_p50": statistics.median(solve),
        "solve_s_tail": tail_value,
        "edges_per_s": stream.edges / sum(solve) if stream.times else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "verified_frac": (stream.attempted - stream.failed) / stream.attempted,
    }
    wall = stream.wall or [0.0]
    notes = {
        "setup_s": f"median of {len(stream.setup)} fresh-process imports plus one input build, "
        "spread over the run",
        "solve_s_p50": f"median of {n} verified instances; wall median {statistics.median(wall):.4f} s",
        "solve_s_tail": f"{tail_label} of {n} verified instances; wall {tail(wall)[0]:.4f} s",
        "edges_per_s": f"{stream.edges} input edges over summed solve time",
        "peak_rss_mb": "ru_maxrss of this process",
        "verified_frac": f"{stream.attempted - stream.failed} of {stream.attempted} attempted",
    }
    lines = [
        "solve times, wall s: " + " ".join(f"{t:.3f}" for t in stream.wall),
        "solve times, reference s: " + " ".join(f"{t:.3f}" for t in stream.times),
        "setup times, reference s: " + " ".join(f"{t:.3f}" for t in stream.setup),
    ]
    return metrics, notes, lines


def per_layer(
    stream: Stream, recorder: Recorder, workload, seed: int
) -> tuple[dict, dict, list[str], bool]:
    rows = recorder.per_instance()
    for index, row in rows.items():
        facts = stream.facts.get(index, {})
        for key in row:
            if key.endswith(".self_s"):
                row[key] *= facts.get("scale", 1.0)
        row.update(facts)
        claims = row.pop("claims", {})
        row["clustering.hitting_calls"] = row.get("hitting.grouped_hitting_set@clustering.calls", 0)
        for metric, claim, site in ACCEPT_RATIOS:
            streams = row.get(f"seeds.stream@{site}.calls", 0)
            row[metric] = claims.get(claim, 0) / streams if streams else 0.0
    verified = [rows[i] for i in sorted(stream.facts)]
    metrics = {name: median_of(verified, name) for name in PER_LAYER}
    plain = statistics.median(stream.times) if stream.times else 0.0
    metrics["trace.overhead_pct"] = (
        100.0 * (statistics.median(stream.traced_times) - plain) / plain
        if plain and stream.traced_times
        else 0.0
    )
    notes = {
        "trace.overhead_pct": f"median traced {len(stream.traced_times)} vs untraced "
        f"{len(stream.times)} instances"
    }

    lines = []
    ok = True
    seen = recorder.layers_seen()
    for layer in workload.runs:
        ok &= layer in seen
        lines.append(f"bypass-check {layer} runs: {'pass' if layer in seen else 'FAIL (no spans)'}")
    for layer in workload.skips:
        ok &= layer not in seen
        lines.append(
            f"bypass-check {layer} skipped: {'FAIL (spans recorded)' if layer in seen else 'pass'}"
        )
    by_name: dict[str, list[str]] = {}
    for site, name in recorder.sites:
        by_name.setdefault(name, []).append(site)
    lines += [f"patched {name} at {' '.join(sorted(sites))}" for name, sites in sorted(by_name.items())]
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload.name}-seed{seed}.json"
    path.write_text(json.dumps(recorder.dump()))
    lines.append(f"spans {len(recorder.spans)} written to {path.relative_to(HERE.parent)}")
    return metrics, notes, lines, ok


def run(workload, seed: int, seconds: float, trace: bool, lr, mods) -> tuple[dict, list[str]]:
    """One benchmark run; returns the result object and the report lines."""
    reference = Reference()
    recorder = Recorder() if trace else None
    setup = None if trace else partial(setup_seconds, workload.name, seed, workload.size)
    stream = solve_stream(workload, seed, seconds, recorder, lr, mods, reference, setup)
    lines = [
        f"workload {workload.name} seed {seed} seconds {seconds:g} trace {int(trace)}",
        f"env nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
        f"numpy={importlib.import_module('numpy').__version__}",
        "loop closed, 1 caller, 1 thread; instance 0 is an untimed warm-up",
        f"reference pass median {statistics.median(stream.passes):.4f} s of "
        f"{len(stream.passes)}; times are reference seconds, wall x {REF_PASS_S} / pass",
        f"digest sha256:{stream.digest.hexdigest()} (instances 0-{DIGEST_INSTANCES - 1})",
        f"failed_frac {stream.failed / stream.attempted:.6g} ({stream.failed}/{stream.attempted})",
    ]
    lines += [f"failure {name} x{count}" for name, count in sorted(stream.failures.items())]
    if trace:
        metrics, notes, more, ok = per_layer(stream, recorder, workload, seed)
        units = PER_LAYER
    else:
        metrics, notes, more = end_to_end(stream)
        ok = True
        units = END_TO_END
    lines += more
    for name, value in metrics.items():
        note = notes.get(name)
        lines.append(f"{name} {value!r} {units[name]}" + (f" ({note})" if note else ""))
    result = {
        "correct": ok and not stream.failures,
        "attempted": stream.attempted,
        "failed": stream.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return result, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    lr, mods = load_package()
    if args.workload not in workloads.SIZES:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.SIZES)}")
    result, lines = run(
        workloads.workload(args.workload), args.seed, args.seconds, bool(args.trace), lr, mods
    )
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
