"""Command-line surface: graph generation, algorithm runs, benchmarks.

Exit codes: 0 success, 2 a checked guarantee failed or a retry budget ran
out (the report names which), 3 usage error (a malformed flag value or
edge list, or a file that cannot be read or written) or, with a report
naming "precondition", an algorithm refused its input.  Every exit 3
prints an `error:` line on stderr.  Run reports are JSON (schema "v1")
and byte-identical for identical config and master seed; an
`--f-override` that is not finite is echoed as its text, since JSON has
no number for it.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import io
import json
import math
import os
import secrets
import sys
import time

import numpy as np

from . import generators, seeds
from .clustering import cluster_all, cluster_constant, mpx_randomized, verify_partition
from .errors import ClaimViolation, ParseError, PreconditionError, RetryBudgetExceeded
from .graphs import Graph, dump_edge_list, load_graph
from .ledger import RoundLedger
from .matching import approx_matching
from .mis import luby_randomized, mis

ALGORITHMS = ("mis", "matching", "cluster-all", "cluster-constant", "mpx", "luby-rand")
RANDOMIZED = ("mpx", "luby-rand")
SEEDLESS = ("cluster-all", "cluster-constant")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage errors exit 3
        self.print_usage(sys.stderr)
        raise SystemExit(self.exit_with(message))

    @staticmethod
    def exit_with(message: str) -> int:
        print(f"error: {message}", file=sys.stderr)
        return 3


def _build_parser() -> _Parser:
    parser = _Parser(prog="localround")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write a generated graph as an edge list")
    gen.add_argument("--kind", required=True, choices=sorted(generators.KINDS))
    gen.add_argument("--n", type=int)
    gen.add_argument("--p", type=float)
    gen.add_argument("--rows", type=int)
    gen.add_argument("--cols", type=int)
    gen.add_argument("--deg", type=int, dest="d")
    gen.add_argument("--count", type=int)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)

    run = sub.add_parser("run", help="run one algorithm and write a report")
    src = run.add_mutually_exclusive_group(required=True)
    src.add_argument("--graph", help="edge-list file")
    src.add_argument("--gen", help="generator spec, e.g. gnp:n=100,p=0.05,seed=7")
    run.add_argument("--algo", required=True, choices=ALGORITHMS)
    run.add_argument("--alpha", type=int)
    run.add_argument("--f-override", type=float)
    run.add_argument("--seed", type=int)
    run.add_argument("--out")

    bench = sub.add_parser("bench", help="sweep sizes and write a CSV")
    bench.add_argument("--ns", required=True, help="comma-separated node counts")
    bench.add_argument("--algos", default="mis", help="comma-separated algorithms")
    bench.add_argument("--avg-deg", type=float, default=8.0)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--out", required=True)
    return parser


class UsageError(ValueError):
    pass


def _call_generator(kind: str, params: dict[str, int | float]) -> Graph:
    """Call generator `kind` with keyword `params`; `seed` is accepted by
    every kind and dropped for the ones that take none."""
    build = generators.KINDS[kind]
    accepted = inspect.signature(build).parameters
    unknown = sorted(set(params) - set(accepted) - {"seed"})
    if unknown:
        raise UsageError(f"generator {kind} takes no parameter {', '.join(unknown)}")
    if "seed" not in accepted:
        params.pop("seed", None)
    missing = [
        key for key, prm in accepted.items()
        if prm.default is prm.empty and key not in params
    ]
    if missing:
        raise UsageError(f"generator {kind} missing parameter {', '.join(missing)}")
    return build(**params)


def parse_gen_spec(spec: str) -> Graph:
    """Build a graph from "kind:key=value,...".  Seed defaults to 0.

    Keys are the generator's parameter names, each given at most once;
    `seed` is accepted by every kind.  gnp's p is a float, every other
    value an integer written as one.
    """
    kind, _, rest = spec.partition(":")
    if kind not in generators.KINDS:
        raise UsageError(f"unknown generator {kind!r}")
    params: dict[str, int | float] = {}
    if rest:
        for item in rest.split(","):
            key, _, value = item.partition("=")
            if not value:
                raise UsageError(f"bad generator parameter {item!r}")
            if key in params:
                raise UsageError(f"generator parameter {key} given twice")
            try:
                params[key] = float(value) if key == "p" else int(value)
            except ValueError:
                wanted = "a number" if key == "p" else "an integer"
                raise UsageError(f"parameter {key} must be {wanted}, got {value!r}") from None
    return _call_generator(kind, params)


def _load_source(args: argparse.Namespace) -> tuple[Graph, dict]:
    if args.graph:
        with open(args.graph, "r", encoding="utf-8") as fh:
            return load_graph(fh.read()), {"graph": args.graph}
    return parse_gen_spec(args.gen), {"gen": args.gen}


def _run_algorithm(g: Graph, args: argparse.Namespace) -> dict:
    ledger = RoundLedger()
    algo = args.algo
    seed = args.seed if args.seed is not None else 0
    if algo in RANDOMIZED and args.seed is None:
        raise UsageError(f"{algo} is randomized; pass --seed")
    # a flag the algorithm never reads is refused, not echoed into the report
    if args.f_override is not None and algo not in ("mis", "matching"):
        raise UsageError(f"algorithm {algo} takes no --f-override")
    if args.alpha is not None and algo == "luby-rand":
        raise UsageError(f"algorithm {algo} takes no --alpha")
    if args.seed is not None and algo in SEEDLESS:
        raise UsageError(f"algorithm {algo} takes no --seed")
    if algo == "mis":
        res = mis(g, args.alpha, seed, args.f_override, ledger)
        body = {
            "is_size": len(res.independent_set),
            "iterations": res.iterations,
            "per_iteration_removed_fraction": res.removed_fractions,
            "checks": res.checks,
        }
    elif algo == "luby-rand":
        res = luby_randomized(g, seed)
        ledger.charge("randomized-iterations", 1, max(1, res.iterations))
        body = {
            "is_size": len(res.independent_set),
            "iterations": res.iterations,
            "per_iteration_removed_fraction": res.removed_fractions,
            "checks": {},
        }
    elif algo == "matching":
        res = approx_matching(g, args.alpha, seed, args.f_override, ledger)
        body = {
            "m_star_bound": res.m_star_lower_bound,
            "frac_value": res.frac_value,
            "good_value": res.good_value,
            "intra_value": res.intra_value,
            "matching_size": len(res.matching),
            "checks": res.checks,
        }
    else:
        alpha = args.alpha if args.alpha is not None else 3
        if algo == "cluster-all":
            part = cluster_all(g, alpha, ledger)
        elif algo == "cluster-constant":
            part = cluster_constant(g, alpha, np.full(g.n, 1.0 / max(1, g.n)), ledger)
        else:
            part = mpx_randomized(g, alpha, seed, ledger)
        report = verify_partition(g, part, alpha, part.meta.get("degree_bound"))
        report["degree_histogram"] = {
            str(k): v for k, v in sorted(report["degree_histogram"].items())
        }
        if not report["ok"]:
            raise ClaimViolation("partition-report", "diameter or degree bound failed")
        body = {"partition": report, "checks": part.meta.get("claims", {})}
    body["rounds"] = ledger.total
    body["ledger"] = ledger.report()
    return body


def _atomic_write(path: str, payload: str) -> None:
    """Write via a fresh temp file next to `path`, then rename it into place.

    The temp name is unique per call, so concurrent writers never share it;
    mode 0o666 under the umask matches what a plain open() would create.
    """
    tmp = f"{path}.{secrets.token_hex(8)}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _json_number(value: float | None) -> float | str | None:
    """`value` as JSON takes it: a float that is not finite, which JSON
    has no number for, as its text ("inf", "-inf" or "nan")."""
    if value is None or math.isfinite(value):
        return value
    return str(value)


def _emit_report(args: argparse.Namespace, source: dict, body: dict, failed: str | None) -> None:
    report = {
        "schema_version": "v1",
        "config": {
            "source": source,
            "algo": args.algo,
            "alpha": args.alpha,
            "f_override": _json_number(args.f_override),
            "seed": args.seed,
            "budget_retries": seeds.RETRIES,
        },
        "result": body,
        "failed_claim": failed,
    }
    payload = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.out:
        _atomic_write(args.out, payload)
    else:
        sys.stdout.write(payload)


def _cmd_run(args: argparse.Namespace) -> int:
    g, source = _load_source(args)
    try:
        body = _run_algorithm(g, args)
    except ClaimViolation as exc:
        _emit_report(args, source, {"error": str(exc)}, exc.claim)
        return 2
    except RetryBudgetExceeded as exc:
        _emit_report(args, source, {"error": str(exc)}, "retry-budget")
        return 2
    except PreconditionError as exc:
        _emit_report(args, source, {"error": str(exc)}, "precondition")
        print(f"error: {exc}", file=sys.stderr)
        return 3
    _emit_report(args, source, body, None)
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    # the generator flags are exactly the namespace entries besides these
    params = {
        key: value
        for key, value in vars(args).items()
        if value is not None and key not in ("command", "kind", "out")
    }
    g = _call_generator(args.kind, params)
    _atomic_write(args.out, dump_edge_list(g))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    sizes = [x for x in args.ns.split(",") if x]
    if not sizes:
        raise UsageError(f"--ns takes at least one node count, got {args.ns!r}")
    try:
        ns = [int(x) for x in sizes]
    except ValueError:
        raise UsageError(f"--ns takes comma-separated integers, got {args.ns!r}") from None
    small = [x for x, n in zip(sizes, ns) if n < 1]
    if small:
        raise UsageError(f"--ns takes node counts of at least 1, got {small[0]!r}")
    algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    if not algos:
        raise UsageError(f"--algos takes at least one algorithm, got {args.algos!r}")
    bad = [a for a in algos if a not in ALGORITHMS]
    if bad:
        raise UsageError(f"--algos takes only {', '.join(ALGORITHMS)}, got {', '.join(bad)}")
    if not 0.0 <= args.avg_deg < math.inf:  # NaN fails too
        raise UsageError(f"--avg-deg must be a finite number at least 0, got {args.avg_deg}")
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["n", "algorithm", "rounds", "quality", "wall_time_s"])
    for n in ns:
        p = min(1.0, args.avg_deg / max(1, n - 1))
        g = generators.gnp(n, p, seed=args.seed + n)
        for algo in algos:
            ns_args = argparse.Namespace(
                algo=algo,
                alpha=None,
                f_override=None,
                seed=None if algo in SEEDLESS else args.seed,
            )
            start = time.perf_counter()
            body = _run_algorithm(g, ns_args)
            wall = time.perf_counter() - start
            quality = body.get("is_size", body.get("matching_size"))
            if quality is None:
                quality = body.get("partition", {}).get("max_cluster_degree")
            writer.writerow([n, algo, body["rounds"], quality, f"{wall:.3f}"])
    _atomic_write(args.out, buf.getvalue())
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 3
    try:
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_bench(args)
    except (UsageError, PreconditionError, ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ClaimViolation, RetryBudgetExceeded) as exc:
        print(f"guarantee failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
