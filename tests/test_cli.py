import hashlib
import json
import os

import pytest

import localround.cli
from localround import generators
from localround.cli import UsageError, main, parse_gen_spec
from localround.errors import RetryBudgetExceeded
from localround.graphs import dump_edge_list, load_graph


def run_cli(*args):
    return main(list(args))


def test_gen_path(tmp_path):
    out = tmp_path / "p.edges"
    assert run_cli("gen", "--kind", "path", "--n", "5", "--out", str(out)) == 0
    g = load_graph(out.read_text())
    assert g.m == 4


def test_gen_grid(tmp_path):
    out = tmp_path / "g.edges"
    assert run_cli(
        "gen", "--kind", "grid", "--rows", "3", "--cols", "3", "--out", str(out)
    ) == 0
    assert load_graph(out.read_text()).m == 12


def test_gen_gnp_byte_identical(tmp_path):
    a, b = tmp_path / "a.edges", tmp_path / "b.edges"
    for out in (a, b):
        assert run_cli(
            "gen", "--kind", "gnp", "--n", "100", "--p", "0.05",
            "--seed", "7", "--out", str(out),
        ) == 0
    assert a.read_bytes() == b.read_bytes()


GEN_PARAMS = {
    "gnp": {"n": 40, "p": 0.1, "seed": 3},
    "path": {"n": 6},
    "cycle": {"n": 7},
    "grid": {"rows": 3, "cols": 4},
    "tree": {"n": 15, "seed": 2},
    "regular": {"n": 12, "d": 3, "seed": 5},
    "complete": {"n": 5},
    "disjoint-edges": {"count": 4},
}


@pytest.mark.parametrize("kind", sorted(generators.KINDS))
def test_gen_matches_gen_spec(tmp_path, kind):
    params = GEN_PARAMS[kind]
    flags = [f"--{'deg' if key == 'd' else key}={value}" for key, value in params.items()]
    out = tmp_path / "g.edges"
    assert run_cli("gen", "--kind", kind, *flags, "--out", str(out)) == 0
    spec = f"{kind}:" + ",".join(f"{key}={value}" for key, value in params.items())
    assert out.read_text() == dump_edge_list(parse_gen_spec(spec))


def test_gen_names_the_missing_parameter(tmp_path, capsys):
    assert run_cli("gen", "--kind", "regular", "--n", "10", "--out", str(tmp_path / "g.edges")) == 3
    assert "generator regular missing parameter d" in capsys.readouterr().err


def test_parse_gen_spec_errors():
    with pytest.raises(Exception):
        parse_gen_spec("nope:n=4")
    for spec in ("gnp:n=10,p=0.1,foo=1", "path:n=5,zzz=1"):
        with pytest.raises(UsageError, match="takes no parameter"):
            parse_gen_spec(spec)
        assert run_cli("run", "--gen", spec, "--algo", "mis") == 3
    assert parse_gen_spec("path:n=5,seed=2").m == 4  # seed is accepted everywhere


@pytest.mark.parametrize(
    "spec",
    ["path:n=5.7", "gnp:n=30,p=0.1,seed=1.9", "path:n=inf", "path:n=nan", "gnp:n=30,p=abc"],
)
def test_parse_gen_spec_rejects_non_integer_values(spec):
    with pytest.raises(UsageError, match="must be"):
        parse_gen_spec(spec)
    assert run_cli("run", "--gen", spec, "--algo", "mis") == 3


def test_run_mis_edgeless(tmp_path):
    out = tmp_path / "r.json"
    code = run_cli(
        "run", "--gen", "gnp:n=10,p=0", "--algo", "mis", "--out", str(out)
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["result"]["is_size"] == 10
    assert report["result"]["iterations"] == 0
    assert report["failed_claim"] is None


def test_run_cluster_all_path(tmp_path):
    out = tmp_path / "c.json"
    code = run_cli(
        "run", "--gen", "path:n=100", "--algo", "cluster-all",
        "--alpha", "4", "--out", str(out),
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["result"]["partition"]["max_diameter"] <= 400
    assert report["result"]["partition"]["ok"]


def test_run_matching_all_checks_pass(tmp_path):
    out = tmp_path / "m.json"
    code = run_cli(
        "run", "--gen", "gnp:n=200,p=0.05,seed=3", "--algo", "matching",
        "--seed", "0", "--out", str(out),
    )
    assert code == 0
    report = json.loads(out.read_text())
    checks = report["result"]["checks"]
    for claim in ("good-mass", "intra-loads", "finish-ratio"):
        assert checks[claim] >= 1
    assert report["result"]["matching_size"] >= 1
    assert report["result"]["rounds"] == report["result"]["ledger"]["total"]


def test_run_reports_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert run_cli(
            "run", "--gen", "gnp:n=60,p=0.08,seed=2", "--algo", "mis",
            "--seed", "5", "--out", str(out),
        ) == 0
    assert a.read_bytes() == b.read_bytes()


def test_run_claim_violation_exits_2(tmp_path):
    star = tmp_path / "star.edges"
    star.write_text("".join(f"0 {i}\n" for i in range(1, 7)))
    out = tmp_path / "fail.json"
    code = run_cli(
        "run", "--graph", str(star), "--algo", "matching",
        "--f-override", "2", "--seed", "0", "--out", str(out),
    )
    assert code == 2
    report = json.loads(out.read_text())
    # the tiny degree bound breaks the good-node stage guarantees
    assert report["failed_claim"] in ("good-weight", "good-mass")


def test_randomized_algos_require_seed():
    assert run_cli("run", "--gen", "gnp:n=20,p=0.1", "--algo", "mpx") == 3


def test_usage_errors_exit_3(tmp_path):
    assert run_cli("run", "--algo", "mis") == 3  # missing source
    assert run_cli("gen", "--kind", "gnp", "--out", str(tmp_path / "x")) == 3
    assert run_cli("nonsense") == 3


def test_run_mpx_and_luby(tmp_path):
    out = tmp_path / "x.json"
    assert run_cli(
        "run", "--gen", "gnp:n=50,p=0.08,seed=1", "--algo", "mpx",
        "--alpha", "3", "--seed", "9", "--out", str(out),
    ) == 0
    assert run_cli(
        "run", "--gen", "gnp:n=50,p=0.08,seed=1", "--algo", "luby-rand",
        "--seed", "9", "--out", str(out),
    ) == 0
    report = json.loads(out.read_text())
    assert report["result"]["is_size"] >= 1


def test_bench_rows(tmp_path):
    out = tmp_path / "bench.csv"
    assert run_cli(
        "bench", "--ns", "30,60", "--algos", "mis,luby-rand",
        "--seed", "1", "--out", str(out),
    ) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,algorithm,rounds,quality,wall_time_s"
    assert len(lines) == 5


def test_missing_file_exits_3(tmp_path):
    assert run_cli(
        "run", "--graph", str(tmp_path / "absent.edges"), "--algo", "mis"
    ) == 3


# sha256 of schema-v1 reports.  Refactors keep reports byte-identical; a
# change that alters them on purpose updates these and says why in CHANGES.md.
# Keys are (algo, seed) on DIGEST_GEN, or (algo, seed, gen spec), or (algo,
# seed, gen spec, --f-override).  At n=80 no two estimator terms tie in a way
# their order decides; n=2048 pins that too.
DIGEST_GEN = "gnp:n=80,p=0.06,seed=4"
RECORDED_DIGESTS = {
    ("mis", "3"): "feeb7e2e60da820be96a4d8e53df9928f7ca81fdeb3b97ecea95320d2ec11d96",
    ("luby-rand", "5"): "15c0dd4aabe002974b4a4234d9c7c89bbaa4a9a57fb6fb72286295abb193e268",
    ("matching", "3"): "f7c17e239291ec3b581bc856f23f8d767840482d913d24a146d2236803eecb95",
    ("cluster-all", "0"): "44a075bf4cd584b4291fc335e3bb1f89fc4944e4b15834a4a5a4f4588b466a49",
    ("cluster-constant", "0"): "928a06a167fc211cd4dca7772b091a27e9a8f9aab76d28e4296795227d905c40",
    ("mis", "3", "gnp:n=2048,p=0.004,seed=1"): (
        "0ef43a8f9f07ad2ac82159357605ea61c975b0b459843956be509caf643f0779"
    ),
    ("matching", "3", "gnp:n=2048,p=0.004,seed=1"): (
        "53e30c0b08b1b6085fc53ec8682a7b5b5b17cc58d91448eaf33eea5195e85b6f"
    ),
    # the one pinned path that draws a random number on every iteration
    ("luby-rand", "5", "gnp:n=2048,p=0.004,seed=1"): (
        "07f1f74f001239453352f7cc86b0db4965701269b83efa874834a8a526bb9b12"
    ),
    # the support keeps 7780 of the 8370 edges, and the matching (912) is not
    # the greedy bound's (933)
    ("matching", "3", "gnp:n=2048,p=0.004,seed=1", "15"): (
        "f4c6333c5df530d03192e8c0031a58c57df673e13f8db4ddb522bb7f25058593"
    ),
    # max degree 4 and 3: the fractional doubling runs other round counts
    ("matching", "3", "grid:rows=40,cols=40"): (
        "a6d343f4d70264127ba94460f87ded0dbba7d75d8014e8e7496b9b94f547b1dc"
    ),
    ("matching", "3", "regular:n=1000,d=3,seed=1"): (
        "6ce4a076874233fe603a5e6aaf59b2123fdc8db5032faf2da220b1082f0c89ef"
    ),
}


@pytest.mark.parametrize("key", sorted(RECORDED_DIGESTS), ids="-".join)
def test_run_report_matches_recorded_digest(tmp_path, key):
    algo, seed, *rest = key
    gen = rest[0] if rest else DIGEST_GEN
    override = ["--f-override", rest[1]] if len(rest) > 1 else []
    out = tmp_path / "r.json"
    assert run_cli(
        "run", "--gen", gen, "--algo", algo, "--seed", seed, *override, "--out", str(out)
    ) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == RECORDED_DIGESTS[key]


def test_retry_budget_exit_2_writes_report(tmp_path, monkeypatch):
    def exhausted(*args, **kwargs):
        raise RetryBudgetExceeded("cluster 7 failed its windows 200 times")

    monkeypatch.setattr(localround.cli, "mis", exhausted)
    out = tmp_path / "fail.json"
    code = run_cli(
        "run", "--gen", "gnp:n=20,p=0.2,seed=1", "--algo", "mis", "--out", str(out)
    )
    assert code == 2
    report = json.loads(out.read_text())
    assert report["schema_version"] == "v1"
    assert report["failed_claim"] == "retry-budget"
    assert report["result"] == {"error": "cluster 7 failed its windows 200 times"}


def test_precondition_exit_3_writes_report(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = run_cli(
        "run", "--gen", "gnp:n=80,p=0.06,seed=4", "--algo", "mis",
        "--f-override", "0.5", "--out", str(out),
    )
    assert code == 3
    report = json.loads(out.read_text())
    assert report["schema_version"] == "v1"
    assert report["failed_claim"] == "precondition"
    assert "below the measured cluster degree" in report["result"]["error"]
    assert "below the measured cluster degree" in capsys.readouterr().err


@pytest.mark.parametrize("algo", ["mis", "matching"])
@pytest.mark.parametrize("retries", ["0", "-1"])
def test_retry_budget_below_one_is_a_precondition(tmp_path, capsys, algo, retries):
    # refused on edgeless inputs too, which never reach a floor
    for gen in (DIGEST_GEN, "path:n=1", "gnp:n=6,p=0.0,seed=1"):
        out = tmp_path / "r.json"
        code = run_cli(
            "run", "--gen", gen, "--algo", algo, "--seed", "3",
            "--budget-retries", retries, "--out", str(out),
        )
        assert code == 3, gen
        report = json.loads(out.read_text())
        assert report["failed_claim"] == "precondition"
        assert report["result"] == {"error": f"retry budget {retries} is below 1"}
        assert f"retry budget {retries} is below 1" in capsys.readouterr().err


def test_atomic_write_survives_stale_tmp_dir(tmp_path):
    out = tmp_path / "r.json"
    (tmp_path / "r.json.tmp").mkdir()
    assert run_cli("run", "--gen", "path:n=6", "--algo", "mis", "--out", str(out)) == 0
    assert json.loads(out.read_text())["result"]["is_size"] == 3
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r.json", "r.json.tmp"]
    umask = os.umask(0)
    os.umask(umask)
    assert out.stat().st_mode & 0o777 == 0o666 & ~umask


def test_atomic_write_removes_tmp_on_failure(tmp_path, monkeypatch):
    def broken_replace(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(localround.cli.os, "replace", broken_replace)
    with pytest.raises(OSError, match="rename failed"):
        localround.cli._atomic_write(str(tmp_path / "x.txt"), "payload")
    assert list(tmp_path.iterdir()) == []
