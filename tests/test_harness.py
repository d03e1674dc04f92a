"""Harness pipelines, report determinism, and CLI plumbing."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from locus.cli import build_parser, main
from locus.cohomology import MEMORY_BUDGET_ENV
from locus.harness import (
    Report,
    RunConfig,
    load_bundled,
    resolve_objects,
    run,
)
from locus.locality import LocalityError
from locus.permgroups import GroupError, sylow


def test_report_canonical_bytes_stable():
    r1 = Report("demo", {"b": 1, "a": 2})
    r1.put("x", {"beta": 2, "alpha": 1})
    r2 = Report("demo", {"a": 2, "b": 1})
    r2.put("x", {"alpha": 1, "beta": 2})
    assert r1.canonical_bytes() == r2.canonical_bytes()
    # timings never enter the canonical form
    r1.time("phase")
    assert r1.canonical_bytes() == r2.canonical_bytes()


def test_report_passed_aggregation():
    r = Report("demo", {})
    r.put("good", {"passed": True})
    assert r.passed
    r.put("bad", {"nested": [{"passed": False}]})
    assert not r.passed


def test_resolve_objects_selectors():
    G = load_bundled("a6")
    S = sylow(G, 2)
    allnt = resolve_objects(G, S, 2, "all-nontrivial")
    assert len(allnt) == 9
    cent = resolve_objects(G, S, 2, "centric")
    assert sorted(len(m) for m in cent) == [4, 4, 4, 8]
    sub = resolve_objects(G, S, 2, "subcentric")
    assert len(sub) == 9
    ge4 = resolve_objects(G, S, 2, "min-order:4")
    assert set(ge4) == set(cent)
    with pytest.raises(LocalityError, match="choose from all-nontrivial"):
        resolve_objects(G, S, 2, "everything")


def test_run_group_inspect_report(tmp_path):
    path = tmp_path / "report.json"
    config = RunConfig(pipeline="group-inspect", group="s4", prime=2,
                       report_path=str(path))
    report = run(config)
    assert report.passed
    payload = json.loads(path.read_text())
    assert payload["results"]["order"] == 24
    assert payload["results"]["O_p_order"] == 4
    assert payload["passed"] is True


def test_run_locality_check_small_samples():
    config = RunConfig(pipeline="locality-check", group="s4", samples=500)
    report = run(config)
    assert report.passed
    assert report.data["results"]["carrier_size"] == 24


def test_run_rejects_unknown_pipeline():
    with pytest.raises(ValueError):
        run(RunConfig(pipeline="mystery"))


def test_locality_check_deterministic_bytes():
    cfg = RunConfig(pipeline="locality-check", group="s4", samples=300)
    assert run(cfg).canonical_bytes() == run(cfg).canonical_bytes()


def test_group_inspect_without_group_names_the_problem():
    with pytest.raises(GroupError, match="no group given"):
        run(RunConfig(pipeline="group-inspect"))


def test_unknown_group_lists_bundled_names():
    with pytest.raises(GroupError, match="unknown group 'nosuch'") as info:
        run(RunConfig(pipeline="group-inspect", group="nosuch"))
    for name in ("a6", "d8", "s4", "sl3_4"):
        assert name in str(info.value)


def test_cli_parser_and_exit_code(tmp_path):
    parser = build_parser()
    args = parser.parse_args(["lie-verify", "--q", "3"])
    assert args.pipeline == "lie-verify" and args.q == 3
    with pytest.raises(SystemExit):
        parser.parse_args(["locality-check", "--workers", "2"])
    path = tmp_path / "lie.json"
    code = main(["lie-verify", "--q", "3", "--report", str(path)])
    assert code == 0
    payload = json.loads(path.read_text())
    assert payload["results"]["chevrels"]["passed"] is True


@pytest.mark.parametrize("argv, message", [
    (["locality-check", "--group", "s4", "--prime", "4"],
     "locus: GroupError: p = 4 is not a prime\n"),
    (["group-inspect", "--group", "nosuch"],
     "locus: GroupError: unknown group 'nosuch'"),
    (["lie-verify", "--q", "0"], "locus: RootDataError: field order must be odd\n"),
    (["lie-verify", "--q", "1"], "locus: RootDataError: field order must be at least 3"),
    (["lie-verify", "--q", "-3"], "locus: RootDataError: field order must be at least 3"),
    (["sharpness", "--group", "s4", "--jmax", "-1"],
     "locus: FunctorError: jmax = -1 is negative\n"),
    (["locality-check", "--group", "s4", "--samples", "-5"],
     "locus: LocalityError: samples = -5 is negative\n"),
    (["lie-verify", "--q", "15"], "locus: RootDataError: field order 15 is not a prime power\n"),
])
def test_cli_rejects_bad_input_in_one_line(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message)
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [["sharpness", "--group", "s4"], ["full-acceptance"]])
@pytest.mark.parametrize("value", ["abc", "-5", "1.5"])
def test_cli_rejects_a_malformed_memory_budget_in_one_line(capsys, monkeypatch,
                                                           argv, value):
    # read before any pipeline runs, so full-acceptance does not turn it
    # into SKIPPED criteria
    monkeypatch.setenv(MEMORY_BUDGET_ENV, value)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"locus: BudgetError: {MEMORY_BUDGET_ENV} = {value!r} "
                            "is not a non-negative integer\n")


def test_cli_names_each_skipped_criterion_on_stderr(capsys, monkeypatch):
    import locus.cli

    report = Report("full-acceptance", {})
    report.put("criterion_01_locality_axioms", {"passed": True})
    report.put("criterion_09_sharpness",
               {"skipped": "SKIPPED: cochain complex needs 9 MB, budget 1 MB"})
    monkeypatch.setattr(locus.cli, "run", lambda config: report)
    assert main(["full-acceptance"]) == 0
    captured = capsys.readouterr()
    assert captured.out == report.canonical_bytes().decode() + "\n"
    assert captured.err == ("locus: criterion_09_sharpness SKIPPED: cochain complex "
                            "needs 9 MB, budget 1 MB\n")


def test_bench_pairs_rejects_fewer_than_two_pairs(tmp_path):
    script = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
    out = tmp_path / "bench.json"
    done = subprocess.run(
        [sys.executable, str(script), "--parent", str(tmp_path), "--change",
         str(tmp_path), "--workload", "acceptance", "--pairs", "1", "--out", str(out)],
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert "need at least 2 pairs, got 1" in done.stderr
    assert not out.exists()


# a stand-in perfbench/run.py: writes a record whose wall_s is WALL and
# whose result names the directory it ran from and the byte-compiled files
# that were there
FAKE_RUN = """import json, sys
from pathlib import Path
root = Path(__file__).resolve().parent.parent
argv = dict(zip(sys.argv[1::2], sys.argv[2::2]))
out = root / ".bench_out"
out.mkdir(exist_ok=True)
metrics = {m: {"value": WALL} for m in ("wall_s", "setup_s", "cpu_s", "peak_rss_mb")}
compiled = sorted(p.name.split(".")[0] for p in root.glob("*/__pycache__/*.pyc"))
record = {"machine": {}, "elapsed_s": 0, "spread": {}, "failures": 0,
          "result": {"correct": True, "metrics": metrics, "ran_in": str(root),
                     "compiled": compiled}}
name = f"{argv['--workload']}-seed{argv['--seed']}-trace{argv['--trace']}.json"
(out / name).write_text(json.dumps(record))
"""


def test_bench_pairs_runs_revisions_from_removed_archives(tmp_path):
    script = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    (repo / "perfbench" / "expected.json").write_text('{"w": [{"sha256": "x"}]}')
    (repo / "src").mkdir()
    (repo / "src" / "mod.py").write_text("X = 1\n")

    def git(*args):
        return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                               *args], cwd=repo, check=True, capture_output=True,
                              text=True).stdout.strip()

    git("init", "-q")
    shas = []
    for wall in (2.0, 1.0):
        (repo / "perfbench" / "run.py").write_text(FAKE_RUN.replace("WALL", str(wall)))
        git("add", "-A")
        git("commit", "-q", "-m", f"wall {wall}")
        shas.append(git("rev-parse", "HEAD"))
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    out = tmp_path / "bench.json"
    env = {**os.environ, "TMPDIR": str(tmp)}
    for change in ("HEAD", str(repo)):
        done = subprocess.run(
            [sys.executable, str(script), "--parent", "HEAD~1", "--change", change,
             "--workload", "w", "--pairs", "2", "--seconds", "1", "--out", str(out)],
            cwd=repo, env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        entry = json.loads(out.read_text())["w"]
        assert entry["commit"] == {"parent": shas[0], "change": shas[1]}
        assert entry["metrics"]["wall_s"]["change_wins"] == 2
        ran_in = {r["result"]["ran_in"] for rs in entry["runs"].values() for r in rs}
        parent_dirs = {r["result"]["ran_in"] for r in entry["runs"]["parent"]}
        assert len(parent_dirs) == 1 and len(ran_in) == 2 and str(repo) not in ran_in
        # peak RSS moves with the length of the directory name, so both
        # archives get names of the same length
        assert len({len(Path(d).name) for d in ran_in}) == 1
        # both archives were byte-compiled before their first run, though
        # no run imports anything
        assert {tuple(r["result"]["compiled"]) for rs in entry["runs"].values()
                for r in rs} == {("mod", "run")}
        # the archives are gone, and nothing else was left in the temp dir
        assert not any(Path(d).exists() for d in ran_in)
        assert list(tmp.iterdir()) == []
    # a checkout with uncommitted changes runs from an archive of them and
    # is left as it was
    (repo / "perfbench" / "expected.json").write_text('{"w": [{"sha256": "y"}]}')
    status = git("status", "--porcelain")
    subprocess.run([sys.executable, str(script), "--parent", "HEAD~1", "--change",
                    str(repo), "--workload", "w", "--pairs", "2", "--out", str(out)],
                   cwd=repo, env=env, check=True, capture_output=True, timeout=120)
    entry = json.loads(out.read_text())["w"]
    assert entry["commit"]["change"] == shas[1] + "-dirty"
    assert entry["expected_sha256"] == {"parent": ["x"], "change": ["y"]}
    assert str(repo) not in {r["result"]["ran_in"] for r in entry["runs"]["change"]}
    assert git("status", "--porcelain") == status and git("stash", "list") == ""
    assert list(tmp.iterdir()) == []
    done = subprocess.run(
        [sys.executable, str(script), "--parent", "HEAD", "--change", str(tmp),
         "--workload", "w", "--out", str(out)],
        cwd=repo, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 1
    assert f"{str(tmp)!r} is not a git checkout" in done.stderr
    done = subprocess.run(
        [sys.executable, str(script), "--parent", "nosuch", "--change", "HEAD",
         "--workload", "w", "--out", str(out)],
        cwd=repo, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 1
    assert "'nosuch' is neither a directory nor a git revision" in done.stderr


# sha256 of the canonical lie-verify report at each q
LIE_VERIFY_SHA256 = {
    3: "e393121925463d5cb6646b43bce759fe3b6eac7632111faa73c4cff1cf3c23b0",
    5: "3086b763d95c9b69f3ba9335410c5e3154bd682cf78b019bea9f9f0f1a113241",
    7: "25542e026e319b37c3f681df124f2854ce18578fb162491735df72d000cee8fe",
    11: "546bead250acafe8675c7a5bfb8f68a68ada703ff1e5ed57dcd3b89cf762f2c7",
}


@pytest.mark.parametrize("q", sorted(LIE_VERIFY_SHA256))
def test_lie_verify_bytes_pinned(q):
    data = run(RunConfig(pipeline="lie-verify", q=q)).canonical_bytes()
    assert hashlib.sha256(data).hexdigest() == LIE_VERIFY_SHA256[q]


# sha256 of the canonical orbit-universal report at the default seed 2024
ORBIT_UNIVERSAL_SHA256 = {
    "s4": "6407414d0bfd3708701f357af1f03405d3e206579f404044f65f0d135dc9ff27",
    "a6": "bd7431f9e2eb141a4f3d5228a1bf9e0a90e5b7d1d0173fcd48101c3ce3b8cc23",
    "a6xc3": "06afd44b79c530a195103511c16190f22f932a18e3d098e5b37f7cb551fa823f",
}


@pytest.mark.parametrize("group", sorted(ORBIT_UNIVERSAL_SHA256))
def test_orbit_universal_bytes_pinned(group):
    data = run(RunConfig(pipeline="orbit-universal", group=group)).canonical_bytes()
    assert hashlib.sha256(data).hexdigest() == ORBIT_UNIVERSAL_SHA256[group]


def test_orbit_universal_checks_one_pullback_block_per_pair(monkeypatch):
    # s4 has 9 objects: 81 blocks (P, Q) check the universal property of its
    # 1,537 cospans; only the double-coset check calls ``pullback``, once per
    # inclusion cospan, unverified
    import locus.harness as harness

    blocks, single = [], []

    def counted(name, log):
        inner = getattr(harness, name)
        monkeypatch.setattr(harness, name, lambda *a, **k: log.append((a, k)) or inner(*a, **k))

    counted("pullbacks", blocks)
    counted("pullback", single)
    suite = json.loads(run(RunConfig(pipeline="orbit-universal", group="s4"))
                       .canonical_bytes())["results"]["universal"]
    objects = blocks[0][0][0].objects
    assert len(blocks) == 81 == len(objects) ** 2 and suite["cospans"] == 1537
    assert sum(len(fs) for (_, _, _, fs, _), _ in blocks) == 1537
    assert len(single) == sum(sum(P <= R for P in objects) ** 2 for R in objects)
    assert all(k == {"verify": False} for _, k in single)


def test_budget_exceeded_marks_skipped(monkeypatch):
    from locus.cohomology import MEMORY_BUDGET_ENV, BudgetError, FpCohomology
    from locus.harness import _budget_guarded
    from locus.permgroups import load_group

    monkeypatch.setenv(MEMORY_BUDGET_ENV, "0")
    G = load_group("degree 4\n(1 2 3 4)", name="C4")
    with pytest.raises(BudgetError):
        FpCohomology(G, G.full_subgroup(), 2, 3)

    def doomed():
        FpCohomology(G, G.full_subgroup(), 2, 3)
        return {"passed": True}

    node = _budget_guarded(doomed)
    assert node["skipped"].startswith("SKIPPED")
    r = Report("demo", {})
    r.put("item", node)
    assert r.passed  # skipped, not failed


@pytest.mark.parametrize("pipeline", ["group-inspect", "locality-check"])
@pytest.mark.parametrize("prime", [0, 1, 4])
def test_bad_prime_fails_fast_and_names_it(deadline, pipeline, prime):
    with pytest.raises(GroupError, match=f"p = {prime} is not a prime"):
        run(RunConfig(pipeline=pipeline, group="s4", prime=prime, samples=100))


@pytest.mark.parametrize("selector", ["min-order:x", "min-order:", "min-order:-2"])
def test_malformed_min_order_selector_is_named(deadline, selector):
    with pytest.raises(LocalityError, match="min-order needs a non-negative integer"):
        run(RunConfig(pipeline="locality-check", group="s4", objects=selector))
