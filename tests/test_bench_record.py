"""The performance recorder's plan, checked with --dry-run: nothing is timed
or written."""
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def test_dry_run_prints_the_plan_and_writes_nothing(capsys):
    before = sorted(SCRIPT.parent.parent.glob("BENCH_*.json"))
    assert bench_record.main(["--dry-run"]) == 0
    plan = json.loads(capsys.readouterr().out)
    assert sorted(SCRIPT.parent.parent.glob("BENCH_*.json")) == before
    assert plan["out"] == "BENCH_dry-run.json"
    assert plan["code"] is None or set(plan["code"]) == {"head", "dirty", "src_tree"}
    assert set(plan["machine"]) == {"nproc", "python", "numpy", "checkout",
                                    "PYTHONDONTWRITEBYTECODE"}
    assert plan["perfbench"] == ["perfbench/run.py", "--workload", "all", "--trace", "0",
                                 "--seed", "1", "--seconds", "25"]
    assert plan["tier1"] == ["-m", "pytest", "-q", "--continue-on-collection-errors"]
    assert plan["against"] is None
    rounds = plan["rounds"]
    assert len(rounds) == 10
    assert {tree for order in rounds for tree, _ in order} == {"this"}
    argvs = [[argv for _, argv in order] for order in rounds]
    assert argvs[0][:2] == [["-c", "pass"], ["-c", "import microtopo.cli"]]
    experiments = [[argv for argv in order if "experiment" in argv] for order in argvs]
    assert all(len(order) == 3 for order in experiments)
    # the paper's run, then the pool's repetitions serial and with --jobs 2
    assert [argv[4:-2] for argv in experiments[0]] == [
        [], ["--reps", "48"], ["--reps", "48", "--jobs", "2"]]
    jobs2_first = [order[0][-4:-2] == ["--jobs", "2"] for order in experiments]
    assert jobs2_first == [i % 2 == 1 for i in range(len(rounds))]  # the order alternates


def test_dry_run_against_another_checkout_pairs_every_command(tmp_path, capsys):
    """With --against, each command runs under both trees one after the
    other, this checkout first in even rounds and the other tree first in
    odd ones; the plan names the other tree, which must import."""
    other = tmp_path / "other"
    assert bench_record.main(["--dry-run", "--against", str(other)]) == 2
    assert capsys.readouterr().err.startswith("error: ")  # no package there
    shutil.copytree(SCRIPT.parent.parent / "src" / "microtopo", other / "src" / "microtopo",
                    ignore=shutil.ignore_patterns("__pycache__"))
    assert bench_record.main(["--dry-run", "--against", str(other)]) == 0
    plan = json.loads(capsys.readouterr().out)
    assert plan["against"] == {"path": str(other.resolve()), "code": None,
                               "checkout": {"name": "other",
                                            "path_chars": len(str(other.resolve()))}}
    rounds = plan["rounds"]
    assert len(rounds) == 10
    for i, order in enumerate(rounds):
        trees = [tree for tree, _ in order]
        argvs = [argv for _, argv in order]
        first, second = ("this", "against") if i % 2 == 0 else ("against", "this")
        assert trees == [first, second] * 5
        assert argvs[0::2] == argvs[1::2]  # each command twice in a row
        assert order == (rounds[0] if i % 2 == 0 else rounds[0][::-1])


@pytest.mark.parametrize("argv", [[], ["no/slash"], ["../x"],
                                  ["x", "--against", str(SCRIPT.parent.parent)]])
def test_bad_arguments_exit_2(argv):
    with pytest.raises(SystemExit) as exited:
        bench_record.main(argv)
    assert exited.value.code == 2


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_code_names_the_commit_and_the_source_on_disk(tmp_path, monkeypatch):
    """The record names the checked-out commit, whether tracked files differ
    from it, and the tree hash of src/ as on disk: the hash a commit of
    that src/ has."""
    def git(*args):
        return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                              cwd=tmp_path, capture_output=True, text=True,
                              check=True).stdout.strip()

    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    assert bench_record.code() is None  # not a git checkout
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "a.py").write_text("x = 1\n")
    git("init", "-q")
    git("add", "src")
    git("commit", "-q", "-m", "a")
    assert bench_record.code() == {"head": git("rev-parse", "HEAD"), "dirty": False,
                                   "src_tree": git("rev-parse", "HEAD:src")}
    (tmp_path / "src" / "a.py").write_text("x = 2\n")
    edited = bench_record.code()
    assert edited["dirty"] and edited["head"] == git("rev-parse", "HEAD")
    assert git("diff", "--cached", "--name-only") == ""  # the checkout's index is untouched
    git("commit", "-q", "-am", "b")
    assert edited["src_tree"] == git("rev-parse", "HEAD:src")
    assert bench_record.code()["src_tree"] == edited["src_tree"]


def test_tier1_counts_read_the_summary_line():
    output = ("....\nFAILED tests/x.py::t - AssertionError\nERROR tests/y.py::u\n"
              "313 passed, 1 failed, 2 skipped, 1 error in 17.44s\n")
    assert bench_record.tier1_counts(output) == {
        "passed": 313, "failed": 1, "error": 1, "skipped": 2,
        "failed_tests": ["tests/x.py::t", "tests/y.py::u"]}
    assert bench_record.tier1_counts("") == {"passed": 0, "failed": 0, "error": 0,
                                             "skipped": 0, "failed_tests": []}


def test_paired_ratios_keep_round_order():
    """Each round's run over the other tree's run of that round, in round
    order; the median and quartiles are those of the ratios, not a ratio of
    the two trees' own medians (0.275 / 0.25 here)."""
    paired = bench_record.paired_ratios([0.2, 0.3, 0.25, 0.4], [0.1, 0.3, 0.5, 0.2])
    assert paired["ratios"] == pytest.approx([2.0, 1.0, 0.5, 2.0])
    assert (paired["q1"], paired["median"], paired["q3"]) == pytest.approx((0.875, 1.5, 2.0))
    with pytest.raises(ValueError):  # a run without its neighbour
        bench_record.paired_ratios([0.2, 0.3], [0.1])


def test_record_against_another_tree_gives_each_command_its_ratios(monkeypatch):
    """With --against, every command's wall time in the record carries the
    paired ratios of its runs; without it, none does."""
    this = {"python -c pass": [0.04, 0.05, 0.04], "experiment": [0.3, 0.2, 0.25]}
    other = {"python -c pass": [0.04, 0.04, 0.05], "experiment": [0.2, 0.25, 0.25]}
    monkeypatch.setattr(bench_record, "time_rounds", lambda commands, trees, cwd: {
        "this": this, **({"against": other} if "against" in trees else {})})
    monkeypatch.setattr(bench_record, "perfbench", lambda root: {})
    monkeypatch.setattr(bench_record, "code", lambda root=None: None)
    monkeypatch.setattr(bench_record.subprocess, "run", lambda *args, **kwargs:
                        subprocess.CompletedProcess(args, 0, "3 passed in 0.1s\n", ""))
    point = bench_record.record("x", against=Path("/elsewhere"))
    for name, runs in this.items():
        wall = point["wall_time"][name]
        assert wall["runs_s"] == runs
        assert wall["ratio_to_against"] == bench_record.paired_ratios(runs, other[name])
        assert "ratio_to_against" not in point["against"]["wall_time"][name]
    assert point["wall_time"]["experiment"]["ratio_to_against"]["ratios"] == pytest.approx(
        [1.5, 0.8, 1.0])
    alone = bench_record.record("x")
    assert "against" not in alone
    assert all("ratio_to_against" not in alone["wall_time"][name] for name in this)


def test_the_script_runs_as_a_command():
    proc = subprocess.run([sys.executable, str(SCRIPT), "--dry-run"], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["out"] == "BENCH_dry-run.json"
