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
    rounds = plan["rounds"]
    assert len(rounds) == 10
    assert rounds[0][:2] == [["-c", "pass"], ["-c", "import microtopo.cli"]]
    experiments = [[c for c in order if "experiment" in c] for order in rounds]
    assert all([a[-4:-2], b[-4:-2]].count(["--jobs", "2"]) == 1 for a, b in experiments)
    jobs2_first = [first[-4:-2] == ["--jobs", "2"] for first, _ in experiments]
    assert jobs2_first == [i % 2 == 1 for i in range(len(rounds))]  # the order alternates


@pytest.mark.parametrize("argv", [[], ["no/slash"], ["../x"]])
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


def test_the_script_runs_as_a_command():
    proc = subprocess.run([sys.executable, str(SCRIPT), "--dry-run"], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["out"] == "BENCH_dry-run.json"
