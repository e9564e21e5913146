"""Record one performance point of this checkout as BENCH_<label>.json.

    python scripts/bench_record.py pr33         # writes BENCH_pr33.json at the repo root
    python scripts/bench_record.py pr36 --against ../parent   # and of another checkout
    python scripts/bench_record.py --dry-run    # prints the plan; runs and writes nothing

The record holds:
- the wall time of five commands, each call in its own process, over
  10 rounds whose order alternates, as median, range and every run in
  round order: `python -c pass`, `import microtopo.cli`, and `python -m
  microtopo.cli experiment paper.cfg`, at its 20 repetitions and at 48,
  serial and with --jobs 2, so that interpreter start-up, the package's
  import and the sweep separate (at 20 repetitions --jobs 2 starts no
  worker, so the pool is timed at 48);
- the output of `perfbench/run.py --workload all --trace 0`, as printed,
  at the benchmark's run length and seed (it names the commit, CPU and BLAS);
- the tier-1 suite's wall time and pass count;
- the machine and setting: nproc, Python, numpy, the checkout directory's
  name and path length, and PYTHONDONTWRITEBYTECODE;
- the code: the commit checked out, whether tracked files differ from it,
  and the git tree hash of src/ as it is on disk, which names the measured
  code whether or not it is committed (it equals `git rev-parse
  <commit>:src` of any commit with that src/).

Every command runs this checkout's src/ (PYTHONPATH); the timed ones
run from a temporary working directory. Two records compare only when taken on one machine
from checkouts at one path: the length of the checkout's path alone moves
the sweep's timings by several percent, and the host's load moves them
between records taken minutes apart. So `--against DIR` also times the
checkout at DIR, in the same run: each command runs under both trees one
after the other, the order mirrored every round, and the record's
`against` entry holds DIR's path, code, wall times and perfbench output
(its tier-1 suite is not run). Each tree's `python -c pass` runs, one per
round, show how the host's load moved during the run, and the two trees'
medians of a command can differ by more than a change does for the same
code. So each command's wall time also gets `ratio_to_against`: the ratio
of this tree's run to DIR's neighbouring run, round by round, as median,
quartiles and every ratio in round order. The script edits nothing under
perfbench/.

Exit status: 0 when the record is written (or the plan printed), 1 when a
timed command fails, 2 on bad arguments or when the package does not
import from this checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAPER_CFG = ROOT / "src" / "microtopo" / "data" / "paper.cfg"
# Repetitions of the pooled rows: --jobs 2 starts a worker only at
# 2 x scenario.MIN_REPS_PER_PROCESS repetitions or more.
POOL_REPS = "48"
PAIRS = 10
# perfbench/run.py's path in the checkout and its arguments: the benchmark's
# own run length (BENCHMARK.json) and the script's default seed.
PERFBENCH = ["perfbench/run.py", "--workload", "all", "--trace", "0", "--seed", "1",
             "--seconds", "25"]
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]


def timed_commands(out_dir: str) -> dict[str, list[str]]:
    """The commands timed in every round, by name, in first-round order;
    an experiment writes its reports under `out_dir`. Every tree runs this
    checkout's paper.cfg."""
    experiment = [sys.executable, "-m", "microtopo.cli", "experiment", str(PAPER_CFG)]
    pool = [*experiment, "--reps", POOL_REPS]
    return {
        "python -c pass": [sys.executable, "-c", "pass"],
        "import microtopo.cli": [sys.executable, "-c", "import microtopo.cli"],
        "experiment paper.cfg": [*experiment, "--out-dir", os.path.join(out_dir, "serial")],
        f"experiment paper.cfg --reps {POOL_REPS}": [
            *pool, "--out-dir", os.path.join(out_dir, "pool_serial")],
        f"experiment paper.cfg --reps {POOL_REPS} --jobs 2": [
            *pool, "--jobs", "2", "--out-dir", os.path.join(out_dir, "pool_jobs2")],
    }


def round_orders(names: list[str], trees: list[str]) -> list[list[tuple[str, str]]]:
    """The (tree, command) runs of each round: each command in turn, run by
    each tree in turn; then the same reversed, and so on, so that each run
    comes first in half the pairs it forms with its neighbour, and the two
    trees' runs of a command are neighbours."""
    first = [(tree, name) for name in names for tree in trees]
    return [first if i % 2 == 0 else first[::-1] for i in range(PAIRS)]


def child_env(src: str) -> dict[str, str]:
    """The environment with `src` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def tier1_counts(output: str) -> dict:
    """The counts of pytest's summary line, e.g. {"passed": 313, "failed": 0},
    and the ids of the tests that failed or raised."""
    lines = output.strip().splitlines() or [""]
    counts: dict = {kind: 0 for kind in ("passed", "failed", "error", "skipped")}
    for number, kind in re.findall(r"(\d+) (passed|failed|error|skipped)", lines[-1]):
        counts[kind] += int(number)
    counts["failed_tests"] = [line.split()[1] for line in lines
                              if line.startswith(("FAILED ", "ERROR "))]
    return counts


def summary(runs_s: list[float]) -> dict:
    return {"median_s": statistics.median(runs_s), "min_s": min(runs_s),
            "max_s": max(runs_s), "runs_s": runs_s}


def paired_ratios(this_runs: list[float], other_runs: list[float]) -> dict:
    """The ratio of each run of `this_runs` to the run of `other_runs` of
    the same round, its neighbour, in round order, with their median and
    quartiles (`statistics.quantiles`, inclusive method)."""
    ratios = [a / b for a, b in zip(this_runs, other_runs, strict=True)]
    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "ratios": ratios}


def checkout(root: Path) -> dict:
    """The name and length of a checkout's path, which the timings follow."""
    return {"name": root.name, "path_chars": len(str(root))}


def machine() -> dict:
    import numpy

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        nproc = os.cpu_count()
    return {"nproc": nproc, "python": platform.python_version(),
            "numpy": numpy.__version__, "checkout": checkout(ROOT),
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")}


def code(root: Path | None = None) -> dict | None:
    """The commit checked out at `root` (this checkout by default), whether
    tracked files differ from it, and the tree hash of src/ as on disk
    (hashed through a scratch index, so the checkout's own index is not
    touched); None outside a git checkout."""
    root = ROOT if root is None else root

    def git(*args, **env) -> str:
        return subprocess.run(["git", *args], cwd=root, env={**os.environ, **env},
                              capture_output=True, text=True, check=True).stdout.strip()

    try:
        if Path(git("rev-parse", "--show-toplevel")).resolve() != root.resolve():
            return None  # src/ is not at the repository's root
        head = git("rev-parse", "HEAD")
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
        with tempfile.TemporaryDirectory(prefix="bench_record_") as tmp:
            index = os.path.join(tmp, "index")
            git("add", "--all", "src", GIT_INDEX_FILE=index)
            src_tree = git("write-tree", "--prefix=src/", GIT_INDEX_FILE=index)
    except (OSError, subprocess.CalledProcessError):
        return None
    return {"head": head, "dirty": dirty, "src_tree": src_tree}


def check_import(root: Path) -> str | None:
    """An error message unless `microtopo` imports from `root`'s src/."""
    src = root / "src"
    proc = subprocess.run([sys.executable, "-c", "import microtopo; print(microtopo.__file__)"],
                          capture_output=True, text=True, env=child_env(str(src)))
    if proc.returncode:
        return f"cannot import microtopo from {src}: {proc.stderr.strip()}"
    location = Path(proc.stdout.strip()).resolve()
    if src.resolve() not in location.parents:
        return f"microtopo imported from {location}, not {src}"
    return None


def time_rounds(commands: dict[str, list[str]], trees: dict[str, Path],
                cwd) -> dict[str, dict[str, list[float]]]:
    """Each tree's runs of each command, in round order: tree -> name -> s."""
    envs = {tree: child_env(str(root / "src")) for tree, root in trees.items()}
    runs = {tree: {name: [] for name in commands} for tree in trees}
    for order in round_orders(list(commands), list(trees)):
        for tree, name in order:
            start = time.perf_counter()
            subprocess.run(commands[name], env=envs[tree], cwd=cwd, check=True,
                           stdout=subprocess.DEVNULL)
            runs[tree][name].append(time.perf_counter() - start)
    return runs


def perfbench(root: Path) -> dict:
    """One run of the perfbench/ of the checkout at `root`, on its src/."""
    bench = subprocess.run([sys.executable, *PERFBENCH], env=child_env(str(root / "src")),
                           cwd=root, capture_output=True, text=True)
    try:
        result = json.loads(bench.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return {"command": PERFBENCH, "exit": bench.returncode, "output": bench.stdout,
            "result": result}


def record(label: str, against: Path | None = None) -> dict:
    trees = {"this": ROOT, **({"against": against} if against else {})}
    with tempfile.TemporaryDirectory(prefix="bench_record_") as work:
        runs = time_rounds(timed_commands(work), trees, work)
        bench = {tree: perfbench(root) for tree, root in trees.items()}
        start = time.perf_counter()
        # PYTHONPATH=src as tier-1 sets it: relative, so that a test that runs
        # a copy of perfbench/ elsewhere does not find the package
        tier1 = subprocess.run([sys.executable, *TIER1], env=child_env("src"), cwd=ROOT,
                               capture_output=True, text=True)
        tier1_s = time.perf_counter() - start
    wall = {tree: {"pairs": PAIRS, **{name: summary(r) for name, r in by_name.items()}}
            for tree, by_name in runs.items()}
    if against:
        for name, this_runs in runs["this"].items():
            wall["this"][name]["ratio_to_against"] = paired_ratios(
                this_runs, runs["against"][name])
    point = {
        "label": label,
        "code": code(),
        "machine": machine(),
        "wall_time": wall["this"],
        "perfbench": bench["this"],
        "tier1": {"command": TIER1, "exit": tier1.returncode, "wall_s": tier1_s,
                  **tier1_counts(tier1.stdout)},
    }
    if against:
        point["against"] = {"path": str(against), "checkout": checkout(against),
                            "code": code(against), "wall_time": wall["against"],
                            "perfbench": bench["against"]}
    return point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("label", nargs="?",
                        help="the record is written to BENCH_<label>.json at the repo root")
    parser.add_argument("--dry-run", action="store_true",
                        help="print the plan as JSON; run and write nothing")
    parser.add_argument("--against", metavar="DIR", type=Path,
                        help="also time the checkout at DIR, alternating with this "
                             "one round by round")
    args = parser.parse_args(argv)
    if args.label is None and not args.dry_run:
        parser.error("a label is required")
    label = args.label or "dry-run"
    if not re.fullmatch(r"[A-Za-z0-9_.-]+", label):
        parser.error(f"label {label!r} must be letters, digits, '_', '.' or '-'")
    against = args.against and args.against.resolve()
    if against == ROOT.resolve():
        parser.error("--against names this checkout")
    for root in filter(None, (ROOT, against)):
        problem = check_import(root)
        if problem:
            print(f"error: {problem}", file=sys.stderr)
            return 2
    out = ROOT / f"BENCH_{label}.json"
    if args.dry_run:
        commands = timed_commands("<tmp>")
        trees = ["this", *(["against"] if against else [])]
        print(json.dumps({
            "out": out.name, "code": code(), "machine": machine(),
            "against": against and {"path": str(against), "checkout": checkout(against),
                                    "code": code(against)},
            "rounds": [[[tree, commands[name][1:]] for tree, name in order]
                       for order in round_orders(list(commands), trees)],
            "perfbench": PERFBENCH,
            "tier1": TIER1}, indent=1))
        return 0
    try:
        point = record(label, against)
    except subprocess.CalledProcessError as exc:
        print(f"error: {' '.join(exc.cmd)} exited {exc.returncode}", file=sys.stderr)
        return 1
    out.write_text(json.dumps(point, indent=1) + "\n")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
