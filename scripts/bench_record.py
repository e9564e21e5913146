"""Record one performance point of this checkout as BENCH_<label>.json.

    python scripts/bench_record.py pr33         # writes BENCH_pr33.json at the repo root
    python scripts/bench_record.py --dry-run    # prints the plan; runs and writes nothing

The record holds:
- the wall time of four commands, each call in its own process, over
  10 rounds whose order alternates, as median, range and every run:
  `python -c pass`, `import microtopo.cli`, and `python -m microtopo.cli
  experiment paper.cfg`, serial and with --jobs 2, so that interpreter
  start-up, the package's import and the sweep separate;
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
the sweep's timings by several percent. The script edits nothing under
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
SRC = ROOT / "src"
PAPER_CFG = SRC / "microtopo" / "data" / "paper.cfg"
PAIRS = 10
# perfbench/run.py's path in the checkout and its arguments: the benchmark's
# own run length (BENCHMARK.json) and the script's default seed.
PERFBENCH = ["perfbench/run.py", "--workload", "all", "--trace", "0", "--seed", "1",
             "--seconds", "25"]
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]


def timed_commands(out_dir: str) -> dict[str, list[str]]:
    """The commands timed in every round, by name, in first-round order;
    an experiment writes its reports under `out_dir`."""
    experiment = [sys.executable, "-m", "microtopo.cli", "experiment", str(PAPER_CFG)]
    return {
        "python -c pass": [sys.executable, "-c", "pass"],
        "import microtopo.cli": [sys.executable, "-c", "import microtopo.cli"],
        "experiment paper.cfg": [*experiment, "--out-dir", os.path.join(out_dir, "serial")],
        "experiment paper.cfg --jobs 2": [*experiment, "--jobs", "2",
                                          "--out-dir", os.path.join(out_dir, "jobs2")],
    }


def round_orders(names: list[str]) -> list[list[str]]:
    """The order of each round: as given, then reversed, and so on, so that
    each command runs first in half the pairs it forms with its neighbour."""
    return [names if i % 2 == 0 else names[::-1] for i in range(PAIRS)]


def child_env(src: str = str(SRC)) -> dict[str, str]:
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


def machine() -> dict:
    import numpy

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        nproc = os.cpu_count()
    return {"nproc": nproc, "python": platform.python_version(),
            "numpy": numpy.__version__,
            # the name and length of the path, which the timings follow
            "checkout": {"name": ROOT.name, "path_chars": len(str(ROOT))},
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")}


def code() -> dict | None:
    """The checked-out commit, whether tracked files differ from it, and the
    tree hash of src/ as on disk (hashed through a scratch index, so the
    checkout's own index is not touched); None outside a git checkout."""
    def git(*args, **env) -> str:
        return subprocess.run(["git", *args], cwd=ROOT, env={**os.environ, **env},
                              capture_output=True, text=True, check=True).stdout.strip()

    try:
        if Path(git("rev-parse", "--show-toplevel")).resolve() != ROOT.resolve():
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


def check_import(env: dict[str, str]) -> str | None:
    """An error message unless `microtopo` imports from this checkout's src/."""
    proc = subprocess.run([sys.executable, "-c", "import microtopo; print(microtopo.__file__)"],
                          capture_output=True, text=True, env=env)
    if proc.returncode:
        return f"cannot import microtopo from {SRC}: {proc.stderr.strip()}"
    location = Path(proc.stdout.strip()).resolve()
    if SRC.resolve() not in location.parents:
        return f"microtopo imported from {location}, not {SRC}"
    return None


def time_rounds(commands: dict[str, list[str]], env, cwd) -> dict[str, list[float]]:
    runs: dict[str, list[float]] = {name: [] for name in commands}
    for order in round_orders(list(commands)):
        for name in order:
            start = time.perf_counter()
            subprocess.run(commands[name], env=env, cwd=cwd, check=True,
                           stdout=subprocess.DEVNULL)
            runs[name].append(time.perf_counter() - start)
    return runs


def record(label: str) -> dict:
    env = child_env()
    with tempfile.TemporaryDirectory(prefix="bench_record_") as work:
        runs = time_rounds(timed_commands(work), env, work)
        bench = subprocess.run([sys.executable, *PERFBENCH], env=env, cwd=ROOT,
                               capture_output=True, text=True)
        start = time.perf_counter()
        # PYTHONPATH=src as tier-1 sets it: relative, so that a test that runs
        # a copy of perfbench/ elsewhere does not find the package
        tier1 = subprocess.run([sys.executable, *TIER1], env=child_env("src"), cwd=ROOT,
                               capture_output=True, text=True)
        tier1_s = time.perf_counter() - start
    try:
        bench_result = json.loads(bench.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        bench_result = None
    return {
        "label": label,
        "code": code(),
        "machine": machine(),
        "wall_time": {"pairs": PAIRS, **{name: summary(r) for name, r in runs.items()}},
        "perfbench": {"command": PERFBENCH, "exit": bench.returncode,
                      "output": bench.stdout, "result": bench_result},
        "tier1": {"command": TIER1, "exit": tier1.returncode, "wall_s": tier1_s,
                  **tier1_counts(tier1.stdout)},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("label", nargs="?",
                        help="the record is written to BENCH_<label>.json at the repo root")
    parser.add_argument("--dry-run", action="store_true",
                        help="print the plan as JSON; run and write nothing")
    args = parser.parse_args(argv)
    if args.label is None and not args.dry_run:
        parser.error("a label is required")
    label = args.label or "dry-run"
    if not re.fullmatch(r"[A-Za-z0-9_.-]+", label):
        parser.error(f"label {label!r} must be letters, digits, '_', '.' or '-'")
    problem = check_import(child_env())
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    out = ROOT / f"BENCH_{label}.json"
    if args.dry_run:
        commands = timed_commands("<tmp>")
        print(json.dumps({
            "out": out.name, "code": code(), "machine": machine(),
            "rounds": [[commands[name][1:] for name in order]
                       for order in round_orders(list(commands))],
            "perfbench": PERFBENCH,
            "tier1": TIER1}, indent=1))
        return 0
    try:
        point = record(label)
    except subprocess.CalledProcessError as exc:
        print(f"error: {' '.join(exc.cmd)} exited {exc.returncode}", file=sys.stderr)
        return 1
    out.write_text(json.dumps(point, indent=1) + "\n")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
