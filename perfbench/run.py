"""microtopo benchmark: Monte Carlo throughput, online detection latency and
a per-layer trace.

    python3 perfbench/run.py --workload paper_serial --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

A single workload prints its metrics and, as the last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0`` and the per-layer metrics with ``--trace 1``.
``--workload all`` runs every workload in its own process, untraced and
then traced unless ``--trace`` is given, and prints one table.

Exit status: 0 when every check passed, 1 when a check failed or a
workload raised, 2 on bad arguments or when the package is not found.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import layers

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("paper_serial", "paper_jobs", "online_detect")

# name -> unit; the order in which they are printed.
END_TO_END = {
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "armv_angle_rate": "share",
}
PER_LAYER = {
    "trace.trials": "count",
    "trace.overhead_s": "s",
    "trace.overhead_share": "share",
    "bench.self_s": "s",
    "bench.loop_share": "share",
    **{f"{layer}.{kind}": unit
       for layer in ("network", "powerflow", "profiles", "measurements",
                     "detector", "scenario", "cli")
       for kind, unit in (("self_s", "s"), ("loop_share", "share"))},
    "network.ybus_builds_per_trial": "count/trial",
    "powerflow.solves_per_trial": "count/trial",
    "powerflow.iters_per_solve": "count/solve",
    "powerflow.us_per_solve": "us",
    "powerflow.repeat_share": "share",
    "powerflow.failed": "count",
    "measurements.rng_streams_per_trial": "count/trial",
    "detector.row_votes_per_trial": "count/trial",
    "detector.us_per_classification": "us",
    "scenario.report_write_s": "s",
    "scenario.report_bytes": "bytes",
}


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def workload_jobs(name: str) -> int:
    return usable_cpus() if name == "paper_jobs" else 1


def pin_blas_threads(jobs: int) -> int:
    """Keep jobs x BLAS threads <= usable CPUs. Effective only before numpy
    is first imported."""
    threads = max(1, usable_cpus() // jobs)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def import_package():
    """Import microtopo from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import microtopo
    except ImportError as exc:
        print(f"error: cannot import microtopo from {src}: {exc}", file=sys.stderr)
        raise SystemExit(2)
    location = Path(microtopo.__file__).resolve()
    if src.resolve() not in location.parents:
        print(f"error: microtopo imported from {location}, not {src}", file=sys.stderr)
        raise SystemExit(2)


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int, blas_threads: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):  # numpy < 1.25 has no mode="dicts"
        blas_version = "unknown"
    return {"nproc": usable_cpus(), "cpu": cpu_model(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_version, "blas_threads": blas_threads,
            "commit": git_commit(), "seed": seed}


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


# -- per-layer tracing --------------------------------------------------------


class SolveObserver:
    """Iterations and repeated inputs of Newton-Raphson solves."""

    def __init__(self):
        self.seen: set[int] = set()

    def __call__(self, tracer, args, kwargs, result):
        tracer.counters["powerflow.iterations"] += result.iterations
        ybus = kwargs.get("ybus", args[0] if args else None)
        inj = kwargs.get("inj", args[1] if len(args) > 1 else None)
        key = hash((ybus.tobytes(), tuple(inj.p), tuple(inj.q)))
        if key in self.seen:
            tracer.counters["powerflow.repeats"] += 1
        else:
            self.seen.add(key)


def _observe_report(tracer, args, kwargs, result):
    tracer.counters["scenario.report_bytes"] += sum(Path(p).stat().st_size
                                                    for p in result)


def layer_metrics(total: dict, loop: dict, traced_wall_s: float, loop_wall_s: float,
                  trials: int, traced_s_per_trial: float,
                  untraced_s_per_trial: float) -> dict:
    """Per-layer figures. Wall times are as measured; the per-trial times
    that give the overhead are scaled to the nominal machine."""
    totals = layers.layer_totals(total)
    loop_totals = layers.layer_totals(loop)
    calls = lambda name: layers.calls_of(loop, name)  # noqa: E731
    solves = layers.calls_of(total, "powerflow.solve_newton_raphson")
    counters = total["counters"]
    loop_bench = max(0.0, loop_wall_s - loop["root_s"])
    loop_sum = loop_bench + sum(t["self_s"] for t in loop_totals.values())
    m = {
        "trace.trials": trials,
        "trace.overhead_s": (traced_s_per_trial - untraced_s_per_trial) * trials,
        "trace.overhead_share": _ratio(traced_s_per_trial, untraced_s_per_trial) - 1.0,
        "bench.self_s": max(0.0, traced_wall_s - total["root_s"]),
        "bench.loop_share": _ratio(loop_bench, loop_sum),
    }
    for layer in layers.LAYERS:
        m[f"{layer}.self_s"] = totals[layer]["self_s"]
        m[f"{layer}.loop_share"] = _ratio(loop_totals[layer]["self_s"], loop_sum)
    write_calls = calls("scenario.write_report")
    m.update({
        "network.ybus_builds_per_trial": calls("network.build_ybus") / trials,
        "powerflow.solves_per_trial": calls("powerflow.solve_newton_raphson") / trials,
        "powerflow.iters_per_solve": _ratio(counters.get("powerflow.iterations", 0), solves),
        "powerflow.us_per_solve": 1e6 * _ratio(totals["powerflow"]["self_s"], solves),
        "powerflow.repeat_share": _ratio(counters.get("powerflow.repeats", 0), solves),
        "powerflow.failed": totals["powerflow"]["failed"],
        "measurements.rng_streams_per_trial":
            calls("measurements.derive_rng_stream") / trials,
        "detector.row_votes_per_trial": calls("detector.row_votes") / trials,
        "detector.us_per_classification":
            1e6 * loop_totals["detector"]["self_s"] / trials,
        "scenario.report_write_s":
            _ratio(layers.total_s_of(loop, "scenario.write_report"), write_calls),
        "scenario.report_bytes":
            _ratio(loop["counters"].get("scenario.report_bytes", 0), write_calls),
    })
    return m


# -- one workload ---------------------------------------------------------------


def traced_metrics(workload, seconds: float, dump_dir: Path, notes: list) -> dict:
    """Set up under the layer tracer, then run slices of program work
    alternately untraced and traced, so that the overhead estimate compares
    the two at the same machine state."""
    import workloads as wl

    solve_observer = SolveObserver()
    tracer = layers.Tracer(
        observers={"powerflow.solve_newton_raphson": solve_observer,
                   "scenario.write_report": _observe_report},
        dump_dir=dump_dir)
    dump_dir.mkdir()
    plain_request = workload.request
    workers = 0

    def request():
        nonlocal workers
        solve_observer.seen.clear()  # repeats count within one request
        plain_request()
        workers += tracer.merge_worker_dumps()

    workload.request = request
    t0 = perf_counter()
    with tracer:
        workload.setup()
    setup_s = perf_counter() - t0
    before_loop = tracer.snapshot()
    wall = {False: 0.0, True: 0.0}
    nominal = {False: 0.0, True: 0.0}
    units = {False: 0, True: 0}
    deadline = perf_counter() + seconds
    traced = False
    while perf_counter() < deadline or not units[True]:
        if traced:
            with tracer:
                phase = wl.timed_phase(workload, wl.SLICE_S)
        else:
            phase = wl.timed_phase(workload, wl.SLICE_S)
        wall[traced] += phase.wall_s
        nominal[traced] += phase.nominal_s
        units[traced] += phase.units
        traced = not traced
    notes.append(f"traced {units[True]} and untraced {units[False]} {workload.unit} "
                 f"in alternate slices; worker processes traced: {workers}")
    if getattr(workload, "jobs", 1) > 1 and not workers:
        notes.append("per-layer figures are parent-side only")
    return layer_metrics(tracer.snapshot(), tracer.since(before_loop),
                         setup_s + wall[True], wall[True], units[True],
                         nominal[True] / units[True], nominal[False] / units[False])


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    jobs = workload_jobs(name)
    blas_threads = pin_blas_threads(jobs)
    import_package()
    import workloads as wl

    print(f"environment: {json.dumps(environment(seed, blas_threads))}")
    scratch = ROOT / ".perfbench_out"
    scratch.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=scratch))
    instances = []
    notes = []

    def make():
        instances.append(wl.make_workload(name, seed, jobs, work_dir))
        return instances[-1]

    try:
        workload = make()
        if trace:
            metrics = traced_metrics(workload, seconds, work_dir / "workers", notes)
        else:
            setups = wl.time_setups(workload)
            phase = wl.timed_phase(workload, seconds)
            metrics = end_to_end_metrics(workload, phase, notes)
        problems = workload.check()
        if not trace:
            setups += wl.time_setups(make())
            notes.append(f"set-up is the median of {len(setups)} set-ups")
            metrics["setup_s"] = statistics.median(setups)
            metrics["peak_rss_mb"] = peak_rss_mb()
    except Exception:
        # A run that raises counts every unit of work it attempted as failed.
        traceback.print_exc()
        attempted = max(1, sum(w.attempted for w in instances))
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": attempted, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run is using it

    names = PER_LAYER if trace else END_TO_END
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    for note in notes:
        print(f"note: {note}")
    for metric, unit in names.items():
        print(f"{name:14s} {metric:36s} {metrics[metric]:14.6g} {unit}")
    print(json.dumps({
        "correct": not problems, "attempted": sum(w.attempted for w in instances),
        "failed": 0,
        "metrics": {metric: {"value": metrics[metric], "unit": unit}
                    for metric, unit in names.items()}}))
    return 0 if not problems else 1


def end_to_end_metrics(workload, phase, notes: list) -> dict:
    import workloads as wl

    latencies_ms = [1e3 * x for x in phase.latencies]
    tail, how = wl.tail_latency(latencies_ms)
    notes.append(f"latency tail: {how}")
    notes.append(f"{phase.units} {workload.unit} in {phase.wall_s:.2f} s measured "
                 f"({phase.units / phase.wall_s:.6g}/s) at a mean machine speed of "
                 f"{phase.nominal_s / phase.wall_s:.3f} x nominal")
    return {
        "throughput_per_s": phase.units / phase.nominal_s,
        "latency_p50_ms": statistics.median(latencies_ms),
        "latency_tail_ms": tail,
        "armv_angle_rate": workload.armv_angle_rate(),
    }


# -- all workloads --------------------------------------------------------------


def run_all(seed: int, seconds: float, trace: int | None) -> int:
    """Each workload in a fresh process; one failing does not stop the rest."""
    modes = (0, 1) if trace is None else (trace,)
    timeout_s = 120 + 3 * seconds  # set-up, checks and one request past the end
    status = 0
    rows = []
    for mode in modes:
        for name in WORKLOAD_NAMES:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(mode)]
            try:
                proc = subprocess.run(cmd, capture_output=True, text=True,
                                      timeout=timeout_s)
                code, out, err = proc.returncode, proc.stdout, proc.stderr
            except subprocess.TimeoutExpired as exc:
                code, out = -1, exc.stdout or ""
                err = f"{name}: no result within {timeout_s:g} s\n"
                out = out.decode() if isinstance(out, bytes) else out
            sys.stdout.write(out)
            sys.stderr.write(err)
            try:
                result = json.loads(out.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
            if code != 0:
                status = 1
            rows.append((name, mode, code, result))
    print()
    print(f"{'workload':14s} {'trace':5s} {'exit':4s} {'correct':7s} "
          f"{'attempted':>9s} {'failed':>6s}")
    for name, mode, code, result in rows:
        print(f"{name:14s} {mode:<5d} {code:<4d} {str(result['correct']):7s} "
              f"{result['attempted']:9d} {result['failed']:6d}")
    print(json.dumps({
        "correct": all(r["correct"] for *_, r in rows),
        "attempted": sum(r["attempted"] for *_, r in rows),
        "failed": sum(r["failed"] for *_, r in rows),
        "metrics": {f"{name}/{metric}": value
                    for name, mode, _, r in rows
                    for metric, value in r["metrics"].items()}}))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
