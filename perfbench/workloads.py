"""The benchmark's workloads, timed loop and correctness checks.

Every call into the package goes through a module attribute
(``detector.detect``, not a name imported from it), so the layer tracer
sees the calls the benchmark itself makes.
"""
from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import shutil
import statistics
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

from microtopo import cli, detector, measurements, powerflow, profiles, scenario

CONFIG = scenario.fixture_path("paper.cfg")
# Repetitions per experiment call. Each call re-solves every true state
# REPS times, the repeat a true-state cache would remove, while a call stays
# short enough (~5 s serial) that a run holds several calls.
REPS = 4
# ARMV rate band of the acceptance suite, applied to topology I.
ARMV_BAND = (0.75, 0.95)
# online_detect tallies verdicts over its first RATE_PASSES passes, so the
# rate it reports does not depend on how many passes fit in a run.
RATE_PASSES = 10
# Set-up is timed in two batches, before and after the timed loop, so its
# median samples the machine at two moments. A batch repeats set-up at least
# SETUP_MIN_RUNS times and for SETUP_MIN_S.
SETUP_MIN_RUNS = 3
SETUP_MIN_S = 1.0
SETUP_MAX_RUNS = 200


def _cells():
    return [(c, s) for c in detector.CRITERIA for s in detector.SIGNALS]


def _read_confusion(path: Path) -> dict:
    """(true, criterion, signal) -> Counter over detected label."""
    table: dict = {}
    with path.open(newline="") as fh:
        for row in csv.DictReader(fh):
            key = (row["true_topology"], row["criterion"], row["signal"])
            table.setdefault(key, Counter())[row["detected"]] += int(row["count"])
    return table


class PaperExperiment:
    """The bundled paper.cfg experiment through ``cli.main``.

    A request is one ``microtopo experiment`` call of 5 topologies x 96
    steps x REPS repetitions; its unit of work is the trial.
    """

    unit = "trials"

    def __init__(self, seed: int, jobs: int, work_dir: Path):
        self.attempted = 0  # units of work started, counted by timed_phase
        self.seed = seed
        self.jobs = jobs
        self.work_dir = work_dir
        self.outputs: bytes | None = None  # rates.csv + confusion.csv of call 1
        self.confusion: dict | None = None
        self.mismatched_calls = 0
        self._calls = 0

    def setup(self):
        config = scenario.load_config(CONFIG, master_seed=self.seed,
                                      repetitions=REPS, jobs=self.jobs)
        self.topology_ids = scenario.build_context(config).topology_ids
        self.units_per_request = len(self.topology_ids) * profiles.N_STEPS * REPS

    def _experiment(self, jobs: int) -> tuple[bytes, Path]:
        self._calls += 1
        out = self.work_dir / f"call{self._calls}"
        argv = ["experiment", str(CONFIG), "--seed", str(self.seed),
                "--reps", str(REPS), "--jobs", str(jobs), "--out-dir", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"microtopo {' '.join(argv)} exited {code}")
        data = (out / "rates.csv").read_bytes() + (out / "confusion.csv").read_bytes()
        return data, out

    def request(self):
        data, out = self._experiment(self.jobs)
        if self.outputs is None:
            self.outputs = data
            self.confusion = _read_confusion(out / "confusion.csv")
        elif data != self.outputs:
            self.mismatched_calls += 1
        shutil.rmtree(out)

    def ready(self) -> bool:
        return self.outputs is not None

    def armv_angle_rate(self) -> float:
        armv = {true: c for (true, crit, sig), c in self.confusion.items()
                if (crit, sig) == ("armv", "angle")}
        return (sum(c[true] for true, c in armv.items())
                / sum(sum(c.values()) for c in armv.values()))

    def check(self) -> list[str]:
        problems = []
        if self.mismatched_calls:
            problems.append(f"{self.mismatched_calls} experiment calls with the same "
                            "seed wrote different rates.csv/confusion.csv")
        want = profiles.N_STEPS * REPS
        for true in self.topology_ids:
            for crit, sig in _cells():
                n = sum(self.confusion.get((true, crit, sig), Counter()).values())
                if n != want:
                    problems.append(f"cell ({true}, {crit}, {sig}) has {n} trials, "
                                    f"expected {want}")
        armv_i = self.confusion.get(("I", "armv", "angle"), Counter())
        rate_i = armv_i["I"] / max(1, sum(armv_i.values()))
        if not ARMV_BAND[0] <= rate_i <= ARMV_BAND[1]:
            problems.append(f"ARMV angle rate for topology I is {rate_i:.4f}, "
                            f"outside {list(ARMV_BAND)}")
        if self.jobs > 1:
            serial, out = self._experiment(jobs=1)
            shutil.rmtree(out)
            if serial != self.outputs:
                problems.append(f"--jobs {self.jobs} output differs from --jobs 1 "
                                "output for the same seed")
        return problems


class OnlineDetection:
    """Classify a stream of μPMU snapshots against a precomputed library.

    Set-up loads the config and context, solves the 5 x 96 library from one
    SCADA draw per step and solves the 480 true states. A request is one
    snapshot: sample_pmu, compute_difference_matrices and one detect call
    per (criterion, signal). The loop is closed: one caller, next snapshot
    after the previous verdicts. Snapshot i plays (topology, t) pair
    i mod 480 with its own noise stream; pass i // 480 selects the
    systematic device offsets.
    """

    unit = "snapshots"
    units_per_request = 1

    def __init__(self, seed: int):
        self.attempted = 0
        self.seed = seed

    def setup(self):
        config = scenario.load_config(CONFIG, master_seed=self.seed)
        ctx = scenario.build_context(config)
        lib_inj = {}
        for t in range(profiles.N_STEPS):
            rng = measurements.derive_rng_stream(self.seed, 0, f"library-scada:{t}")
            scada = measurements.sample_scada(
                ctx.true_injections[t], ctx.scada_spec, rng, ctx.scada_buses,
                time_index=t, offsets=ctx.scada_offsets_by_rep[0])
            lib_inj[t] = powerflow.InjectionSnapshot.from_bus_map(
                ctx.graph, {m.bus_id: (m.p_meas, m.q_meas) for m in scada})
        self.library = detector.build_library(ctx.graph, list(ctx.topologies),
                                              lib_inj, tol=config.tol)
        self.pairs = [(q, t) for q in ctx.topology_ids for t in range(profiles.N_STEPS)]
        self.true_states = [
            powerflow.solve_newton_raphson(ctx.ybus_by_topo[q], ctx.true_injections[t],
                                           tol=config.tol,
                                           slack_index=ctx.graph.slack_index)
            for q, t in self.pairs]
        self.ctx = ctx
        self.cells = _cells()
        self.valid = set(ctx.topology_ids) | {detector.INCONCLUSIVE}
        self._next = 0
        self.tallied = 0
        self.armv_correct = 0
        self.invalid_verdicts = 0

    def request(self):
        i = self._next
        self._next += 1
        n_pass, pos = divmod(i, len(self.pairs))
        q, t = self.pairs[pos]
        ctx = self.ctx
        rng = measurements.derive_rng_stream(self.seed, 1 + i, "pmu")
        offsets = ctx.pmu_offsets_by_rep[n_pass % len(ctx.pmu_offsets_by_rep)]
        phasors = measurements.sample_pmu(self.true_states[pos], ctx.pmu_spec, rng,
                                          time_index=t, offsets=offsets)
        meas = measurements.MeasurementSet(phasors=phasors, scada=(), rng_seed=self.seed)
        matrices = detector.compute_difference_matrices(meas, self.library, t)
        outcomes = [detector.detect(matrices, c, s) for c, s in self.cells]
        if n_pass < RATE_PASSES:
            self.tallied += 1
            for (c, s), outcome in zip(self.cells, outcomes):
                if outcome.verdict not in self.valid:
                    self.invalid_verdicts += 1
                if c == "armv" and s == "angle" and outcome.verdict == q:
                    self.armv_correct += 1

    def ready(self) -> bool:
        return self._next >= RATE_PASSES * len(self.pairs)

    def armv_angle_rate(self) -> float:
        return self.armv_correct / self.tallied

    def check(self) -> list[str]:
        problems = []
        if self.invalid_verdicts:
            problems.append(f"{self.invalid_verdicts} verdicts name no topology")
        # Noise-free snapshots against the exact library must all be correct.
        exact = detector.TopologyLibrary(
            topology_ids=self.ctx.topology_ids,
            entries={pair: sol for pair, sol in zip(self.pairs, self.true_states)})
        spec = dataclasses.replace(self.ctx.pmu_spec, sigma=0.0, accuracy=0.0)
        rng = measurements.derive_rng_stream(self.seed, 0, "zero-noise")
        wrong = 0
        for (q, t), state in zip(self.pairs, self.true_states):
            phasors = measurements.sample_pmu(state, spec, rng, time_index=t)
            meas = measurements.MeasurementSet(phasors=phasors, scada=(),
                                               rng_seed=self.seed)
            matrices = detector.compute_difference_matrices(meas, exact, t)
            wrong += sum(detector.detect(matrices, c, s).verdict != q
                         for c, s in self.cells)
        if wrong:
            problems.append(f"{wrong} wrong verdicts on noise-free snapshots")
        return problems


def make_workload(name: str, seed: int, jobs: int, work_dir: Path):
    """``jobs`` is the worker count of paper_jobs."""
    if name == "paper_serial":
        return PaperExperiment(seed, 1, work_dir)
    if name == "paper_jobs":
        return PaperExperiment(seed, jobs, work_dir)
    if name == "online_detect":
        return OnlineDetection(seed)
    raise ValueError(f"unknown workload {name!r}")


# -- measurement ------------------------------------------------------------


# The benchmark runs on shared hosts whose speed swings by up to 2x for tens
# of seconds at a time, which no run length averages away. Every timed slice
# of program work is therefore bracketed by a short run of a fixed reference
# kernel, and the slice's times are scaled by the kernel's speed relative to
# REF_RATE: reported times are those of a machine that runs the kernel
# REF_RATE times per second. The kernel, like the program, is interpreter
# work around small numpy calls, so both slow down together.
REF_RATE = 60_000.0  # kernel iterations/s; ~ a 2-core Xeon VM's typical rate
REF_ITERATIONS = 2_000
SLICE_S = 0.5  # program time between two reference runs
_REF_MATRIX = 8.0 * np.eye(8) + np.linspace(-1.0, 1.0, 64).reshape(8, 8)
_REF_RHS = np.ones(8)


def machine_speed() -> float:
    """Speed of this machine now, relative to the nominal one (1.0)."""
    acc = 0.0
    start = perf_counter()
    for _ in range(REF_ITERATIONS):
        x = np.linalg.solve(_REF_MATRIX, _REF_RHS)
        table = {k: k * 1.5 for k in range(20)}
        acc += x[0] + sum(table.values()) + abs(float(np.min(x)))
    return REF_ITERATIONS / (perf_counter() - start) / REF_RATE


def time_setups(workload) -> list[float]:
    """Run ``workload.setup`` repeatedly; the last set-up is kept. Returns
    set-up times scaled to the nominal machine."""
    times = []
    speed_before = machine_speed()
    start = perf_counter()
    while (len(times) < SETUP_MIN_RUNS or perf_counter() - start < SETUP_MIN_S) \
            and len(times) < SETUP_MAX_RUNS:
        t0 = perf_counter()
        workload.setup()
        times.append(perf_counter() - t0)
    speed = (speed_before + machine_speed()) / 2
    return [t * speed for t in times]


@dataclasses.dataclass
class Phase:
    units: int
    wall_s: float  # measured time spent in requests
    nominal_s: float  # the same, scaled to the nominal machine
    latencies: array  # seconds per request, scaled to the nominal machine


def timed_phase(workload, seconds: float) -> Phase:
    """Closed loop: issue requests until ``seconds`` of request time have
    passed and the workload has done the minimum its checks need. Requests
    run in slices of at least SLICE_S, each scaled by the mean of the
    machine speeds measured just before and just after it."""
    latencies = array("d")
    units = 0
    wall = nominal = 0.0
    request = workload.request
    step = workload.units_per_request
    speed_before = machine_speed()
    while True:
        slice_latencies = array("d")
        slice_start = perf_counter()
        while True:
            workload.attempted += step
            t0 = perf_counter()
            request()
            t1 = perf_counter()
            units += step
            slice_latencies.append(t1 - t0)
            if t1 - slice_start >= SLICE_S:
                break
        speed_after = machine_speed()
        speed = (speed_before + speed_after) / 2
        speed_before = speed_after
        wall += t1 - slice_start
        nominal += (t1 - slice_start) * speed
        latencies.extend(x * speed for x in slice_latencies)
        if wall >= seconds and workload.ready():
            return Phase(units=units, wall_s=wall, nominal_s=nominal,
                         latencies=latencies)


TAIL_PERCENTILES = (99.0, 95.0, 90.0, 50.0)
# A window of TAIL_WINDOW requests has exactly ten samples beyond its p95.
# Windows of 1000 and their p99 spread by up to 21% across runs on a shared
# host, where preemption sets the p99; the p95 of 200 is steadier.
TAIL_WINDOW = 200


def _per_mille(p: float) -> int:
    return round(10 * p)  # integer arithmetic keeps n * p exact


def tail_percentile(n: int) -> float | None:
    """Highest of TAIL_PERCENTILES with at least ten samples beyond it."""
    for p in TAIL_PERCENTILES:
        if n * (1000 - _per_mille(p)) >= 10 * 1000:
            return p
    return None


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p% of the
    samples at or below it."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * _per_mille(p) // 1000))
    return ordered[rank - 1]


def tail_latency(latencies) -> tuple[float, str]:
    """Tail latency and how it was taken.

    With at least TAIL_WINDOW requests: the median over consecutive windows
    of TAIL_WINDOW requests of each window's tail percentile. A stall on the
    shared host then moves one window, not the whole run's tail. With fewer
    requests: the tail percentile of all of them, or the maximum when no
    percentile has ten samples beyond it.
    """
    n = len(latencies)
    if n >= TAIL_WINDOW:
        p = tail_percentile(TAIL_WINDOW)
        tails = [percentile(latencies[i:i + TAIL_WINDOW], p)
                 for i in range(0, n - TAIL_WINDOW + 1, TAIL_WINDOW)]
        return (statistics.median(tails),
                f"median of the p{p:g} of {len(tails)} windows of {TAIL_WINDOW} requests")
    p = tail_percentile(n)
    if p is None:
        return max(latencies), f"maximum of {n} requests"
    return percentile(latencies, p), f"p{p:g} of {n} requests"
