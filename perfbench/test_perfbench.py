"""Tests of the benchmark's own code: tracer, percentile rule, output names."""
from __future__ import annotations

import inspect
import itertools
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def toy_package(tmp_path, monkeypatch):
    """toypkg.outer.run -> toypkg.inner.work, imported by name."""
    pkg = tmp_path / "toypkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "inner.py").write_text(
        "import time\n"
        "def work(seconds):\n"
        "    end = time.perf_counter() + seconds\n"
        "    while time.perf_counter() < end:\n"
        "        pass\n")
    (pkg / "outer.py").write_text(
        "from .inner import work\n"
        "def run():\n"
        "    work(0.01)\n"
        "    work(0.02)\n"
        "    work(0.01)\n"
        "    return 'done'\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    yield
    for name in [n for n in sys.modules if n.split(".")[0] == "toypkg"]:
        del sys.modules[name]


def test_self_times_of_nested_calls_sum_to_wall_time(toy_package):
    import toypkg.outer

    tracer = layers.Tracer(layers=("outer", "inner"), package="toypkg")
    with tracer:
        start = time.perf_counter()
        assert toypkg.outer.run() == "done"
        wall = time.perf_counter() - start
    totals = layers.layer_totals(tracer.snapshot(), layers=("outer", "inner"))
    assert totals["inner"]["calls"] == 3
    assert totals["outer"]["calls"] == 1
    assert totals["inner"]["self_s"] >= 0.04
    assert totals["outer"]["self_s"] < 0.01
    summed = totals["outer"]["self_s"] + totals["inner"]["self_s"]
    assert summed == pytest.approx(tracer.root_s, abs=1e-9)
    assert summed <= wall
    assert wall - summed < 0.002


def test_failed_calls_are_counted(toy_package):
    import toypkg.outer

    tracer = layers.Tracer(layers=("outer", "inner"), package="toypkg")
    with tracer:
        with pytest.raises(TypeError):
            toypkg.outer.work()  # missing argument, through the rebound name
    assert tracer.stats["inner.work"][layers.FAILED] == 1


def _package_bindings():
    return {(name, attr): value
            for name, module in sys.modules.items()
            if module is not None and name.split(".")[0] == "microtopo"
            for attr, value in vars(module).items()
            if inspect.isfunction(value)}


def test_tracer_wraps_public_functions_and_unpatches(toy_package):
    import microtopo.cli  # noqa: F401  (loads every layer module)
    from microtopo import detector, scenario

    before = _package_bindings()
    tracer = layers.Tracer()
    with tracer:
        # Names imported by another module are rebound there too.
        assert scenario.solve_newton_raphson is not before[
            ("microtopo.scenario", "solve_newton_raphson")]
        assert detector.detect.__wrapped__ is before[("microtopo.detector", "detect")]
        assert not hasattr(detector.TopologyLibrary.solution, "__wrapped__")
    after = _package_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert "powerflow.solve_newton_raphson" in tracer.stats
    assert not any(name.split(".")[1].startswith("_") for name in tracer.stats)


@pytest.mark.parametrize("n, expected", [
    (100_000, 99.0), (1_000, 99.0), (999, 95.0), (200, 95.0),
    (199, 90.0), (100, 90.0), (99, 50.0), (20, 50.0), (19, None), (1, None)])
def test_tail_percentile_has_ten_samples_beyond_it(n, expected):
    assert workloads.tail_percentile(n) == expected


@pytest.mark.parametrize("n", [20, 137, 1000, 4321])
def test_reported_percentile_has_ten_samples_beyond(n):
    values = list(range(n, 0, -1))
    p = workloads.tail_percentile(n)
    value = workloads.percentile(values, p)
    assert sum(v > value for v in values) >= 10
    higher = [q for q in workloads.TAIL_PERCENTILES if q > p]
    for q in higher:
        assert sum(v > workloads.percentile(values, q) for v in values) < 10


class _Sleeper:
    unit = "requests"
    units_per_request = 2

    def __init__(self):
        self.attempted = 0

    def request(self):
        time.sleep(0.01)

    def ready(self):
        return True


def test_timed_phase_scales_times_to_the_nominal_machine(monkeypatch):
    speeds = itertools.cycle([0.4, 0.6])  # each slice's mean speed is 0.5
    monkeypatch.setattr(workloads, "machine_speed", lambda: next(speeds))
    monkeypatch.setattr(workloads, "SLICE_S", 0.05)
    workload = _Sleeper()
    phase = workloads.timed_phase(workload, 0.1)
    assert phase.wall_s >= 0.1
    assert phase.nominal_s == pytest.approx(0.5 * phase.wall_s)
    assert phase.units == workload.attempted == 2 * len(phase.latencies)
    assert sum(phase.latencies) == pytest.approx(phase.nominal_s, rel=0.05)


def test_machine_speed_is_positive():
    assert workloads.machine_speed() > 0


def test_tail_latency_takes_the_median_window_p95():
    # Ten windows of 200: in each, 10 values of 5.0 beyond a p95 of 1.0,
    # except one window whose p95 is a stall of 100.0.
    window = [1.0] * 190 + [5.0] * 10
    stalled = [1.0] * 180 + [100.0] * 20
    tail, how = workloads.tail_latency(window * 9 + stalled + [7.0] * 199)
    assert tail == 1.0
    assert how == "median of the p95 of 10 windows of 200 requests"
    assert workloads.tail_latency([3.0, 1.0, 2.0]) == (3.0, "maximum of 3 requests")
    tail, how = workloads.tail_latency(list(range(1, 101)))
    assert (tail, how) == (90, "p90 of 100 requests")


def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_code():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def _run_benchmark(cwd: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    proc = _run_benchmark(ROOT, "--workload", "online_detect", "--seed", "3",
                          "--seconds", "0.5", "--trace", trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in _benchmark_json()[section]}
    assert "environment:" in proc.stdout


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_benchmark(tmp_path, "--workload", "online_detect", "--seed", "1",
                          "--seconds", "1", "--trace", "0")
    assert proc.returncode == 2
    assert '"metrics"' not in proc.stdout
    assert "cannot import microtopo" in proc.stderr


class _Failing:
    unit = "snapshots"
    units_per_request = 3

    def __init__(self):
        self.attempted = 0
        self.requests = 0

    def setup(self):
        pass

    def request(self):
        self.requests += 1
        if self.requests == 4:
            raise RuntimeError("boom")

    def ready(self):
        return True


def test_exception_counts_attempted_work_as_failed(monkeypatch, capsys):
    monkeypatch.setattr(run, "pin_blas_threads", lambda jobs: 1)
    monkeypatch.setattr(run, "import_package", lambda: None)
    monkeypatch.setattr(workloads, "make_workload", lambda *args: _Failing())
    assert run.run_workload("online_detect", 1, 60.0, trace=False) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result == {"correct": False, "attempted": 12, "failed": 12, "metrics": {}}
