import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microtopo import profiles
from microtopo.cli import EXIT_VALIDATION, main
from microtopo.profiles import (
    N_STEPS,
    industrial_curve,
    load_injections,
    pv_curve,
    residential_curve,
)
from microtopo.scenario import build_context, fixture_path, load_config


def test_all_profiles_cover_every_step(graph):
    p, q, _ = load_injections(graph, "default")
    assert p.shape == q.shape == (N_STEPS, graph.n_bus) == (96, 5)
    assert np.isfinite(p).all() and np.isfinite(q).all()


def test_residential_shape():
    curve = residential_curve(base=0.1, morning=0.05, evening=0.08)
    assert len(curve) == 96
    # evening peak (t=76 is 19:00) sits well above the overnight floor
    assert curve[76] > curve[0]
    assert min(curve) >= 0.1  # bumps only add to the base
    assert max(curve) <= 0.1 + 0.05 + 0.08 + 1e-12


def test_industrial_shape():
    curve = industrial_curve(base=0.01, plateau=0.02)
    assert curve[0] == pytest.approx(0.01, rel=0.05)
    assert max(curve) == pytest.approx(0.03, rel=0.05)
    # midday sits on the plateau
    assert curve[48] > curve[0]


def test_pv_shape():
    curve = pv_curve(peak=1.0)
    assert curve[0] == 0.0  # no sun at midnight
    assert curve[92] == 0.0  # or at 23:00
    assert max(curve) == pytest.approx(1.0, rel=1e-6)
    assert np.argmax(curve) == 52  # solar noon at 13:00


def test_default_roles(graph):
    """The default table, bit for bit: households with rooftop PV at buses 2
    and 4, an industrial load with a small PV plant at bus 5, each load
    drawing 0.05 var per W and each PV absorbing 0.35 var per W; nothing
    at bus 3 or the slack bus."""
    p, q, monitored = load_injections(graph, "default")
    assert monitored == (2, 4, 5)
    devices = {2: (residential_curve(0.035, 0.010, 0.020), pv_curve(0.08)),
               4: (residential_curve(0.110, 0.030, 0.050), pv_curve(0.24)),
               5: (industrial_curve(0.010, 0.020), pv_curve(0.03))}
    for bus, (load, pv) in devices.items():
        col = graph.bus_index(bus)
        assert p[:, col].tobytes() == (pv - load).tobytes(), bus
        assert q[:, col].tobytes() == (-0.05 * load - 0.35 * pv).tobytes(), bus
    for bus in (1, 3):
        assert not p[:, graph.bus_index(bus)].any()
        assert not q[:, graph.bus_index(bus)].any()


def test_injection_signs(graph):
    """Loads draw power (negative injection); PV injects at midday."""
    p, q, _ = load_injections(graph, "default")
    night, noon = 0, 52
    bus3, bus4 = graph.bus_index(3), graph.bus_index(4)

    assert p[night, bus4] < 0
    assert (p[night, bus3], q[night, bus3]) == (0.0, 0.0)
    # slack carries no specified injection
    assert (p[night, graph.slack_index], q[night, graph.slack_index]) == (0.0, 0.0)
    # bus 4 PV peak exceeds its midday load, so the net injection flips sign
    assert p[noon, bus4] > p[night, bus4]
    # PV absorbs reactive power, loads draw it: q stays negative
    assert q[noon, bus4] < 0


def test_injections_time_bounds(graph):
    p, q, _ = load_injections(graph, "default")
    assert len(p) == len(q) == 96


def test_total_demand_positive(graph):
    p, _, _ = load_injections(graph, "default")
    assert -p.sum() > 0  # the feeder consumes energy over the day


def test_csv_roundtrip(graph, tmp_path):
    path = tmp_path / "custom.csv"
    rows = ["time_index,bus_id,p_pu,q_pu"]
    for t in range(96):
        rows.append(f"{t},4,{-0.05 - 0.001 * t},{-0.01}")
        rows.append(f"{t},2,0.02,0.0")
    path.write_text("\n".join(rows) + "\n")

    p, q, monitored = load_injections(graph, path)
    assert monitored == (2, 4)
    assert p[10, graph.bus_index(4)] == pytest.approx(-0.06)
    assert p[10, graph.bus_index(2)] == pytest.approx(0.02)
    assert q[10, graph.bus_index(4)] == pytest.approx(-0.01)


def test_csv_missing_steps_rejected(graph, tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("time_index,bus_id,p_pu,q_pu\n0,4,-0.05,-0.01\n")
    with pytest.raises(ValueError, match="bus 4 missing time steps"):
        load_injections(graph, path)


@pytest.mark.parametrize("missing, listed", [
    ((7,), "7 (1 of 96)"),
    ((3, 10, 20, 30, 95), "3, 10, 20, 30, 95 (5 of 96)"),
    ((3, 10, 20, 30, 40, 95), "3, 10, 20, 30, 40, ... (6 of 96)"),
])
def test_csv_missing_steps_error_counts_them(graph, tmp_path, missing, listed):
    """The error names how many steps are missing and lists the first five,
    with "..." only when there are more."""
    path = tmp_path / "gaps.csv"
    rows = [f"{t},4,-0.05,-0.01" for t in range(96) if t not in missing]
    path.write_text("time_index,bus_id,p_pu,q_pu\n" + "\n".join(rows) + "\n")
    with pytest.raises(ValueError) as err:
        load_injections(graph, path)
    assert str(err.value) == f"{path}: bus 4 missing time steps {listed}"


def test_csv_bad_header_rejected(graph, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,bus,p,q\n0,4,-0.05,-0.01\n")
    with pytest.raises(ValueError, match="expected header columns"):
        load_injections(graph, path)


def test_undecodable_profile_names_its_line(graph, tmp_path, capsys):
    """A byte that is not UTF-8 is reported with path:line, like every other
    rejected row, not as a bare codec error."""
    path = tmp_path / "bad.csv"
    rows = "".join(f"{t},4,-0.05,-0.01\n" for t in range(96))
    path.write_bytes(b"time_index,bus_id,p_pu,q_pu\n" + rows.encode() + b"\xff\n")
    message = f"{path}:98: not UTF-8 text: byte 0xff (invalid start byte)"
    with pytest.raises(ValueError) as err:
        load_injections(graph, path)
    assert str(err.value) == message
    assert main(["powerflow", "--topo", "I", "--t", "3", "--profile", str(path)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["experiment", "powerflow"])
def test_header_only_profile_exits_2(tmp_path, capsys, command):
    """A profile CSV with a header and no rows names no bus and no step: it
    is rejected, not read as a day with no load."""
    path = tmp_path / "empty.csv"
    path.write_text("time_index,bus_id,p_pu,q_pu\n")
    out = tmp_path / "out"
    args = {"experiment": ["--reps", "1", "--jobs", "1", "--out-dir", str(out)],
            "powerflow": ["--topo", "I", "--t", "3"]}[command]
    assert main([command, "--profile", str(path), *args]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.err == f"error: {path}: no profile rows\n"
    assert captured.out == ""
    assert not out.exists()


def test_all_zero_csv_bus_is_still_monitored(tmp_path):
    """The SCADA buses are the buses with rows in the file, even a bus
    whose injection is zero all day, not the nonzero columns."""
    path = tmp_path / "zero_bus.csv"
    rows = ["time_index,bus_id,p_pu,q_pu"]
    for t in range(N_STEPS):
        rows += [f"{t},3,0.0,0.0", f"{t},4,-0.05,-0.01"]
    path.write_text("\n".join(rows) + "\n")
    ctx = build_context(load_config(fixture_path("paper.cfg"), profile=str(path)))
    assert ctx.scada_buses == (3, 4)
    assert not ctx.true_p[:, ctx.graph.bus_index(3)].any()


# Generated profile CSVs for some PQ buses of the bundled network, rows in
# any order. Values are repr-written floats, so they parse back exactly;
# a few drawn by hypothesis (-0.0, subnormals, large magnitudes) are mixed
# into the bulk drawn from a seeded generator.
_PQ_BUSES = (2, 3, 4, 5)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _profile_file(draw):
    """(text lines, {bus: 96 (p, q) pairs})."""
    buses = draw(st.lists(st.sampled_from(_PQ_BUSES), min_size=1, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    flat = rng.uniform(-0.3, 0.3, 2 * N_STEPS * len(buses)).tolist()
    for value in draw(st.lists(_FINITE, max_size=5)):
        flat[draw(st.integers(0, len(flat) - 1))] = value
    values = {bus: list(zip(flat[2 * N_STEPS * k:2 * N_STEPS * (k + 1):2],
                            flat[2 * N_STEPS * k + 1:2 * N_STEPS * (k + 1):2]))
              for k, bus in enumerate(buses)}
    cells = [(t, bus) for bus in buses for t in range(N_STEPS)]
    rows = [f"{t},{bus},{values[bus][t][0]!r},{values[bus][t][1]!r}"
            for t, bus in (cells[i] for i in rng.permutation(len(cells)))]
    return ["time_index,bus_id,p_pu,q_pu"] + rows, values


def _write_profile(directory, text) -> Path:
    path = Path(directory) / "generated.csv"
    path.write_text("\n".join(text) + "\n")
    return path


@settings(max_examples=40, deadline=None)
@given(_profile_file())
def test_profile_csv_round_trip(graph, generated):
    text, values = generated
    with tempfile.TemporaryDirectory() as directory:
        p, q, monitored = profiles.load_injections(graph, _write_profile(directory, text))
    assert monitored == tuple(sorted(values))
    expected = np.zeros((2, N_STEPS, graph.n_bus))
    for bus, pairs in values.items():
        expected[:, :, graph.bus_index(bus)] = np.array(pairs).T
    assert np.array_equal(p, expected[0]) and np.array_equal(q, expected[1])


@st.composite
def _broken_profile_file(draw):
    """(text lines, 1-based line): a valid profile with one row broken by a
    bad number, a non-finite value, a wrong field count, a bus the network
    lacks or the slack bus, or a time step outside the day."""
    text, _ = draw(_profile_file())
    i = draw(st.integers(1, len(text) - 1))
    fields = text[i].split(",")
    fault = draw(st.sampled_from(["bad_number", "non_finite", "too_few", "too_many",
                                  "bad_bus", "bad_time"]))
    if fault == "bad_number":
        fields[draw(st.integers(0, 3))] = draw(st.sampled_from(["abc", "1.5.2", "", "1e"]))
    elif fault == "non_finite":
        fields[draw(st.integers(2, 3))] = draw(st.sampled_from(["nan", "inf", "-inf"]))
    elif fault == "too_few":
        fields.pop()
    elif fault == "too_many":
        fields.append("0.0")
    elif fault == "bad_bus":
        fields[1] = draw(st.sampled_from(["1", "6", "99"]))
    else:
        fields[0] = draw(st.sampled_from(["-1", str(N_STEPS), "500"]))
    text[i] = ",".join(fields)
    return text, i + 1


@settings(max_examples=40, deadline=None)
@given(_broken_profile_file())
def test_broken_profile_row_exits_2_with_its_line(broken):
    text, lineno = broken
    with tempfile.TemporaryDirectory() as directory:
        path = _write_profile(directory, text)
        out = Path(directory) / "out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(["experiment", "--profile", str(path), "--reps", "1", "--jobs", "1",
                         "--out-dir", str(out)]) == EXIT_VALIDATION
        assert err.getvalue().startswith(f"error: {path}:{lineno}: ")
        assert not out.exists()
