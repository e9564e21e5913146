"""The day's net injections at 15-minute resolution.

`load_injections` is the one home of the day's injections: it returns
them as (steps, buses) p and q tables, with the sorted ids of the buses
that carry a profile (the SCADA buses). The tables come either from
deterministic synthetic curves (residential double peak, industrial
daytime plateau, midday PV bell) or from a user-supplied CSV. All powers
are per-unit.
"""
from __future__ import annotations

import csv
import io
import math
from pathlib import Path

import numpy as np

from .network import BusKind, NetworkGraph, read_utf8

N_STEPS = 96  # one day at 15-minute resolution

# Loads draw reactive power at a high power factor; PV inverters run in a
# volt-var mode, absorbing reactive power proportional to their output.
_LOAD_Q_RATIO = 0.05
_PV_VAR_ABSORPTION = 0.35

# Magnitudes keep the apparent line flow under 0.3 p.u. in every candidate
# topology at every step (the single-feeder configurations route the whole
# system load over one line, so the overall budget is tight).
_RES_HEAVY = (0.110, 0.030, 0.050)  # base, morning bump, evening bump
_RES_LIGHT = (0.035, 0.010, 0.020)
_IND_BASE = 0.010
_IND_PLATEAU = 0.020
_PV_PEAK_BY_BUS = {2: 0.08, 4: 0.24, 5: 0.03}


def _hours() -> np.ndarray:
    return np.arange(N_STEPS) / 4.0


def residential_curve(base: float = _RES_HEAVY[0], morning: float = _RES_HEAVY[1],
                      evening: float = _RES_HEAVY[2]) -> np.ndarray:
    """Double-peak household consumption (morning and evening)."""
    h = _hours()
    return (base
            + morning * np.exp(-((h - 7.5) / 2.5) ** 2)
            + evening * np.exp(-((h - 19.5) / 3.0) ** 2))


def industrial_curve(base: float = _IND_BASE, plateau: float = _IND_PLATEAU) -> np.ndarray:
    """Daytime plateau, roughly 07:00 to 17:30."""
    h = _hours()
    gate = 0.5 * (np.tanh((h - 7.0) / 1.2) - np.tanh((h - 17.5) / 1.2))
    return base + plateau * gate


def pv_curve(peak: float) -> np.ndarray:
    """Midday generation bell, zero outside roughly 06:30 to 19:30."""
    h = _hours()
    daylight = (h > 6.5) & (h < 19.5)
    bell = np.where(daylight, np.sin(np.pi * (h - 6.5) / 13.0), 0.0)
    return peak * bell ** 2


def _default_injections(graph: NetworkGraph) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """Deterministic synthetic day for every load bus, as `load_injections`
    returns it.

    A network whose PQ bus ids are exactly {2, 3, 4, 5}, as the bundled
    5-bus fixture's are, gets the paper's day, whatever its lines:
    households with rooftop PV at buses 2 and 4 (bus 4 dominant), an
    industrial consumer with a small PV plant at bus 5, and nothing at
    bus 3. Any other gets a light residential load at each PQ bus, no PV.
    """
    pq_ids = [b.id for b in graph.buses if b.kind is BusKind.PQ]
    if set(pq_ids) == {2, 3, 4, 5}:
        loads = {2: residential_curve(*_RES_LIGHT), 4: residential_curve(*_RES_HEAVY),
                 5: industrial_curve()}
        pv = {bus: pv_curve(peak) for bus, peak in sorted(_PV_PEAK_BY_BUS.items())}
    else:
        loads = {bus: residential_curve(*_RES_LIGHT) for bus in pq_ids}
        pv = {}
    p = np.zeros((N_STEPS, graph.n_bus))
    q = np.zeros((N_STEPS, graph.n_bus))
    for bus, load in loads.items():  # all loads first, then all PV
        col = graph.bus_index(bus)
        p[:, col] -= load
        q[:, col] -= _LOAD_Q_RATIO * load
    for bus, gen in pv.items():
        col = graph.bus_index(bus)
        p[:, col] += gen
        q[:, col] -= _PV_VAR_ABSORPTION * gen
    return p, q, tuple(sorted(loads.keys() | pv.keys()))


def _read_profile_rows(path: str | Path) -> tuple[dict, dict[int, int]]:
    """{(t, bus): (p, q)} from a profile CSV, and the line on which each bus
    first appears. Malformed rows, and bytes that are not UTF-8, raise
    ValueError naming path:line."""
    path = Path(path)
    values: dict[tuple[int, int], tuple[float, float]] = {}
    first_line: dict[int, int] = {}
    row_line: dict[tuple[int, int], int] = {}
    reader = csv.DictReader(io.StringIO(read_utf8(path), newline=""))
    try:
        expected = {"time_index", "bus_id", "p_pu", "q_pu"}
        if reader.fieldnames is None or not expected.issubset(reader.fieldnames):
            raise ValueError(f"{path}: expected header columns {sorted(expected)}")
        for row in reader:
            line = reader.line_num
            if None in row or None in row.values():  # extra or missing fields
                raise ValueError(f"{path}:{line}: expected {len(reader.fieldnames)} fields")
            try:
                t = int(row["time_index"])
                bus = int(row["bus_id"])
                value = (float(row["p_pu"]), float(row["q_pu"]))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{line}: cannot parse row: {exc}") from None
            if not all(math.isfinite(x) for x in value):
                raise ValueError(f"{path}:{line}: p_pu and q_pu must be finite")
            if not 0 <= t < N_STEPS:
                raise ValueError(f"{path}:{line}: time_index {t} is outside 0..{N_STEPS - 1}")
            if (t, bus) in row_line:
                raise ValueError(f"{path}:{line}: duplicate row for time_index {t}, "
                                 f"bus {bus} (first on line {row_line[(t, bus)]})")
            row_line[(t, bus)] = line
            first_line.setdefault(bus, line)
            values[t, bus] = value
    except csv.Error as exc:  # e.g. a field longer than the csv field size limit
        line = reader.reader.line_num  # reader.line_num stops at the last good row
        raise ValueError(f"{path}:{line}: cannot parse row: {exc}") from None
    return values, first_line


def load_injections(graph: NetworkGraph,
                    source: str | Path) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """The day's net injections (generation minus load) named by a config or
    CLI value, "default" or a CSV path, as (p, q, monitored).

    `p` and `q` are (steps, buses) tables, buses by position in
    `graph.bus_ids`, the slack column zero. `monitored` holds the sorted
    ids of the buses that carry a profile: these are the SCADA buses, even
    where a profile is zero all day.

    A CSV has header time_index,bus_id,p_pu,q_pu and holds net injections
    (generation positive), at least one row; each bus needs all 96 time
    steps, each (time_index, bus_id) one row. A row for a bus the network
    lacks, or for the slack bus (whose injection is not specified), is
    rejected with its line number.
    """
    if source == "default":
        return _default_injections(graph)
    values, first_line = _read_profile_rows(source)
    if not values:
        raise ValueError(f"{source}: no profile rows")
    for bus, line in first_line.items():
        if bus not in graph.bus_ids:
            raise ValueError(f"{source}:{line}: bus {bus} is not in the network")
        if bus == graph.bus_ids[graph.slack_index]:
            raise ValueError(f"{source}:{line}: bus {bus} is the slack bus, "
                             "which takes no injection profile")
    monitored = tuple(sorted(first_line))
    for bus in monitored:
        missing = [t for t in range(N_STEPS) if (t, bus) not in values]
        if missing:
            listed = ", ".join(map(str, missing[:5])) + (", ..." if len(missing) > 5 else "")
            raise ValueError(f"{source}: bus {bus} missing time steps {listed} "
                             f"({len(missing)} of {N_STEPS})")
    steps = [t for t, _ in values]
    cols = [graph.bus_index(bus) for _, bus in values]
    pq = np.array(list(values.values()))
    p = np.zeros((N_STEPS, graph.n_bus))
    q = np.zeros((N_STEPS, graph.n_bus))
    p[steps, cols] += pq[:, 0]
    q[steps, cols] += pq[:, 1]
    return p, q, monitored
