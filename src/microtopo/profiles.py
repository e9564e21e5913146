"""Daily load and PV generation profiles at 15-minute resolution.

Ships deterministic synthetic curves (residential double peak, industrial
daytime plateau, midday PV bell) and a CSV loader for user-supplied
profiles. All powers are per-unit.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .network import BusKind, NetworkGraph, bus_positions
from .powerflow import InjectionSnapshot

N_STEPS = 96  # one day at 15-minute resolution


class ProfileClass(Enum):
    RESIDENTIAL = "residential"
    INDUSTRIAL = "industrial"
    PV = "pv"
    CUSTOM = "custom"  # values are net injection, generation positive

    @property
    def injection_sign(self) -> float:
        """+1 when values feed power in, -1 when they consume."""
        return -1.0 if self in (ProfileClass.RESIDENTIAL, ProfileClass.INDUSTRIAL) else 1.0


@dataclass(frozen=True)
class LoadProfile:
    bus_id: int
    klass: ProfileClass
    values: tuple[tuple[float, float], ...]  # 96 (p, q) pairs

    def __post_init__(self):
        if len(self.values) != N_STEPS:
            raise ValueError(f"profile needs {N_STEPS} entries, got {len(self.values)}")


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


def _load_pairs(p: np.ndarray) -> tuple[tuple[float, float], ...]:
    return tuple((float(pi), float(pi * _LOAD_Q_RATIO)) for pi in p)


def _pv_pairs(p: np.ndarray) -> tuple[tuple[float, float], ...]:
    return tuple((float(pi), float(-pi * _PV_VAR_ABSORPTION)) for pi in p)


def generate_default_profiles(graph: NetworkGraph) -> list[LoadProfile]:
    """Deterministic synthetic daily profiles for every load bus.

    The bundled 5-bus fixture gets households with rooftop PV at buses 2
    and 4 (bus 4 dominant), an industrial consumer with a small PV plant
    at bus 5, and nothing at bus 3. Any other graph gets a residential
    profile at each non-slack bus.
    """
    pq_ids = [b.id for b in graph.buses if b.kind is BusKind.PQ]
    if set(pq_ids) == {2, 3, 4, 5}:
        profiles = [
            LoadProfile(2, ProfileClass.RESIDENTIAL, _load_pairs(residential_curve(*_RES_LIGHT))),
            LoadProfile(4, ProfileClass.RESIDENTIAL, _load_pairs(residential_curve(*_RES_HEAVY))),
            LoadProfile(5, ProfileClass.INDUSTRIAL, _load_pairs(industrial_curve())),
        ]
        for bus_id, peak in sorted(_PV_PEAK_BY_BUS.items()):
            profiles.append(LoadProfile(bus_id, ProfileClass.PV, _pv_pairs(pv_curve(peak))))
        return profiles
    return [LoadProfile(bus_id, ProfileClass.RESIDENTIAL,
                        _load_pairs(residential_curve(*_RES_LIGHT)))
            for bus_id in pq_ids]


def _read_profile_rows(path: str | Path) -> tuple[dict, dict[int, int]]:
    """{bus: {t: (p, q)}} from a profile CSV, and the line on which each bus
    first appears. Malformed rows raise ValueError naming path:line."""
    path = Path(path)
    per_bus: dict[int, dict[int, tuple[float, float]]] = {}
    first_line: dict[int, int] = {}
    row_line: dict[tuple[int, int], int] = {}
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        expected = {"time_index", "bus_id", "p_pu", "q_pu"}
        if reader.fieldnames is None or not expected.issubset(reader.fieldnames):
            raise ValueError(f"{path}: expected header columns {sorted(expected)}")
        for row in reader:
            line = reader.line_num
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
            per_bus.setdefault(bus, {})[t] = value
    return per_bus, first_line


def _profiles_from_rows(path: str | Path, per_bus: dict) -> list[LoadProfile]:
    profiles = []
    for bus, steps in sorted(per_bus.items()):
        missing = set(range(N_STEPS)) - set(steps)
        if missing:
            raise ValueError(f"{path}: bus {bus} missing time steps {sorted(missing)[:5]}...")
        values = tuple(steps[t] for t in range(N_STEPS))
        profiles.append(LoadProfile(bus_id=bus, klass=ProfileClass.CUSTOM, values=values))
    return profiles


def load_profiles_csv(path: str | Path) -> list[LoadProfile]:
    """Read profiles from CSV with header time_index,bus_id,p_pu,q_pu.

    Values are net injections (generation minus load, generation positive);
    each bus needs all 96 time steps, each (time_index, bus_id) one row.
    """
    per_bus, _ = _read_profile_rows(path)
    return _profiles_from_rows(path, per_bus)


def load_profiles(graph: NetworkGraph, source: str | Path) -> list[LoadProfile]:
    """Profiles named by a config or CLI value: "default" or a CSV path.

    A CSV row for a bus the network lacks, or for the slack bus (whose
    injection is not specified), is rejected with its line number.
    """
    if source == "default":
        return generate_default_profiles(graph)
    per_bus, first_line = _read_profile_rows(source)
    for bus, line in first_line.items():
        if bus not in graph.bus_ids:
            raise ValueError(f"{source}:{line}: bus {bus} is not in the network")
        if bus == graph.slack_bus.id:
            raise ValueError(f"{source}:{line}: bus {bus} is the slack bus, "
                             "which takes no injection profile")
    return _profiles_from_rows(source, per_bus)


def injections_by_step(graph: NetworkGraph,
                       profiles: list[LoadProfile]) -> tuple[InjectionSnapshot, ...]:
    """Net injection snapshot (generation minus load) at each time step."""
    pq = np.zeros((N_STEPS, graph.n_bus, 2))
    rows = bus_positions(graph.bus_ids, [prof.bus_id for prof in profiles])
    for prof, row in zip(profiles, rows):
        pq[:, row] += prof.klass.injection_sign * np.array(prof.values)
    pq[:, graph.slack_index] = 0.0
    bus_ids = graph.bus_ids
    return tuple(InjectionSnapshot(bus_ids=bus_ids, p=step[:, 0], q=step[:, 1])
                 for step in pq)


def profile_buses(profiles: list[LoadProfile]) -> tuple[int, ...]:
    """Buses carrying any profile: these are the SCADA-monitored buses."""
    return tuple(sorted({p.bus_id for p in profiles}))
