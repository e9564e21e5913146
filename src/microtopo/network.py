"""Microgrid network model: buses, switched lines, candidate topologies.

Builds incidence and bus-admittance matrices for any switch configuration,
checks that a configuration keeps every bus reachable from the slack bus,
and loads network definition files (see `data/fivebus.net` for the format).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np


class NetworkError(Exception):
    """Base class for network definition and configuration problems."""


class ParseError(NetworkError):
    """A network definition file could not be parsed."""


class ValidationError(NetworkError):
    """A parsed network violates one or more structural invariants."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))

    def __reduce__(self):
        return type(self), (self.violations,)


class ConfigurationError(NetworkError):
    """A topology references a switch that does not exist."""


class TopologyError(NetworkError):
    """A switch configuration islands part of the grid."""


class BusKind(Enum):
    SLACK = "slack"
    PQ = "pq"


@dataclass(frozen=True)
class Bus:
    id: int
    kind: BusKind


@dataclass(frozen=True)
class Line:
    id: str
    from_bus: int
    to_bus: int
    r_pu: float
    x_pu: float
    switch_id: str

    @property
    def impedance(self) -> complex:
        return complex(self.r_pu, self.x_pu)

    @property
    def admittance(self) -> complex:
        return 1.0 / self.impedance


@dataclass(frozen=True)
class TopologyConfig:
    """One candidate switch configuration (which line switches are closed)."""

    id: str
    closed_switches: frozenset[str]


@dataclass(frozen=True)
class ConnectivityReport:
    connected: bool
    unreachable: tuple[int, ...]


@dataclass(frozen=True)
class NetworkGraph:
    """Buses in id order: a bus's position is its row in every per-bus array."""

    buses: tuple[Bus, ...]
    lines: tuple[Line, ...]

    def __post_init__(self):
        if list(self.bus_ids) != sorted(self.bus_ids):
            raise ValueError(f"buses must be in id order, got {list(self.bus_ids)}")

    @property
    def n_bus(self) -> int:
        return len(self.buses)

    @property
    def bus_ids(self) -> tuple[int, ...]:
        return tuple(b.id for b in self.buses)

    @property
    def slack_bus(self) -> Bus:
        return next(b for b in self.buses if b.kind is BusKind.SLACK)

    @property
    def slack_index(self) -> int:
        return next(i for i, b in enumerate(self.buses) if b.kind is BusKind.SLACK)

    def bus_index(self, bus_id: int) -> int:
        try:
            return self.bus_ids.index(bus_id)
        except ValueError:
            raise KeyError(f"unknown bus id {bus_id}") from None

    def switch_ids(self) -> frozenset[str]:
        return frozenset(line.switch_id for line in self.lines)

    def closed_lines(self, topo: TopologyConfig) -> tuple[Line, ...]:
        """Lines whose switch is closed under `topo`, in file order."""
        unknown = topo.closed_switches - self.switch_ids()
        if unknown:
            raise ConfigurationError(
                f"topology {topo.id} references unknown switches: "
                f"{sorted(unknown)}"
            )
        return tuple(l for l in self.lines if l.switch_id in topo.closed_switches)


def build_incidence_matrix(graph: NetworkGraph, topo: TopologyConfig) -> np.ndarray:
    """Oriented incidence matrix over closed lines.

    One row per closed line: -1 at the from-bus column, +1 at the to-bus
    column. Shape is (n_closed_lines, n_bus); 0 x N when nothing is closed.
    """
    closed = graph.closed_lines(topo)
    a = np.zeros((len(closed), graph.n_bus), dtype=int)
    for row, line in enumerate(closed):
        a[row, graph.bus_index(line.from_bus)] = -1
        a[row, graph.bus_index(line.to_bus)] = 1
    return a


def check_connectivity(graph: NetworkGraph, topo: TopologyConfig) -> ConnectivityReport:
    """Breadth-first reachability from the slack bus over closed lines."""
    closed = graph.closed_lines(topo)
    adjacency: dict[int, set[int]] = {b.id: set() for b in graph.buses}
    for line in closed:
        adjacency[line.from_bus].add(line.to_bus)
        adjacency[line.to_bus].add(line.from_bus)

    seen = {graph.slack_bus.id}
    frontier = [graph.slack_bus.id]
    while frontier:
        nxt = []
        for node in frontier:
            for nb in adjacency[node]:
                if nb not in seen:
                    seen.add(nb)
                    nxt.append(nb)
        frontier = nxt

    unreachable = tuple(sorted(set(graph.bus_ids) - seen))
    return ConnectivityReport(connected=not unreachable, unreachable=unreachable)


def build_ybus(graph: NetworkGraph, topo: TopologyConfig) -> np.ndarray:
    """Bus admittance matrix for the closed lines of `topo`.

    Diagonal entries sum the admittances of incident closed lines; the
    (i, j) off-diagonal is minus the line admittance when line ij is closed.
    Raises TopologyError when the configuration islands part of the grid.
    """
    report = check_connectivity(graph, topo)
    if not report.connected:
        raise TopologyError(
            f"topology {topo.id} leaves buses unreachable from the slack bus: "
            f"{list(report.unreachable)}"
        )
    n = graph.n_bus
    y = np.zeros((n, n), dtype=complex)
    for line in graph.closed_lines(topo):
        i = graph.bus_index(line.from_bus)
        j = graph.bus_index(line.to_bus)
        yl = line.admittance
        y[i, i] += yl
        y[j, j] += yl
        y[i, j] -= yl
        y[j, i] -= yl
    return y


def read_utf8(path: Path, error: type[Exception] = ValueError) -> str:
    """The text of `path`, as UTF-8 without a leading byte-order mark; a byte
    that is not UTF-8 raises `error` naming path:line, the line counted as
    `str.splitlines` counts it."""
    try:
        return path.read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        data = exc.object  # the bytes after the byte-order mark, if any
        line = len((data[:exc.start].decode() + "x").splitlines())
        raise error(f"{path}:{line}: not UTF-8 text: byte 0x{data[exc.start]:02x} "
                    f"({exc.reason})") from None


def _parse_sections(path: Path) -> dict[str, list[tuple[int, str]]]:
    sections: dict = dict.fromkeys(("buses", "lines", "topologies"))
    current: str | None = None
    text = read_utf8(path, ParseError)
    if not text.strip():
        raise ParseError(f"{path}: file is empty")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            current = stripped[1:-1].strip().lower()
            if current not in sections:
                raise ParseError(f"{path}:{lineno}: unknown section [{current}]")
            if sections[current] is None:
                sections[current] = []
            continue
        if current is None:
            raise ParseError(f"{path}:{lineno}: data before any [section] header")
        sections[current].append((lineno, stripped))
    for name, rows in sections.items():
        if rows is None:
            raise ParseError(f"{path}: missing [{name}] section")
    return sections


def load_network(path: str | Path) -> tuple[NetworkGraph, list[TopologyConfig]]:
    """Load a network definition file and its candidate topologies. The
    graph holds the buses in id order, whatever their order in the file.

    Raises ParseError on malformed rows (with line numbers) and
    ValidationError listing every violated invariant at once.
    """
    path = Path(path)
    sections = _parse_sections(path)

    buses: list[Bus] = []
    for lineno, row in sections["buses"]:
        fields = [f.strip() for f in row.split(",")]
        if len(fields) != 3:
            raise ParseError(f"{path}:{lineno}: expected 'id,kind,base_voltage'")
        try:
            bus = Bus(id=int(fields[0]), kind=BusKind(fields[1].lower()))
            base_voltage = float(fields[2])
        except (ValueError, KeyError) as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
        if not 0 < base_voltage < math.inf:  # checked, but unused: the model is per-unit
            raise ParseError(f"{path}:{lineno}: base_voltage must be finite and positive, "
                             f"got {fields[2]}")
        buses.append(bus)

    lines: list[Line] = []
    for lineno, row in sections["lines"]:
        fields = [f.strip() for f in row.split(",")]
        if len(fields) != 6:
            raise ParseError(f"{path}:{lineno}: expected 'id,from,to,r_pu,x_pu,switch'")
        try:
            line = Line(id=fields[0], from_bus=int(fields[1]), to_bus=int(fields[2]),
                        r_pu=float(fields[3]), x_pu=float(fields[4]), switch_id=fields[5])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
        if not (math.isfinite(line.r_pu) and math.isfinite(line.x_pu)):
            raise ParseError(f"{path}:{lineno}: r_pu and x_pu must be finite")
        lines.append(line)

    topologies: list[TopologyConfig] = []
    for lineno, row in sections["topologies"]:
        fields = [f.strip() for f in row.split(",")]
        if len(fields) != 2:
            raise ParseError(f"{path}:{lineno}: expected 'id,closed_switch_list'")
        closed = frozenset(s.strip() for s in fields[1].split(";") if s.strip())
        topologies.append(TopologyConfig(id=fields[0], closed_switches=closed))

    graph = NetworkGraph(buses=tuple(sorted(buses, key=lambda b: b.id)), lines=tuple(lines))
    violations = validate_network(graph, topologies)
    if violations:
        raise ValidationError(violations)
    return graph, topologies


def validate_network(graph: NetworkGraph, topologies: list[TopologyConfig]) -> list[str]:
    """All invariant violations of a graph + topology set, empty when valid."""
    violations: list[str] = []
    ids = [b.id for b in graph.buses]
    if len(set(ids)) != len(ids):
        violations.append("duplicate bus ids")
    if ids != list(range(1, len(ids) + 1)):  # the graph holds them sorted
        violations.append("bus ids must be contiguous from 1")
    n_slack = sum(1 for b in graph.buses if b.kind is BusKind.SLACK)
    if n_slack != 1:
        violations.append(f"exactly one slack bus required, found {n_slack}")
    if not any(b.kind is BusKind.PQ for b in graph.buses):
        violations.append("no PQ bus: the power flow has no unknowns")

    line_ids = [l.id for l in graph.lines]
    if len(set(line_ids)) != len(line_ids):
        violations.append("duplicate line ids")
    switch_ids = [l.switch_id for l in graph.lines]
    if len(set(switch_ids)) != len(switch_ids):
        violations.append("duplicate switch ids (one switch per line)")
    bus_id_set = set(ids)
    for line in graph.lines:
        if line.from_bus == line.to_bus:
            violations.append(f"line {line.id}: from_bus equals to_bus")
        if line.from_bus not in bus_id_set or line.to_bus not in bus_id_set:
            violations.append(f"line {line.id}: endpoint references unknown bus")
        if line.r_pu < 0:
            violations.append(f"line {line.id}: negative resistance {line.r_pu}")
        if abs(line.impedance) == 0:
            violations.append(f"line {line.id}: zero impedance")

    topo_ids = [t.id for t in topologies]
    if not topo_ids:
        violations.append("no topologies: the detector needs at least one candidate")
    if len(set(topo_ids)) != len(topo_ids):
        violations.append("duplicate topology ids")
    if violations:
        return violations  # connectivity checks need a structurally sound graph

    known_switches = graph.switch_ids()
    for topo in topologies:
        unknown = topo.closed_switches - known_switches
        if unknown:
            violations.append(
                f"topology {topo.id}: unknown switches {sorted(unknown)}")
            continue
        report = check_connectivity(graph, topo)
        if not report.connected:
            violations.append(
                f"topology {topo.id}: buses unreachable from slack: "
                f"{list(report.unreachable)}")
    return violations
