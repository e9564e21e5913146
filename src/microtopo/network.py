"""Microgrid network model: buses, switched lines, candidate topologies.

Builds incidence and bus-admittance matrices for any switch configuration,
finds the buses a configuration leaves unreachable from the slack bus,
and loads network definition files (see `data/fivebus.net` for the format).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
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

    @cached_property
    def bus_ids(self) -> tuple[int, ...]:
        return tuple(b.id for b in self.buses)

    @cached_property
    def _ybus(self) -> dict:  # `build_ybus`'s matrices by topology, built once per graph
        return {}

    @cached_property
    def slack_index(self) -> int:
        return next(i for i, b in enumerate(self.buses) if b.kind is BusKind.SLACK)

    @cached_property
    def _positions(self) -> dict[int, int]:
        return {bus_id: i for i, bus_id in enumerate(self.bus_ids)}

    def bus_index(self, bus_id: int) -> int:
        try:
            return self._positions[bus_id]
        except KeyError:
            raise KeyError(f"unknown bus id {bus_id}") from None

    @cached_property
    def switch_ids(self) -> frozenset[str]:
        return frozenset(line.switch_id for line in self.lines)

    def closed_lines(self, topo: TopologyConfig) -> tuple[Line, ...]:
        """Closed lines of `topo`, in file order; an unknown switch raises ValidationError."""
        if unknown := topo.closed_switches - self.switch_ids:
            raise ValidationError([f"topology {topo.id}: unknown switches {sorted(unknown)}"])
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


def unreachable_buses(graph: NetworkGraph, topo: TopologyConfig) -> tuple[int, ...]:
    """Ids of the buses, in id order, that no path of closed lines joins to
    the slack bus: a breadth-first search over bus positions."""
    neighbours: list[list[int]] = [[] for _ in graph.buses]
    for line in graph.closed_lines(topo):
        i, j = graph.bus_index(line.from_bus), graph.bus_index(line.to_bus)
        neighbours[i].append(j)
        neighbours[j].append(i)
    queue = [graph.slack_index]
    reached = set(queue)
    for i in queue:  # the queue grows while it is read
        queue += [j for j in neighbours[i] if j not in reached]
        reached.update(neighbours[i])
    return tuple(b.id for i, b in enumerate(graph.buses) if i not in reached)


def build_ybus(graph: NetworkGraph, topo: TopologyConfig) -> np.ndarray:
    """Bus admittance matrix Aᵀ·diag(y)·A of the closed lines of `topo`, with A
    their incidence matrix and y their admittances, read-only and built once
    per graph. Raises ValidationError when the topology islands part of it."""
    if topo not in graph._ybus:
        if unreachable := unreachable_buses(graph, topo):
            raise ValidationError([f"topology {topo.id}: buses unreachable from slack: "
                                   f"{list(unreachable)}"])
        a = build_incidence_matrix(graph, topo)
        y = np.array([line.admittance for line in graph.closed_lines(topo)], dtype=complex)
        # einsum, unlike a BLAS product, adds each entry's terms in line order to
        # a zero: the bytes of summing line by line, +0.0 for structural zeros.
        graph._ybus[topo] = np.einsum("kp,k,kq->pq", a, y, a)
        graph._ybus[topo].flags.writeable = False
    return graph._ybus[topo]


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


def _bus(bus_id: str, kind: str, base_voltage: str) -> Bus:
    bus = Bus(id=int(bus_id), kind=BusKind(kind.lower()))
    if not 0 < float(base_voltage) < math.inf:  # checked, but unused: the model is per-unit
        raise ValueError(f"base_voltage must be finite and positive, got {base_voltage}")
    return bus


def _line(line_id: str, from_bus: str, to_bus: str, r_pu: str, x_pu: str, switch_id: str) -> Line:
    line = Line(line_id, int(from_bus), int(to_bus), float(r_pu), float(x_pu), switch_id)
    if not (math.isfinite(line.r_pu) and math.isfinite(line.x_pu)):
        raise ValueError("r_pu and x_pu must be finite")
    return line


def _topology(topo_id: str, closed_switch_list: str) -> TopologyConfig:
    switches = [s.strip() for s in closed_switch_list.split(";")] if closed_switch_list else []
    if "" in switches or len(set(switches)) != len(switches):
        raise ValueError(f"empty or repeated item in closed_switch_list {closed_switch_list!r}")
    return TopologyConfig(topo_id, frozenset(switches))


# Each section's fields, and the function that makes a row's object from them.
_SECTIONS = {"buses": (("id", "kind", "base_voltage"), _bus),
             "lines": (("id", "from", "to", "r_pu", "x_pu", "switch"), _line),
             "topologies": (("id", "closed_switch_list"), _topology)}


def _read_sections(path: Path) -> dict[str, list]:
    """The objects of each section's rows, made from their stripped comma-separated
    fields. A wrong field count, an empty field (but for an empty closed-switch list)
    or a field or list item the section's function rejects raises ParseError."""
    sections: dict[str, list] = {}
    headers: dict[str, int] = {}  # the line of each section's header
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
            if current not in _SECTIONS:
                raise ParseError(f"{path}:{lineno}: unknown section [{current}]")
            if current in headers:
                raise ParseError(f"{path}:{lineno}: section [{current}] given twice "
                                 f"(first on line {headers[current]})")
            headers[current] = lineno
            names, make = _SECTIONS[current]
            rows = sections[current] = []
            continue
        if current is None:
            raise ParseError(f"{path}:{lineno}: data before any [section] header")
        fields = [f.strip() for f in stripped.split(",")]
        try:
            if len(fields) != len(names):
                raise ValueError(f"expected '{','.join(names)}'")
            # Only a topology's closed-switch list, its last field, may be empty.
            if "" in fields and names[fields.index("")] != "closed_switch_list":
                raise ValueError(f"empty {names[fields.index('')]}")
            rows.append(make(*fields))
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
    for name in _SECTIONS:
        if name not in sections:
            raise ParseError(f"{path}: missing [{name}] section")
    return sections


def load_network(path: str | Path) -> tuple[NetworkGraph, list[TopologyConfig]]:
    """Load a network definition file and its candidate topologies. The
    graph holds the buses in id order, whatever their order in the file.

    Raises ParseError on malformed rows (with line numbers) and
    ValidationError listing every violated invariant at once.
    """
    sections = _read_sections(Path(path))
    graph = NetworkGraph(buses=tuple(sorted(sections["buses"], key=lambda b: b.id)),
                         lines=tuple(sections["lines"]))
    topologies = sections["topologies"]
    violations = validate_network(graph, topologies)
    if violations:
        raise ValidationError(violations)
    return graph, topologies


def validate_network(graph: NetworkGraph, topologies: list[TopologyConfig]) -> list[str]:
    """All invariant violations of a graph + topology set, empty when valid."""
    violations: list[str] = []
    ids = graph.bus_ids
    if len(set(ids)) != len(ids):
        violations.append("duplicate bus ids")
    if ids != tuple(range(1, len(ids) + 1)):  # the graph holds them sorted
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
        elif not (math.isfinite((y := line.admittance).real) and math.isfinite(y.imag)):
            violations.append(f"line {line.id}: admittance is not finite")

    topo_ids = [t.id for t in topologies]
    if not topo_ids:
        violations.append("no topologies: the detector needs at least one candidate")
    if len(set(topo_ids)) != len(topo_ids):
        violations.append("duplicate topology ids")
    if violations:
        return violations  # connectivity checks need a structurally sound graph

    seen: dict[bytes, str] = {}  # Ybus bytes -> first topology
    for topo in topologies:
        try:
            first = seen.setdefault(build_ybus(graph, topo).tobytes(), topo.id)
        except ValidationError as exc:  # an unknown switch or an islanded bus
            violations += exc.violations
            continue
        if first != topo.id:
            violations.append(f"topologies {first} and {topo.id} have the same admittance "
                              "matrix, so no measurement tells them apart")
    return violations
