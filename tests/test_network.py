import codecs
import contextlib
import io
import itertools
import pickle
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microtopo.cli import EXIT_OK, EXIT_VALIDATION, main
from microtopo.network import (
    Bus,
    BusKind,
    ConfigurationError,
    Line,
    NetworkGraph,
    ParseError,
    TopologyConfig,
    TopologyError,
    ValidationError,
    build_incidence_matrix,
    build_ybus,
    load_network,
    unreachable_buses,
)
from microtopo.scenario import fixture_path

ALL_SWITCHES = ("S12", "S13", "S24", "S34", "S35")


def test_fixture_loads(graph, topologies):
    assert graph.n_bus == 5
    assert len(graph.lines) == 5
    assert len(topologies) == 5
    assert [t.id for t in topologies] == ["I", "II", "III", "IV", "V"]
    assert graph.slack_bus.id == 1


def test_fixture_impedances(graph):
    by_id = {l.id: l for l in graph.lines}
    assert by_id["L12"].impedance == complex(0.009, 0.011)
    assert by_id["L24"].impedance == complex(0.019, 0.022)
    assert by_id["L13"].impedance == complex(0.005, 0.006)


def test_incidence_single_closed_line(graph):
    topo = TopologyConfig("t", frozenset({"S12"}))
    a = build_incidence_matrix(graph, topo)
    assert a.shape == (1, 5)
    assert a[0, 0] == -1 and a[0, 1] == 1
    assert np.count_nonzero(a) == 2


def test_incidence_empty_topology(graph):
    a = build_incidence_matrix(graph, TopologyConfig("t", frozenset()))
    assert a.shape == (0, 5)


def test_incidence_topology_v_row_sums(graph, topo_by_id):
    a = build_incidence_matrix(graph, topo_by_id["V"])
    assert a.shape == (5, 5)
    assert np.all(a.sum(axis=1) == 0)
    # every row: one -1 and one +1
    assert np.all((a == -1).sum(axis=1) == 1)
    assert np.all((a == 1).sum(axis=1) == 1)


def test_incidence_unknown_switch(graph):
    with pytest.raises(ConfigurationError):
        build_incidence_matrix(graph, TopologyConfig("t", frozenset({"S99"})))


def test_ybus_single_line_value():
    buses = (Bus(1, BusKind.SLACK), Bus(2, BusKind.PQ), Bus(3, BusKind.PQ))
    lines = (Line("L13", 1, 3, 0.005, 0.006, "S13"),
             Line("L23", 2, 3, 0.005, 0.006, "S23"))
    graph = NetworkGraph(buses, lines)
    # only the slack-to-3 line closed; bus 2 unreachable, so test via direct
    # entries of a connected variant instead
    topo = TopologyConfig("t", frozenset({"S13", "S23"}))
    y = build_ybus(graph, topo)
    y13 = 1 / complex(0.005, 0.006)
    assert y13 == pytest.approx(complex(81.967213, -98.360656), abs=1e-5)
    assert y[0, 2] == pytest.approx(-y13)
    assert y[0, 0] == pytest.approx(y13)
    assert y[2, 2] == pytest.approx(2 * y13)


def _ybus_per_line(graph, topo):
    """Reference Ybus, independent of the incidence matrix: each closed line,
    in file order, adds its admittance to its two diagonal entries and
    subtracts it from its two off-diagonal ones."""
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


def _assert_same_bytes(y, reference):
    """Equal dtype, shape and bytes: signed zeros count, unlike ==."""
    assert (y.dtype, y.shape) == (reference.dtype, reference.shape)
    assert y.tobytes() == reference.tobytes()


def test_ybus_bytes_match_per_line_oracle(graph, topologies):
    """The incidence product Aᵀ·diag(y)·A gives the per-line sums bit for
    bit, on the fixture's topologies and on every connected set of its
    closed switches."""
    configurations = list(topologies) + [
        TopologyConfig("t", frozenset(subset)) for k in range(6)
        for subset in itertools.combinations(ALL_SWITCHES, k)]
    checked = 0
    for topo in configurations:
        if unreachable_buses(graph, topo):
            continue
        _assert_same_bytes(build_ybus(graph, topo), _ybus_per_line(graph, topo))
        checked += 1
    assert checked == len(topologies) + 5  # the 4 spanning trees and all 5 lines


def test_ybus_symmetric_and_zero_row_sums(graph, topologies):
    for topo in topologies:
        y = build_ybus(graph, topo)
        assert np.max(np.abs(y - y.T)) < 1e-15
        assert np.max(np.abs(y.sum(axis=1))) < 1e-12


def test_ybus_topology_v_bus3_diagonal(graph, topo_by_id):
    y = build_ybus(graph, topo_by_id["V"])
    by_id = {l.id: l for l in graph.lines}
    expected = sum(by_id[l].admittance for l in ("L13", "L34", "L35"))
    assert y[2, 2] == pytest.approx(expected)


def test_ybus_disconnected_raises(graph):
    topo = TopologyConfig("t", frozenset({"S12"}))
    with pytest.raises(TopologyError) as err:
        build_ybus(graph, topo)
    assert "3" in str(err.value) and "4" in str(err.value) and "5" in str(err.value)


def test_opening_one_line_changes_four_entries(graph, topo_by_id):
    y_full = build_ybus(graph, topo_by_id["V"])
    for drop in ALL_SWITCHES:
        if drop == "S35":  # bus 5 has no other line; dropping it islands the bus
            continue
        closed = frozenset(s for s in ALL_SWITCHES if s != drop)
        y = build_ybus(graph, TopologyConfig("t", closed))
        changed = np.abs(y - y_full) > 1e-15
        assert changed.sum() == 4
        assert np.trace(changed) == 2  # two diagonal entries


def test_connectivity_fixture_topologies(graph, topologies):
    for topo in topologies:
        assert unreachable_buses(graph, topo) == ()


def test_connectivity_all_open(graph):
    assert unreachable_buses(graph, TopologyConfig("t", frozenset())) == (2, 3, 4, 5)


def _reachable_bruteforce(graph, closed):
    """Transitive-closure oracle over the boolean adjacency matrix."""
    n = graph.n_bus
    adj = np.eye(n, dtype=bool)
    for line in graph.lines:
        if line.switch_id in closed:
            i, j = graph.bus_index(line.from_bus), graph.bus_index(line.to_bus)
            adj[i, j] = adj[j, i] = True
    reach = adj.copy()
    for _ in range(n):
        reach = reach | (reach @ adj)
    return reach[graph.slack_index]


def test_connectivity_matches_bruteforce_all_subsets(graph):
    for k in range(6):
        for subset in itertools.combinations(ALL_SWITCHES, k):
            closed = frozenset(subset)
            reach = _reachable_bruteforce(graph, closed)
            expected_unreachable = tuple(
                graph.bus_ids[i] for i in range(graph.n_bus) if not reach[i])
            assert unreachable_buses(graph, TopologyConfig("t", closed)) == expected_unreachable


def _write(tmp_path, text):
    path = tmp_path / "net.net"
    path.write_text(text)
    return path


GOOD = """\
[buses]
1,slack,1.0
2,pq,1.0
[lines]
L12,1,2,0.01,0.01,S12
[topologies]
A,S12
"""


def test_load_minimal_network(tmp_path):
    graph, topos = load_network(_write(tmp_path, GOOD))
    assert graph.n_bus == 2
    assert topos[0].closed_switches == frozenset({"S12"})


def test_load_two_slack_buses(tmp_path):
    bad = GOOD.replace("2,pq,1.0", "2,slack,1.0")
    with pytest.raises(ValidationError, match="slack"):
        load_network(_write(tmp_path, bad))


def test_load_negative_resistance(tmp_path):
    bad = GOOD.replace("0.01,0.01", "-0.01,0.01")
    with pytest.raises(ValidationError, match="negative resistance"):
        load_network(_write(tmp_path, bad))


def test_load_disconnected_topology_listed(tmp_path):
    bad = GOOD.replace("A,S12", "A,")
    with pytest.raises(ValidationError, match="unreachable"):
        load_network(_write(tmp_path, bad))


def test_load_empty_file(tmp_path):
    with pytest.raises(ParseError):
        load_network(_write(tmp_path, ""))


def test_load_malformed_row_reports_line(tmp_path):
    bad = GOOD.replace("L12,1,2,0.01,0.01,S12", "L12,1,2,0.01")
    with pytest.raises(ParseError, match=":5"):
        load_network(_write(tmp_path, bad))


def test_graph_rejects_buses_out_of_id_order():
    """A bus's position is its row in every per-bus array, so a graph holds
    its buses in id order and no other."""
    with pytest.raises(ValueError, match=r"buses must be in id order, got \[2, 1\]"):
        NetworkGraph((Bus(2, BusKind.PQ), Bus(1, BusKind.SLACK)), ())


def test_undecodable_network_file_names_its_line(tmp_path, capsys):
    """A byte that is not UTF-8 is reported with path:line, like every other
    rejected row, not as a bare codec error."""
    path = tmp_path / "bad.net"
    path.write_bytes(GOOD.replace("2,pq", "2,p\xfcq").encode("latin-1"))
    message = f"{path}:3: not UTF-8 text: byte 0xfc (invalid start byte)"
    with pytest.raises(ParseError) as exc:
        load_network(path)
    assert str(exc.value) == message
    assert main(["validate", "--net", str(path)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {message}\n"


def test_byte_order_mark_is_not_data(tmp_path, capsys):
    """A network file saved with a UTF-8 byte-order mark loads like the same
    file without one, and a later byte that is not UTF-8 is still reported
    at its own line."""
    path = tmp_path / "bom.net"
    path.write_bytes(codecs.BOM_UTF8 + fixture_path("fivebus.net").read_bytes())
    assert load_network(path) == load_network(fixture_path("fivebus.net"))
    assert main(["validate", "--net", str(path)]) == EXIT_OK
    assert capsys.readouterr().out.startswith(f"{path}: OK\n")
    bad = tmp_path / "bad.net"
    bad.write_bytes(codecs.BOM_UTF8 + GOOD.replace("2,pq", "2,p\xfcq").encode("latin-1"))
    with pytest.raises(ParseError) as exc:
        load_network(bad)
    assert str(exc.value) == f"{bad}:3: not UTF-8 text: byte 0xfc (invalid start byte)"


def test_unknown_section_is_rejected_with_its_line(tmp_path, capsys):
    """A section other than [buses], [lines] and [topologies] is an error,
    not a block of rows that is silently ignored."""
    path = _write(tmp_path, GOOD + "[switches]\nS12,closed\n")
    with pytest.raises(ParseError) as exc:
        load_network(path)
    assert str(exc.value) == f"{path}:8: unknown section [switches]"
    assert main(["validate", "--net", str(path)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {path}:8: unknown section [switches]\n"


def test_repeated_section_is_rejected_with_both_lines(tmp_path, capsys):
    """A second [lines] header is an error, not more rows for the first
    [lines] section."""
    path = _write(tmp_path, GOOD + "[lines]\nL21,2,1,0.02,0.02,S21\n")
    message = f"{path}:8: section [lines] given twice (first on line 4)"
    with pytest.raises(ParseError) as exc:
        load_network(path)
    assert str(exc.value) == message
    assert main(["validate", "--net", str(path)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {message}\n"


def test_non_finite_admittance_is_a_violation(tmp_path, capsys):
    """An impedance so small that its inverse overflows is not zero, but its
    admittance is inf: validation reports it before any solve."""
    path = _write(tmp_path, GOOD.replace("L12,1,2,0.01,0.01,S12", "L12,1,2,1e-320,0,S12"))
    with pytest.raises(ValidationError) as err:
        load_network(path)
    assert err.value.violations == ["line L12: admittance is not finite"]
    assert main(["validate", "--net", str(path)]) == EXIT_VALIDATION
    assert "INVALID" in capsys.readouterr().out
    assert main(["library", "--net", str(path), "--out", str(tmp_path / "lib.csv")]) == EXIT_VALIDATION


def test_empty_topologies_section_is_a_violation(tmp_path, capsys):
    """A [topologies] section with no rows fails validation with exit 2,
    instead of passing as "0 topologies" and failing later in `library`
    and `experiment`."""
    path = _write(tmp_path, GOOD.replace("A,S12\n", ""))
    with pytest.raises(ValidationError) as err:
        load_network(path)
    assert err.value.violations == ["no topologies: the detector needs at least one candidate"]
    assert main(["validate", "--net", str(path)]) == EXIT_VALIDATION
    assert "no topologies" in capsys.readouterr().out


def test_slack_only_network_is_a_violation(tmp_path):
    """A network with no PQ bus leaves the power flow nothing to solve; it
    fails validation instead of crashing every solving command."""
    path = _write(tmp_path, "[buses]\n1,slack,1.0\n[lines]\n[topologies]\nA,\n")
    with pytest.raises(ValidationError) as err:
        load_network(path)
    assert err.value.violations == ["no PQ bus: the power flow has no unknowns"]


@pytest.mark.parametrize("lines, closed", [
    # the same closed switches under two names
    ("L12,1,2,0.01,0.01,S12\n", ("S12", "S12")),
    # two equal parallel lines, the second listed the other way round
    ("L12,1,2,0.01,0.01,S12\nL21,2,1,0.01,0.01,S21\n", ("S12", "S21")),
])
def test_topologies_that_close_the_same_lines_are_a_violation(tmp_path, capsys, lines, closed):
    """Two candidates whose closed lines are equal as a multiset of
    (unordered endpoints, r, x) have the same admittance matrix, so the
    same states in every case, and every trial of either would be
    inconclusive."""
    path = _write(tmp_path, "[buses]\n1,slack,1.0\n2,pq,1.0\n[lines]\n" + lines
                  + f"[topologies]\nA,{closed[0]}\nB,{closed[1]}\n")
    with pytest.raises(ValidationError) as err:
        load_network(path)
    assert err.value.violations == [
        "topologies A and B have the same admittance matrix, so no measurement tells them apart"]
    assert main(["validate", "--net", str(path)]) == EXIT_VALIDATION
    assert "INVALID" in capsys.readouterr().out


def test_topologies_with_equal_admittance_but_other_lines_are_a_violation(tmp_path, capsys):
    """One line of r = x = 0.01 and two parallel lines of r = x = 0.02 give
    byte-equal admittance matrices although the closed lines differ."""
    path = _write(tmp_path, "[buses]\n1,slack,1.0\n2,pq,1.0\n3,pq,1.0\n[lines]\n"
                  "L12,1,2,0.01,0.01,S12\nL12b,1,2,0.02,0.02,S12b\nL12c,1,2,0.02,0.02,S12c\n"
                  "L23,2,3,0.01,0.01,S23\n[topologies]\nA,S12;S23\nB,S12b;S12c;S23\n")
    with pytest.raises(ValidationError) as err:
        load_network(path)
    assert err.value.violations == [
        "topologies A and B have the same admittance matrix, so no measurement tells them apart"]
    assert main(["validate", "--net", str(path)]) == EXIT_VALIDATION
    assert "INVALID" in capsys.readouterr().out


def test_copy_of_a_bundled_topology_is_a_violation(tmp_path):
    """fivebus.net with a sixth topology that closes the switches of I."""
    path = _write(tmp_path, fixture_path("fivebus.net").read_text() + "Ib,S35;S34;S13;S12\n")
    with pytest.raises(ValidationError) as err:
        load_network(path)
    assert err.value.violations == [
        "topologies I and Ib have the same admittance matrix, so no measurement tells them "
        "apart"]


@pytest.mark.parametrize("closed", ["S12;;S12", "S12;", ";S12", "S12;S12", "S12 ; S12"])
def test_empty_or_repeated_closed_switch_is_rejected_with_its_line(tmp_path, capsys, closed):
    """An empty or repeated item of a closed-switch list is more likely a
    typo than intent: it is rejected, not dropped or merged."""
    path = _write(tmp_path, GOOD.replace("A,S12", f"A,{closed}"))
    message = f"empty or repeated item in closed_switch_list {closed!r}"
    with pytest.raises(ParseError) as exc:
        load_network(path)
    assert str(exc.value) == f"{path}:7: {message}"
    assert main(["validate", "--net", str(path)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {path}:7: {message}\n"


def test_wholly_empty_closed_switch_list_parses(tmp_path):
    """A topology may close no switch: it parses, and validation then
    reports what it leaves unreachable."""
    path = _write(tmp_path, GOOD + "B, \n")
    with pytest.raises(ValidationError) as err:
        load_network(path)
    assert err.value.violations == ["topology B: buses unreachable from slack: [2]"]


def test_validation_collects_multiple_violations(tmp_path):
    bad = """\
[buses]
1,slack,1.0
2,slack,1.0
[lines]
L12,1,2,-0.01,0.01,S12
L13,1,3,0.01,0.01,S13
[topologies]
A,S12
"""
    with pytest.raises(ValidationError) as err:
        load_network(_write(tmp_path, bad))
    assert len(err.value.violations) >= 3


def test_validation_error_survives_pickle():
    """A worker process's exception reaches the caller pickled."""
    err = pickle.loads(pickle.dumps(ValidationError(["a bad", "b bad"])))
    assert (str(err), err.violations) == ("a bad; b bad", ["a bad", "b bad"])


# Generated .net files: buses in any id order, one slack, a spanning tree of
# lines that every topology closes (so every topology is connected), extra
# lines each topology may open, no two topologies with the same admittance
# matrix (validation rejects them), sections in any order with comments,
# blank lines and spacing. Floats are written with repr, which parses back
# exactly.
_POSITIVE = st.floats(min_value=1e-6, max_value=1e3)


@st.composite
def _network_file(draw):
    """(text lines, rows, buses, lines, topologies): `rows` holds the
    (section, 0-based line, fields) of every data row."""
    n_bus = draw(st.integers(2, 6))
    order = draw(st.permutations(range(1, n_bus + 1)))
    slack = draw(st.sampled_from(order))
    buses = [Bus(id=b, kind=BusKind.SLACK if b == slack else BusKind.PQ) for b in order]
    pairs = [(draw(st.integers(1, k - 1)), k) for k in range(2, n_bus + 1)]
    pairs += draw(st.lists(st.tuples(st.integers(1, n_bus), st.integers(1, n_bus))
                           .filter(lambda ab: ab[0] != ab[1]), max_size=3))
    lines = [Line(id=f"L{i}", from_bus=a, to_bus=b, r_pu=draw(st.floats(0.0, 1.0)),
                  x_pu=draw(_POSITIVE), switch_id=f"S{i}") for i, (a, b) in enumerate(pairs)]
    tree = frozenset(line.switch_id for line in lines[:n_bus - 1])
    extra = [line.switch_id for line in lines[n_bus - 1:]]
    graph = NetworkGraph(buses=tuple(sorted(buses, key=lambda b: b.id)), lines=tuple(lines))
    closed_extra = st.lists(st.sampled_from(extra), unique=True) if extra else st.just([])
    topologies = [TopologyConfig(id=f"T{j}", closed_switches=tree | frozenset(chosen))
                  for j, chosen in enumerate(draw(st.lists(
                      closed_extra, min_size=1, max_size=3,
                      unique_by=lambda chosen: build_ybus(graph, TopologyConfig(
                          "", tree | frozenset(chosen))).tobytes())))]

    space = st.sampled_from(["", " ", "  "])
    sections = {
        "buses": [[str(b.id), draw(st.sampled_from([b.kind.value, b.kind.value.upper()])),
                   repr(draw(_POSITIVE))] for b in buses],
        "lines": [[l.id, str(l.from_bus), str(l.to_bus), repr(l.r_pu), repr(l.x_pu),
                   l.switch_id] for l in lines],
        "topologies": [[t.id, ";".join(sorted(t.closed_switches))] for t in topologies],
    }
    text, rows = [], []
    for name in draw(st.permutations(sorted(sections))):
        text.append(draw(st.sampled_from([f"[{name}]", f" [{name.upper()}] "])))
        for fields in sections[name]:
            if draw(st.booleans()):
                text.append(draw(st.sampled_from(["", "# a comment", "  "])))
            rows.append((name, len(text), fields))
            text.append(",".join(f"{draw(space)}{f}{draw(space)}" for f in fields)
                        + draw(st.sampled_from(["", "  # note"])))
    return text, rows, buses, lines, topologies


@settings(max_examples=60, deadline=None)
@given(_network_file())
def test_network_file_round_trip(generated):
    text, _, buses, lines, topologies = generated
    with tempfile.TemporaryDirectory() as directory:
        graph, parsed = load_network(_write(Path(directory), "\n".join(text)))
    assert graph.buses == tuple(sorted(buses, key=lambda b: b.id))  # in id order
    assert graph.lines == tuple(lines)
    assert parsed == topologies


@settings(max_examples=60, deadline=None)
@given(_network_file())
def test_generated_ybus_bytes_match_per_line_oracle(generated):
    """Aᵀ·diag(y)·A gives the per-line sums bit for bit on generated
    networks: any bus order and slack, parallel lines, zero resistances."""
    text = generated[0]
    with tempfile.TemporaryDirectory() as directory:
        graph, topologies = load_network(_write(Path(directory), "\n".join(text)))
    for topo in topologies:
        _assert_same_bytes(build_ybus(graph, topo), _ybus_per_line(graph, topo))


# Positions of the numeric fields, and of those that must be finite, per
# section, and the names of the fields that may not be empty (all but a
# topology's closed-switch list).
_NUMBER_FIELDS = {"buses": (0, 2), "lines": (1, 2, 3, 4), "topologies": ()}
_FINITE_FIELDS = {"buses": (2,), "lines": (3, 4), "topologies": ()}
_NONEMPTY_FIELDS = {"buses": ("id", "kind", "base_voltage"),
                    "lines": ("id", "from", "to", "r_pu", "x_pu", "switch"),
                    "topologies": ("id",)}


@st.composite
def _broken_network_file(draw):
    """(text lines, 1-based line, start of the message after path:line): a
    valid file with one data row broken by a bad number, a non-finite or
    non-positive value, a wrong field count, an unknown bus kind or an empty
    field, such as a line's switch."""
    text, rows, *_ = draw(_network_file())
    section, i, fields = draw(st.sampled_from(rows))
    faults = ["too_few", "too_many", "empty"]
    if _NUMBER_FIELDS[section]:
        faults.append("bad_number")
    if _FINITE_FIELDS[section]:
        faults.append("non_finite")
    if section == "buses":
        faults += ["bad_kind", "non_positive"]
    fault = draw(st.sampled_from(faults))
    fields = list(fields)
    message = ""
    if fault == "too_few":
        fields.pop()
    elif fault == "too_many":
        fields.append("1.0")
    elif fault == "bad_number":
        fields[draw(st.sampled_from(_NUMBER_FIELDS[section]))] = draw(
            st.sampled_from(["abc", "1.5.2", "0x10", "1e"]))
    elif fault == "non_finite":
        fields[draw(st.sampled_from(_FINITE_FIELDS[section]))] = draw(
            st.sampled_from(["nan", "inf", "-inf", "NaN"]))
    elif fault == "non_positive":
        fields[2] = draw(st.sampled_from(["0", "-0.0", "-2", "-1e-9"]))
    elif fault == "empty":
        k = draw(st.sampled_from(range(len(_NONEMPTY_FIELDS[section]))))
        fields[k] = draw(st.sampled_from(["", " "]))
        message = f"empty {_NONEMPTY_FIELDS[section][k]}"
    else:
        fields[1] = draw(st.sampled_from(["generator", "pv", ""]))
    text[i] = ",".join(fields)
    return text, i + 1, message


@settings(max_examples=80, deadline=None)
@given(_broken_network_file())
def test_broken_network_row_exits_2_with_its_line(broken):
    text, lineno, message = broken
    with tempfile.TemporaryDirectory() as directory:
        path = _write(Path(directory), "\n".join(text))
        with pytest.raises(ParseError) as exc:
            load_network(path)
        assert str(exc.value).startswith(f"{path}:{lineno}: {message}")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(["validate", "--net", str(path)]) == EXIT_VALIDATION
        assert err.getvalue().startswith(f"error: {path}:{lineno}: ")
