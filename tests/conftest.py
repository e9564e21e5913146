import pytest

from microtopo.network import load_network
from microtopo.powerflow import InjectionSnapshot
from microtopo.profiles import load_injections
from microtopo.scenario import fixture_path


@pytest.fixture(scope="session")
def fivebus():
    return load_network(fixture_path("fivebus.net"))


@pytest.fixture(scope="session")
def graph(fivebus):
    return fivebus[0]


@pytest.fixture(scope="session")
def topologies(fivebus):
    return fivebus[1]


@pytest.fixture(scope="session")
def topo_by_id(topologies):
    return {t.id: t for t in topologies}


@pytest.fixture(scope="session")
def default_day(graph):
    """The bundled default day as 96 `InjectionSnapshot`s, one per row of
    the `load_injections` tables."""
    p, q, _ = load_injections(graph, "default")
    return tuple(InjectionSnapshot(bus_ids=graph.bus_ids, p=p_t, q=q_t)
                 for p_t, q_t in zip(p, q))


@pytest.fixture
def reversed_net(tmp_path):
    """A copy of the bundled fivebus.net that lists its [buses] rows 5..1:
    the graph holds the buses in id order, so it must give the same output."""
    text = fixture_path("fivebus.net").read_text()
    head, rest = text.split("[buses]\n", 1)
    buses, tail = rest.split("\n\n", 1)
    path = tmp_path / "reversed.net"
    path.write_text(
        head + "[buses]\n" + "\n".join(reversed(buses.splitlines())) + "\n\n" + tail)
    return path
