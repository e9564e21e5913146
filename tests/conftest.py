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
