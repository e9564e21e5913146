import numpy as np
import pytest

from microtopo import profiles
from microtopo.profiles import (
    N_STEPS,
    ProfileClass,
    generate_default_profiles,
    industrial_curve,
    injections_by_step,
    load_profiles_csv,
    profile_buses,
    pv_curve,
    residential_curve,
)


def test_all_profiles_cover_every_step(graph):
    for prof in generate_default_profiles(graph):
        assert len(prof.values) == N_STEPS == 96
        assert all(np.isfinite(p) and np.isfinite(q) for p, q in prof.values)


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
    profs = generate_default_profiles(graph)
    by_key = {(p.bus_id, p.klass) for p in profs}
    assert (4, ProfileClass.RESIDENTIAL) in by_key
    assert (5, ProfileClass.INDUSTRIAL) in by_key
    assert (4, ProfileClass.PV) in by_key
    assert profile_buses(profs) == (2, 4, 5)
    # bus 3 carries no device at all
    assert all(p.bus_id != 3 for p in profs)


def test_injection_signs(graph):
    """Loads draw power (negative injection); PV injects at midday."""
    profs = generate_default_profiles(graph)
    day = injections_by_step(graph, profs)
    night, noon = day[0], day[52]

    def at(snap, bus):
        i = snap.bus_ids.index(bus)
        return snap.p[i], snap.q[i]

    assert at(night, 4)[0] < 0
    assert at(night, 3) == (0.0, 0.0)
    assert at(night, 1) == (0.0, 0.0)  # slack carries no specified injection
    # bus 4 PV peak exceeds its midday load, so the net injection flips sign
    assert at(noon, 4)[0] > at(night, 4)[0]
    # PV absorbs reactive power, loads draw it: q stays negative
    assert at(noon, 4)[1] < 0


def test_injections_time_bounds(graph):
    profs = generate_default_profiles(graph)
    assert len(injections_by_step(graph, profs)) == 96


def test_total_demand_positive(graph):
    profs = generate_default_profiles(graph)
    total = 0.0
    for snap in injections_by_step(graph, profs):
        total -= sum(snap.p)
    assert total > 0  # the feeder consumes energy over the day


def test_csv_roundtrip(graph, tmp_path):
    path = tmp_path / "custom.csv"
    rows = ["time_index,bus_id,p_pu,q_pu"]
    for t in range(96):
        rows.append(f"{t},4,{-0.05 - 0.001 * t},{-0.01}")
        rows.append(f"{t},2,0.02,0.0")
    path.write_text("\n".join(rows) + "\n")

    profs = load_profiles_csv(path)
    assert {p.bus_id for p in profs} == {2, 4}
    assert all(p.klass is ProfileClass.CUSTOM for p in profs)
    snap = injections_by_step(graph, profs)[10]
    assert snap.p[snap.bus_ids.index(4)] == pytest.approx(-0.06)
    assert snap.p[snap.bus_ids.index(2)] == pytest.approx(0.02)
    assert snap.q[snap.bus_ids.index(4)] == pytest.approx(-0.01)


def test_csv_missing_steps_rejected(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("time_index,bus_id,p_pu,q_pu\n0,4,-0.05,-0.01\n")
    with pytest.raises(ValueError):
        load_profiles_csv(path)


def test_csv_bad_header_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,bus,p,q\n0,4,-0.05,-0.01\n")
    with pytest.raises(ValueError):
        load_profiles_csv(path)
