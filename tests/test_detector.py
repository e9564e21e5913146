import dataclasses

import numpy as np
import pytest

from microtopo import profiles
from microtopo.detector import (
    CRITERIA,
    INCONCLUSIVE,
    SIGNALS,
    DifferenceMatrices,
    LibraryError,
    build_library,
    compute_difference_matrices,
    detect,
    detect_armv,
    detect_ormv,
    detect_rmv,
    row_votes,
)
from microtopo.measurements import DeviceKind, DeviceSpec, sample_pmu


def _matrices(mat, ids=None):
    mat = np.asarray(mat, dtype=float)
    ids = ids or tuple(f"T{j}" for j in range(mat.shape[1]))
    return DifferenceMatrices(adm=mat, mdm=mat.copy(),
                              pmu_bus_ids=tuple(range(1, mat.shape[0] + 1)),
                              topology_ids=tuple(ids))


# brute-force reference implementations, written independently of the
# production code paths


def _oracle_row_votes(mat, ids):
    votes = []
    for r in range(mat.shape[0]):
        best = min(mat[r])
        winners = [ids[c] for c in range(mat.shape[1]) if mat[r, c] == best]
        votes.append(winners[0] if len(winners) == 1 else None)
    return votes


def _oracle_rmv(mat, ids):
    votes = [v for v in _oracle_row_votes(mat, ids) if v is not None]
    if not votes:
        return INCONCLUSIVE
    tally = {q: votes.count(q) for q in set(votes)}
    top = max(tally.values())
    leaders = [q for q, c in tally.items() if c == top]
    return leaders[0] if len(leaders) == 1 else INCONCLUSIVE


def _oracle_armv(mat, ids):
    sums = [sum(mat[r, c] for r in range(mat.shape[0])) for c in range(mat.shape[1])]
    return ids[sums.index(min(sums))]


def _oracle_ormv(mat, ids):
    votes = [v for v in _oracle_row_votes(mat, ids) if v is not None]
    if votes and len(set(votes)) == 1:
        return votes[0]
    return INCONCLUSIVE


def test_criteria_against_brute_force_on_random_matrices():
    rng = np.random.default_rng(2024)
    ids = ("I", "II", "III", "IV", "V")
    for _ in range(1000):
        mat = rng.uniform(0.0, 1.0, size=(5, 5))
        # inject occasional exact ties to exercise the abstention path
        if rng.random() < 0.3:
            r = rng.integers(5)
            c1, c2 = rng.choice(5, size=2, replace=False)
            mat[r, c2] = mat[r, c1] = mat[r].min()
        m = _matrices(mat, ids)
        rmv, ormv = detect_rmv(m, "angle"), detect_ormv(m, "angle")
        assert rmv.verdict == _oracle_rmv(mat, ids)
        assert detect_armv(m, "angle").verdict == _oracle_armv(mat, ids)
        assert ormv.verdict == _oracle_ormv(mat, ids)
        assert list(row_votes(mat, ids)) == _oracle_row_votes(mat, ids)
        # RMV and ORMV share the votes computed once per signal
        assert list(m.votes("angle")) == _oracle_row_votes(mat, ids)
        assert rmv.per_row_votes is ormv.per_row_votes is m.votes("angle")


def test_armv_scale_invariance():
    rng = np.random.default_rng(11)
    for _ in range(200):
        mat = rng.uniform(0.0, 1.0, size=(5, 5))
        scale = float(rng.uniform(1e-6, 1e6))
        before = detect_armv(_matrices(mat), "angle").verdict
        after = detect_armv(_matrices(mat * scale), "angle").verdict
        assert before == after


def test_ormv_iff_common_argmin():
    rng = np.random.default_rng(13)
    ids = ("A", "B", "C", "D")
    for _ in range(500):
        mat = rng.uniform(0.0, 1.0, size=(4, 4))
        out = detect_ormv(_matrices(mat, ids), "angle")
        argmins = {int(np.argmin(mat[r])) for r in range(4)}
        if len(argmins) == 1:
            assert out.verdict == ids[argmins.pop()]
        else:
            assert out.verdict == INCONCLUSIVE


def test_single_row_example():
    mat = np.array([[0.05, 0.002, 0.03, 0.04, 0.01]])
    m = _matrices(mat, ("1", "2", "3", "4", "5"))
    for criterion in CRITERIA:
        assert detect(m, criterion, "angle").verdict == "2"


def test_column_mean_example():
    mat = np.array([[0.3, 0.1, 0.5],
                    [0.2, 0.4, 0.1]])
    # column means: 0.25, 0.25, 0.30 -> first of the tied columns
    out = detect_armv(_matrices(mat, ("a", "b", "c")), "angle")
    assert out.verdict == "a"


def test_rmv_majority_example():
    # votes I, I, V, I, V -> I wins 3:2
    mat = np.array([
        [0.1, 0.5, 0.5, 0.5, 0.9],
        [0.2, 0.9, 0.9, 0.9, 0.8],
        [0.7, 0.9, 0.9, 0.9, 0.1],
        [0.1, 0.5, 0.5, 0.5, 0.3],
        [0.6, 0.9, 0.9, 0.9, 0.2],
    ])
    ids = ("I", "II", "III", "IV", "V")
    out = detect_rmv(_matrices(mat, ids), "angle")
    assert out.verdict == "I"
    assert out.per_row_votes == ("I", "I", "V", "I", "V")


def test_rmv_count_tie_is_inconclusive():
    mat = np.array([
        [0.1, 0.9],
        [0.9, 0.1],
    ])
    assert detect_rmv(_matrices(mat), "angle").verdict == INCONCLUSIVE


def test_all_rows_tied_everything_inconclusive():
    mat = np.ones((3, 4))
    m = _matrices(mat)
    assert detect_rmv(m, "angle").verdict == INCONCLUSIVE
    assert detect_ormv(m, "angle").verdict == INCONCLUSIVE
    assert tuple(row_votes(mat, m.topology_ids)) == (None, None, None)


def test_unknown_criterion_and_signal():
    m = _matrices(np.ones((2, 2)))
    with pytest.raises(ValueError):
        detect(m, "xyz", "angle")
    with pytest.raises(ValueError):
        m.matrix("phase")


@pytest.fixture(scope="module")
def zero_noise_setup(graph, topologies):
    profs = profiles.generate_default_profiles(graph)
    injections = {t: profiles.injections_at(graph, profs, t) for t in (12, 48, 76)}
    library = build_library(graph, topologies, injections)
    return library, injections


def test_library_covers_all_pairs(zero_noise_setup, topologies):
    library, injections = zero_noise_setup
    assert {t for (_, t) in library.entries} == set(injections)
    for topo in topologies:
        for t in injections:
            sol = library.solution(topo.id, t)
            assert sol.max_mismatch < 1e-8
    with pytest.raises(KeyError):
        library.solution("I", 999)


def _loop_difference_matrices(phasors, library, t):
    """Cell-by-cell ADM/MDM, independent of the broadcast path."""
    rows = sorted(phasors, key=lambda m: m.bus_id)
    adm = np.zeros((len(rows), len(library.topology_ids)))
    mdm = np.zeros_like(adm)
    for col, q in enumerate(library.topology_ids):
        sol = library.solution(q, t)
        for row, ph in enumerate(rows):
            adm[row, col] = abs(ph.va_meas - sol.va_at(ph.bus_id))
            mdm[row, col] = abs(ph.vm_meas - sol.vm_at(ph.bus_id))
    return adm, mdm


class _Bag:
    def __init__(self, phasors):
        self.phasors = phasors


def test_difference_matrices_match_cell_loop_bit_for_bit(zero_noise_setup):
    library, injections = zero_noise_setup
    spec = DeviceSpec(kind=DeviceKind.MICRO_PMU, sigma=0.00025, accuracy=0.00025)
    rng = np.random.default_rng(5)
    for q in library.topology_ids:
        for t in injections:
            meas = list(sample_pmu(library.solution(q, t), spec, rng, time_index=t))
            rng.shuffle(meas)  # rows are sorted by bus id whatever the input order
            m = compute_difference_matrices(_Bag(meas), library, t)
            adm, mdm = _loop_difference_matrices(meas, library, t)
            assert m.pmu_bus_ids == (1, 2, 3, 4, 5)
            assert m.adm.tobytes() == adm.tobytes()
            assert m.mdm.tobytes() == mdm.tobytes()


def test_pmu_bus_missing_from_library_raises(zero_noise_setup):
    library, _ = zero_noise_setup
    spec = DeviceSpec(kind=DeviceKind.MICRO_PMU, sigma=0.0, accuracy=0.0)
    meas = sample_pmu(library.solution("I", 48), spec, np.random.default_rng(0),
                      time_index=48)
    stray = meas + (dataclasses.replace(meas[0], bus_id=9),)
    with pytest.raises(LibraryError, match="bus 9 missing"):
        compute_difference_matrices(_Bag(stray), library, 48)


def test_zero_noise_detection_matches_truth(zero_noise_setup, graph, topologies):
    """Exact measurements of topology q zero out exactly column q."""
    library, injections = zero_noise_setup
    spec = DeviceSpec(kind=DeviceKind.MICRO_PMU, sigma=0.0, accuracy=0.0)
    rng = np.random.default_rng(0)
    for topo in topologies:
        for t in injections:
            true_sol = library.solution(topo.id, t)
            meas = sample_pmu(true_sol, spec, rng, time_index=t)

            class Bag:
                phasors = meas

            m = compute_difference_matrices(Bag(), library, t)
            assert m.adm.shape == (5, 5)
            col = m.topology_ids.index(topo.id)
            assert np.max(m.adm[:, col]) < 1e-12
            assert np.max(m.mdm[:, col]) < 1e-12
            for criterion in CRITERIA:
                for signal in SIGNALS:
                    assert detect(m, criterion, signal).verdict == topo.id
