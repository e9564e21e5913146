import dataclasses

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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
    solve_library,
    vote_stack,
)
from microtopo.measurements import DeviceKind, DeviceSpec, sample_pmu
from microtopo.network import build_ybus
from microtopo.powerflow import DivergedError, InjectionSnapshot, solve_newton_raphson


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


# Integer-valued entries keep column sums exact, so permuting rows cannot
# move a column mean by round-off; the narrow range makes row ties common.
_MATRICES = arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(2, 5)),
                   elements=st.integers(0, 20).map(float))


def _verdicts(mat, ids):
    m = _matrices(mat, ids)
    return [fn(m, "angle").verdict for fn in (detect_rmv, detect_armv, detect_ormv)]


def _assume_unique_min_column_mean(mat):
    # ARMV breaks an exact tie of column means toward the first column, a
    # rule that does not commute with permutations.
    means = mat.mean(axis=0)
    assume(np.count_nonzero(means == means.min()) == 1)


@settings(max_examples=150, deadline=None)
@given(mat=_MATRICES, data=st.data())
def test_permuting_columns_permutes_the_verdict(mat, data):
    _assume_unique_min_column_mean(mat)
    ids = tuple(f"T{j}" for j in range(mat.shape[1]))
    perm = data.draw(st.permutations(range(mat.shape[1])))
    assert _verdicts(mat[:, perm], tuple(ids[j] for j in perm)) == _verdicts(mat, ids)


@settings(max_examples=150, deadline=None)
@given(mat=_MATRICES, data=st.data())
def test_permuting_rows_leaves_the_verdict(mat, data):
    _assume_unique_min_column_mean(mat)
    ids = tuple(f"T{j}" for j in range(mat.shape[1]))
    perm = data.draw(st.permutations(range(mat.shape[0])))
    assert _verdicts(mat[perm], ids) == _verdicts(mat, ids)


@settings(max_examples=150, deadline=None)
@given(mat=_MATRICES, col=st.integers(0, 4), extra=st.integers(1, 20).map(float))
def test_raising_a_column_never_makes_it_win(mat, col, extra):
    col %= mat.shape[1]
    ids = tuple(f"T{j}" for j in range(mat.shape[1]))
    raised = mat.copy()
    raised[:, col] += extra
    for before, after in zip(_verdicts(mat, ids), _verdicts(raised, ids)):
        assert before == ids[col] or after != ids[col]


# Entries from {0, 1, 2, 3}: row-minimum ties, vote-count ties and rows (or
# whole matrices) that all abstain are common and are kept, not assumed away.
_STACKS = arrays(np.float64, st.tuples(st.integers(1, 8), st.integers(1, 6), st.integers(1, 5)),
                 elements=st.integers(0, 3).map(float))


@settings(max_examples=300, deadline=None)
@given(stack=_STACKS)
@example(stack=np.zeros((2, 3, 4)))  # every row abstains
@example(stack=np.array([[[0.0, 1.0], [1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]))  # vote tie
def test_vote_stack_matches_scalar_detect(stack):
    ids = tuple(f"T{j}" for j in range(stack.shape[2]))
    labels = ids + (INCONCLUSIVE,)
    verdicts, votes = vote_stack(stack)
    assert verdicts.keys() == set(CRITERIA)
    for i, mat in enumerate(stack):
        m = _matrices(mat, ids)
        for crit in CRITERIA:
            assert labels[verdicts[crit][i]] == detect(m, crit, "angle").verdict
        assert tuple(labels[v] if v < len(ids) else None for v in votes[i]) == m.votes("angle")


@pytest.mark.parametrize("shape", [(96, 5, 5), (3, 17, 2), (7, 130, 3), (2, 1000, 4),
                                   (1, 1, 1)])
def test_stacked_column_mean_rounds_like_per_matrix_mean(shape):
    """ARMV's column means over a (trials, rows, topologies) stack are the
    scalar path's `mean(axis=0)` of each matrix, bit for bit."""
    rng = np.random.default_rng(sum(shape))
    stack = rng.standard_normal(shape) * 10.0 ** rng.uniform(-6, 6, shape)
    means = stack.mean(axis=1)
    for i in range(shape[0]):
        assert means[i].tobytes() == stack[i].mean(axis=0).tobytes()


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
    day = profiles.injections_by_step(graph, profs)
    injections = {t: day[t] for t in (12, 48, 76)}
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


def test_library_reports_first_failed_case_in_topology_step_order(graph, topo_by_id):
    """Topology A diverges at t=1 and topology B is singular at every step:
    (A, 1) comes first in (topology, step) order, (B, 0) in step order."""
    ybus = build_ybus(graph, topo_by_id["I"])
    isolated = ybus.copy()
    i5 = graph.bus_index(5)
    isolated[i5, :] = isolated[:, i5] = 0.0
    injections = {0: InjectionSnapshot.from_bus_map(graph, {3: (-0.1, -0.05)}),
                  1: InjectionSnapshot.from_bus_map(graph, {4: (-50.0, -20.0)})}
    with pytest.raises(LibraryError, match="topology A at t=1: Newton-Raphson") as err:
        solve_library({"A": ybus, "B": isolated}, injections, graph.slack_index)
    cause = err.value.__cause__
    assert isinstance(cause, DivergedError)
    with pytest.raises(DivergedError) as alone:
        solve_newton_raphson(ybus, injections[1], slack_index=graph.slack_index)
    assert cause.last_mismatch == alone.value.last_mismatch
    assert str(cause) == str(alone.value)


def _loop_difference_matrices(phasors, library, t):
    """Cell-by-cell ADM/MDM, independent of the broadcast path."""
    rows = sorted(range(len(phasors.bus_ids)), key=lambda i: phasors.bus_ids[i])
    adm = np.zeros((len(rows), len(library.topology_ids)))
    mdm = np.zeros_like(adm)
    for col, q in enumerate(library.topology_ids):
        sol = library.solution(q, t)
        for row, i in enumerate(rows):
            k = sol.bus_ids.index(phasors.bus_ids[i])
            adm[row, col] = abs(phasors.va_deg[i] - sol.va_deg[k])
            mdm[row, col] = abs(phasors.vm[i] - sol.vm[k])
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
            meas = sample_pmu(library.solution(q, t), spec, rng, time_index=t)
            # rows are sorted by bus id whatever the input order
            perm = rng.permutation(len(meas.bus_ids))
            meas = dataclasses.replace(meas, bus_ids=tuple(meas.bus_ids[i] for i in perm),
                                       vm=meas.vm[perm], va_deg=meas.va_deg[perm])
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
    stray = dataclasses.replace(meas, bus_ids=meas.bus_ids[:-1] + (9,))
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
