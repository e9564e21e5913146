import dataclasses
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from microtopo import detector
from microtopo.detector import (
    CRITERIA,
    INCONCLUSIVE,
    SIGNALS,
    DifferenceMatrices,
    LibraryError,
    build_library,
    compute_difference_matrices,
    detect,
    difference_stacks,
    solve_library_batch,
    vote_stack,
)
from microtopo.measurements import DeviceKind, DeviceSpec, PhasorSet, sample_pmu
from microtopo.network import build_ybus
from microtopo.powerflow import (
    DivergedError,
    InjectionSnapshot,
    solve_fixed_point_oracle,
    solve_newton_raphson,
)
from microtopo.scenario import build_context, classify, draw_readings, fixture_path, load_config


def _vote(mat, ids=None):
    """`vote_stack` of one (rows, topologies) matrix, as labels: the verdict
    per criterion, and the row votes with None for an abstaining row."""
    mat = np.asarray(mat, dtype=float)
    ids = ids or tuple(f"T{j}" for j in range(mat.shape[1]))
    verdicts, votes = vote_stack(mat)
    labels = ids + (INCONCLUSIVE,)
    return ({c: labels[verdicts[c]] for c in CRITERIA},
            tuple(labels[v] if v < len(ids) else None for v in votes.tolist()))


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
    leaders = [ids[c] for c in range(mat.shape[1]) if sums[c] == min(sums)]
    return leaders[0] if len(leaders) == 1 else INCONCLUSIVE


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
        # the same matrix as both signals, as a snapshot's (signal, row,
        # topology) stack
        verdicts, votes = vote_stack(np.array((mat, mat)))
        labels = ids + (INCONCLUSIVE,)
        assert labels[verdicts["rmv"][0]] == _oracle_rmv(mat, ids)
        assert labels[verdicts["armv"][0]] == _oracle_armv(mat, ids)
        assert labels[verdicts["ormv"][0]] == _oracle_ormv(mat, ids)
        row_votes = [[ids[v] if v < len(ids) else None for v in signal] for signal in votes]
        assert row_votes[1] == _oracle_row_votes(mat, ids)
        # RMV and ORMV share the row votes, one set per signal
        assert votes.shape == (2, 5)
        assert row_votes[0] == _oracle_row_votes(mat, ids)


# Integer-valued entries keep column sums exact, so permuting rows cannot
# move a column mean by round-off; the narrow range makes row and column-mean
# ties common.
_MATRICES = arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(2, 5)),
                   elements=st.integers(0, 20).map(float))


def _verdicts(mat, ids):
    return list(_vote(mat, ids)[0].values())


@settings(max_examples=150, deadline=None)
@given(mat=_MATRICES, data=st.data())
def test_permuting_columns_permutes_the_verdict(mat, data):
    ids = tuple(f"T{j}" for j in range(mat.shape[1]))
    perm = data.draw(st.permutations(range(mat.shape[1])))
    assert _verdicts(mat[:, perm], tuple(ids[j] for j in perm)) == _verdicts(mat, ids)


@settings(max_examples=150, deadline=None)
@given(mat=_MATRICES, data=st.data())
def test_permuting_rows_leaves_the_verdict(mat, data):
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
_STACK_SHAPES = st.tuples(st.integers(1, 8), st.integers(1, 6), st.integers(1, 5))
_STACKS = arrays(np.float64, _STACK_SHAPES, elements=st.integers(0, 3).map(float))


@settings(max_examples=300, deadline=None)
@given(stack=_STACKS)
@example(stack=np.zeros((2, 3, 4)))  # every row abstains
@example(stack=np.array([[[0.0, 1.0], [1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]))  # vote tie
def test_vote_stack_matches_oracles(stack):
    """Each (rows, topologies) matrix of the stack votes as the oracles say,
    also when the trials lie on two leading axes, (a, b, rows, topologies),
    as a repetition's (true topologies, steps) do, and on both routes: as
    drawn, topologies contiguous, and copied with the topologies outermost
    in memory, so strided, as in a repetition's stack."""
    ids = tuple(f"T{j}" for j in range(stack.shape[2]))
    labels = ids + (INCONCLUSIVE,)
    oracles = {"rmv": _oracle_rmv, "armv": _oracle_armv, "ormv": _oracle_ormv}
    a = next((d for d in (2, 3) if len(stack) % d == 0), 1)
    grid = stack.reshape(a, len(stack) // a, *stack.shape[1:])
    for drawn in (stack, grid):
        strided = np.moveaxis(np.ascontiguousarray(np.moveaxis(drawn, -1, 0)), 0, -1)
        for trials in (drawn, strided):
            verdicts, votes = vote_stack(trials)
            assert verdicts.keys() == set(CRITERIA)
            assert {votes.dtype, *(v.dtype for v in verdicts.values())} == {np.dtype(np.intp)}
            for i in np.ndindex(trials.shape[:-2]):
                for crit in CRITERIA:
                    assert labels[verdicts[crit][i]] == oracles[crit](trials[i], ids)
                row_votes = [labels[v] if v < len(ids) else None for v in votes[i]]
                assert row_votes == _oracle_row_votes(trials[i], ids)


@settings(max_examples=200, deadline=None)
@given(stack=arrays(np.float64, _STACK_SHAPES, elements=st.integers(-3, 3).map(float)))
def test_a_stack_and_its_negation_vote_alike(stack):
    """The criteria vote on the size of each signed residual, measured minus
    library: a stack and its negation give the same verdicts and row votes,
    and `vote_stack` leaves the caller's stack as it was."""
    before = stack.tobytes()
    verdicts, votes = vote_stack(stack)
    negated_verdicts, negated_votes = vote_stack(-stack)
    assert stack.tobytes() == before
    assert np.array_equal(votes, negated_votes)
    for crit in CRITERIA:
        assert np.array_equal(verdicts[crit], negated_verdicts[crit])


def test_all_six_detect_calls_share_one_vote_stack_call(monkeypatch):
    """One snapshot's (criterion, signal) verdicts and row votes cost one
    `vote_stack` call over the (ADM, MDM) stack, not one per lookup."""
    calls = []

    def counted(stack):
        calls.append(stack.shape)
        return vote_stack(stack)

    monkeypatch.setattr(detector, "vote_stack", counted)
    m = DifferenceMatrices(np.arange(24.0).reshape(2, 3, 4), ("A", "B", "C", "D"))
    for criterion in CRITERIA:
        for signal in SIGNALS:
            detect(m, criterion, signal)
    assert calls == [(2, 3, 4)]


def test_difference_stacks_broadcast_like_the_flat_tiled_call():
    """(true topologies, steps, buses) readings against a (topologies,
    steps, buses) library give, bit for bit, the stacks of the flat call
    over (true topologies x steps) trials with the library tiled once per
    true topology; trial [T, t] is flat trial T * steps + t."""
    rng = np.random.default_rng(12)
    n_true, n_step, n_topo = 3, 7, 4
    vm, va = rng.uniform(0.9, 1.1, (2, n_true, n_step, 5))
    lib_vm, lib_va = rng.uniform(0.9, 1.1, (2, n_topo, n_step, 5))
    stacks = difference_stacks(vm, va, lib_vm, lib_va)
    flat = difference_stacks(vm.reshape(-1, 5), va.reshape(-1, 5),
                             np.tile(lib_vm, (1, n_true, 1)), np.tile(lib_va, (1, n_true, 1)))
    assert stacks.shape == (n_true, n_step, len(SIGNALS), 5, n_topo)
    assert stacks.tobytes() == flat.reshape(stacks.shape).tobytes()
    assert np.array_equal(stacks[2, 6, 0, :, 3], va[2, 6] - lib_va[3, 6])


def _loop_stack(vm, va, lib_vm, lib_va):
    """One trial's (signal, row, topology) stack, cell by cell: measured
    minus library, signed."""
    stack = np.zeros((2, len(vm), len(lib_vm)))
    for col in range(len(lib_vm)):
        for row in range(len(vm)):
            stack[0, row, col] = va[row] - lib_va[col][row]
            stack[1, row, col] = vm[row] - lib_vm[col][row]
    return stack


def test_difference_stacks_hold_the_adm_then_the_mdm():
    """The signal axis is third from last, in `SIGNALS` order: [..., 0, :, :]
    is the ADM and [..., 1, :, :] the MDM, for one snapshot, (buses,)
    against (topologies, buses), and for one repetition, (true, steps,
    buses) against (topologies, steps, buses)."""
    assert SIGNALS == ("angle", "magnitude")
    rng = np.random.default_rng(31)
    vm, va = rng.uniform(0.9, 1.1, (2, 5))
    lib_vm, lib_va = rng.uniform(0.9, 1.1, (2, 4, 5))
    stack = difference_stacks(vm, va, lib_vm, lib_va)
    assert stack.shape == (2, 5, 4)
    assert np.array_equal(stack, _loop_stack(vm, va, lib_vm, lib_va))
    rep_vm, rep_va = rng.uniform(0.9, 1.1, (2, 3, 6, 5))
    rep_lib_vm, rep_lib_va = rng.uniform(0.9, 1.1, (2, 4, 6, 5))
    stacks = difference_stacks(rep_vm, rep_va, rep_lib_vm, rep_lib_va)
    assert stacks.shape == (3, 6, 2, 5, 4)
    for true, t in np.ndindex(3, 6):
        assert np.array_equal(stacks[true, t], _loop_stack(
            rep_vm[true, t], rep_va[true, t], rep_lib_vm[:, t], rep_lib_va[:, t]))


@pytest.mark.parametrize("shape", [(96, 5, 5), (3, 17, 2), (7, 130, 3), (2, 1000, 4),
                                   (1, 1, 1), (2, 5, 5), (5, 96, 2, 5, 5)])
def test_stacked_column_mean_rounds_like_per_matrix_mean(shape):
    """ARMV's column means over a (..., rows, topologies) stack, in
    `vote_stack`'s form `np.add.reduce(stack, -2) / rows`, are `.mean(axis=-2)`
    of the stack and the scalar path's `mean(axis=0)` of each matrix, bit
    for bit."""
    rng = np.random.default_rng(sum(shape))
    stack = rng.standard_normal(shape) * 10.0 ** rng.uniform(-6, 6, shape)
    means = np.add.reduce(stack, -2) / shape[-2]
    assert means.tobytes() == stack.mean(axis=-2).tobytes()
    for i in np.ndindex(shape[:-2]):
        assert means[i].tobytes() == stack[i].mean(axis=0).tobytes()


def test_vote_stack_rejects_a_stack_without_rows():
    """With no rows there is no row vote and no column mean to vote on."""
    for shape in ((0, 1), (2, 0, 5)):
        with pytest.raises(ValueError, match="at least one row"):
            vote_stack(np.zeros(shape))


def test_vote_stack_matches_oracles_on_a_repetition_stack():
    """Repetition 0 of paper.cfg, voted in one call over its (true
    topologies, steps, signals, rows, topologies) stack: each of the 960
    (true, step, signal) matrices votes as the oracles say, so the row-vote
    count, one reduction over the rows of every trial's mask of wins, keeps
    each trial's votes in its own cells. A contiguous copy, which takes the
    snapshot's route to that mask, votes alike."""
    ctx = build_context(load_config(fixture_path("paper.cfg"), master_seed=5, repetitions=1))
    stack = classify(ctx, *draw_readings(ctx, 0))[0]
    assert stack.shape == (5, 96, 2, 5, 5)
    assert max(stack.strides) == stack.strides[3]  # rows outermost: see `_measured_stack`
    ids = ctx.topology_ids
    labels = ids + (INCONCLUSIVE,)
    oracles = {"rmv": _oracle_rmv, "armv": _oracle_armv, "ormv": _oracle_ormv}
    verdicts, votes = vote_stack(stack)
    for i in np.ndindex(stack.shape[:3]):
        sizes = np.abs(stack[i])  # the oracles vote on |measured - library|
        for crit in CRITERIA:
            assert labels[verdicts[crit][i]] == oracles[crit](sizes, ids)
        assert ([labels[v] if v < len(ids) else None for v in votes[i]]
                == _oracle_row_votes(sizes, ids))
    copy_verdicts, copy_votes = vote_stack(np.ascontiguousarray(stack))
    for crit in CRITERIA:
        np.testing.assert_array_equal(copy_verdicts[crit], verdicts[crit])
    np.testing.assert_array_equal(copy_votes, votes)


def test_armv_scale_invariance():
    rng = np.random.default_rng(11)
    for _ in range(200):
        mat = rng.uniform(0.0, 1.0, size=(5, 5))
        scale = float(rng.uniform(1e-6, 1e6))
        before = _vote(mat)[0]["armv"]
        after = _vote(mat * scale)[0]["armv"]
        assert before == after


def test_ormv_iff_common_argmin():
    rng = np.random.default_rng(13)
    ids = ("A", "B", "C", "D")
    for _ in range(500):
        mat = rng.uniform(0.0, 1.0, size=(4, 4))
        out = _vote(mat, ids)[0]["ormv"]
        argmins = {int(np.argmin(mat[r])) for r in range(4)}
        if len(argmins) == 1:
            assert out == ids[argmins.pop()]
        else:
            assert out == INCONCLUSIVE


def test_single_row_example():
    mat = np.array([[0.05, 0.002, 0.03, 0.04, 0.01]])
    verdicts, _ = _vote(mat, ("1", "2", "3", "4", "5"))
    for criterion in CRITERIA:
        assert verdicts[criterion] == "2"


def test_column_mean_example():
    mat = np.array([[0.3, 0.1, 0.5],
                    [0.2, 0.4, 0.1]])
    # column means: 0.25, 0.25, 0.30 -> a tie for the smallest, inconclusive
    # as for RMV and ORMV
    assert _vote(mat, ("a", "b", "c"))[0]["armv"] == INCONCLUSIVE


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
    verdicts, row_votes = _vote(mat, ids)
    assert verdicts["rmv"] == "I"
    assert row_votes == ("I", "I", "V", "I", "V")


def test_rmv_count_tie_is_inconclusive():
    mat = np.array([
        [0.1, 0.9],
        [0.9, 0.1],
    ])
    assert _vote(mat)[0]["rmv"] == INCONCLUSIVE


def test_all_rows_tied_everything_inconclusive():
    mat = np.ones((3, 4))
    verdicts, row_votes = _vote(mat)
    assert verdicts["rmv"] == INCONCLUSIVE
    assert verdicts["ormv"] == INCONCLUSIVE
    assert row_votes == (None, None, None)


def test_unknown_criterion_and_signal():
    m = DifferenceMatrices(np.ones((2, 2, 2)), ("A", "B"))
    with pytest.raises(ValueError):
        detect(m, "xyz", "angle")
    with pytest.raises(ValueError):
        detect(m, "rmv", "phase")


@pytest.fixture(scope="module")
def zero_noise_setup(graph, topologies, default_day):
    injections = {t: default_day[t] for t in (12, 48, 76)}
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
    injections = [InjectionSnapshot.from_bus_map(graph, {3: (-0.1, -0.05)}),
                  InjectionSnapshot.from_bus_map(graph, {4: (-50.0, -20.0)})]
    p = np.array([inj.p for inj in injections])  # (steps, buses)
    q = np.array([inj.q for inj in injections])
    with pytest.raises(LibraryError, match="topology A at t=1: Newton-Raphson") as err:
        solve_library_batch({"A": ybus, "B": isolated}, p, q, range(2), graph.slack_index)
    cause = err.value.__cause__
    assert isinstance(cause, DivergedError)
    with pytest.raises(DivergedError) as alone:
        solve_newton_raphson(ybus, injections[1], slack_index=graph.slack_index)
    assert cause.last_mismatch == alone.value.last_mismatch
    assert str(cause) == str(alone.value)


def _loop_difference_matrices(phasors, library, t):
    """Cell-by-cell ADM/MDM, measured minus library, independent of the
    broadcast path."""
    adm = np.zeros((len(phasors.bus_ids), len(library.topology_ids)))
    mdm = np.zeros_like(adm)
    for col, q in enumerate(library.topology_ids):
        sol = library.solution(q, t)
        for row, bus in enumerate(phasors.bus_ids):
            k = sol.bus_ids.index(bus)
            adm[row, col] = phasors.va_deg[row] - sol.va_deg[k]
            mdm[row, col] = phasors.vm[row] - sol.vm[k]
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
            m = compute_difference_matrices(_Bag(meas), library, t)
            adm, mdm = _loop_difference_matrices(meas, library, t)
            assert m.stack.shape == (len(SIGNALS),) + adm.shape
            assert m.stack[0].tobytes() == adm.tobytes()
            assert m.stack[1].tobytes() == mdm.tobytes()


def test_pmu_bus_missing_from_library_raises(zero_noise_setup, graph):
    """A stray bus, or the library's buses in another order, raises, also on
    a second call. A failed request caches nothing: the library keeps its
    one stack, of its own buses."""
    library, _ = zero_noise_setup
    spec = DeviceSpec(kind=DeviceKind.MICRO_PMU, sigma=0.0, accuracy=0.0)
    meas = sample_pmu(library.solution("I", 48), spec, np.random.default_rng(0),
                      time_index=48)
    cached = library._stacked
    assert cached[0] == graph.bus_ids == (1, 2, 3, 4, 5)
    stray = dataclasses.replace(meas, bus_ids=meas.bus_ids[:-1] + (9,))
    reordered = dataclasses.replace(meas, bus_ids=meas.bus_ids[::-1])
    for bad, listed in ((stray, "[1, 2, 3, 4, 9]"), (reordered, "[5, 4, 3, 2, 1]")):
        for _ in range(2):
            with pytest.raises(LibraryError, match=re.escape(
                    f"μPMU buses {listed} are not the library's buses [1, 2, 3, 4, 5]")):
                compute_difference_matrices(_Bag(bad), library, 48)
            assert library._stacked is cached


def test_step_missing_from_library_raises(zero_noise_setup):
    library, _ = zero_noise_setup
    spec = DeviceSpec(kind=DeviceKind.MICRO_PMU, sigma=0.0, accuracy=0.0)
    meas = sample_pmu(library.solution("I", 48), spec, np.random.default_rng(0),
                      time_index=48)
    with pytest.raises(KeyError, match="no library entry for topology I at t=999"):
        compute_difference_matrices(_Bag(meas), library, 999)


def test_snapshot_stack_equals_difference_stacks_for_every_step(graph, topologies,
                                                               default_day):
    """A snapshot's stack is, byte for byte, `difference_stacks` of it
    against the step's library states, for every step of the library. Every
    request reads the one read-only library stack that the first built."""
    steps = (0, 30, 47, 81, 95)
    library = build_library(graph, topologies, {t: default_day[t] for t in steps})
    rng = np.random.default_rng(8)
    entries = []
    for _ in range(2):
        for t in steps:
            sols = [library.solution(q, t) for q in library.topology_ids]
            lib_vm = np.array([sol.vm for sol in sols])
            lib_va = np.array([sol.va_deg for sol in sols])
            vm = lib_vm[2] + rng.normal(0.0, 1e-3, graph.n_bus)
            va = lib_va[2] + rng.normal(0.0, 1e-2, graph.n_bus)
            phasors = PhasorSet(bus_ids=graph.bus_ids, vm=vm, va_deg=va, time_index=t)
            stack = compute_difference_matrices(_Bag(phasors), library, t).stack
            want = difference_stacks(vm, va, lib_vm, lib_va)
            assert stack.shape == want.shape == (len(SIGNALS), graph.n_bus, len(sols))
            assert stack.tobytes() == want.tobytes()
        entries.append(library._stacked)
    assert entries[1] is entries[0]
    bus_ids, step, states = entries[0]
    assert bus_ids == graph.bus_ids
    assert step == {t: i for i, t in enumerate(steps)}
    assert not states.flags.writeable


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
            assert m.stack.shape == (2, 5, 5)
            col = m.topology_ids.index(topo.id)
            assert np.max(np.abs(m.stack[0, :, col])) < 1e-12
            assert np.max(np.abs(m.stack[1, :, col])) < 1e-12
            for criterion in CRITERIA:
                for signal in SIGNALS:
                    assert detect(m, criterion, signal).verdict == topo.id


# Smallest nonzero separation between two candidate columns of the bundled
# zero-noise library, over the day, against the largest error a difference
# of two solved states can carry: twice the solver's convergence error at the
# experiment's tol (max |NR - oracle|). Measured: angle 2.78e-5 deg against
# 2 x 2.6e-8 deg (~540x), magnitude 7.1e-8 p.u. against 2 x 5.6e-10 p.u.
# (~63x).
TIE_MARGIN = 50


def test_candidate_separations_dwarf_the_solver_error():
    """Why exact ties need no tolerance: the only exact ties in the
    zero-noise library are the slack bus, whose state is set, not solved, and
    every other pair of candidate states is apart by at least TIE_MARGIN
    times the solver error, so rounding neither makes nor hides a tie."""
    ctx = build_context(load_config(fixture_path("paper.cfg")))
    vm, va = ctx.true_states
    err = {"angle": 0.0, "magnitude": 0.0}
    for q, ybus in enumerate(ctx.ybus_by_topo.values()):
        for t, inj in enumerate(ctx.true_injections):
            oracle = solve_fixed_point_oracle(ybus, inj, tol=1e-12)
            err["angle"] = max(err["angle"], np.abs(va[q, t] - oracle.va_deg).max())
            err["magnitude"] = max(err["magnitude"], np.abs(vm[q, t] - oracle.vm).max())
    upper = np.triu_indices(len(ctx.topologies), 1)
    for signal, states in (("angle", va), ("magnitude", vm)):
        gaps = np.abs(states[:, None] - states[None])[upper]  # (pairs, steps, buses)
        tied = gaps == 0
        assert (tied[..., ctx.graph.slack_index]).all()
        assert tied.sum() == tied[..., ctx.graph.slack_index].size, signal
        assert gaps[~tied].min() > TIE_MARGIN * 2 * err[signal], signal
