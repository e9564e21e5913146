import codecs
import contextlib
import csv
import io
import itertools
import multiprocessing
import os
import pickle
import re
import signal
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from microtopo import detector, measurements, powerflow, scenario
from microtopo.cli import EXIT_NUMERICAL, EXIT_VALIDATION, main
from microtopo.detector import (
    CRITERIA,
    INCONCLUSIVE,
    SIGNALS,
    DifferenceMatrices,
    LibraryError,
    build_library,
    detect,
    vote_stack,
)
from microtopo.measurements import derive_rng_stream, sample_scada
from microtopo.network import load_network
from microtopo.powerflow import InjectionSnapshot
from microtopo.scenario import (
    ConfigError,
    DetectionRateReport,
    build_context,
    classify,
    draw_readings,
    fixture_path,
    load_config,
    run_experiment,
    summarize,
    write_report,
)
from report_rates import correct_rate, n_trials

PAPER_CFG = fixture_path("paper.cfg")


def _tiny_config(**overrides):
    base = dict(repetitions=1, jobs=1)
    base.update(overrides)
    return load_config(PAPER_CFG, **base)


def test_load_bundled_config():
    cfg = load_config(PAPER_CFG)
    assert cfg.pmu_sigma == 0.00025
    assert cfg.scada_sigma == 0.025
    assert cfg.repetitions == 20
    assert cfg.tol == 1e-8


def test_config_overrides():
    cfg = load_config(PAPER_CFG, master_seed=7, repetitions=3, pmu_sigma=0.0)
    assert cfg.master_seed == 7
    assert cfg.repetitions == 3
    assert cfg.pmu_sigma == 0.0


def test_unknown_config_key(tmp_path):
    """Also `criteria`, `signals` and `tol`: the voting criteria, the
    signals and the solver tolerance are fixed, not keys."""
    bad = tmp_path / "bad.cfg"
    for line in ("wibble = 3", "criteria = rmv", "signals = angle", "tol = 1e-9"):
        bad.write_text(f"network = fivebus.net\n{line}\n")
        key = line.split(" = ")[0]
        with pytest.raises(ConfigError, match=re.escape(f"{bad}:2: unknown key {key!r}")):
            load_config(bad)


def test_invalid_values_rejected():
    with pytest.raises(ConfigError):
        load_config(PAPER_CFG, repetitions=0)
    with pytest.raises(ConfigError):
        load_config(PAPER_CFG, pmu_sigma=-1.0)


@pytest.mark.parametrize("line, message", [
    # criteria and signals are fixed, not keys: a line setting either is rejected by its key
    ("criteria =", "unknown key 'criteria'"),
    ("signals = ,", "unknown key 'signals'"),
    ("criteria = armv, armv", "unknown key 'criteria'"),
    ("signals = angle, magnitude, angle", "unknown key 'signals'"),
    ("master_seed = -1", "master_seed must be >= 0"),
], ids=["empty_criteria", "empty_signals", "duplicate_criterion", "duplicate_signal",
        "negative_seed"])
def test_bad_lists_and_seed_rejected(tmp_path, line, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"network = fivebus.net\n{line}\n")
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_config(cfg)


def test_config_key_given_twice_rejected(tmp_path):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("network = fivebus.net\nrepetitions = 3\n# again\nrepetitions = 2\n")
    with pytest.raises(ConfigError, match=re.escape(
            f"{cfg}:4: key 'repetitions' given twice (first on line 2)")):
        load_config(cfg)


@pytest.mark.parametrize("text, lineno, message", [
    ("network = fivebus.net\ntol = nan\n", 2, "unknown key 'tol'"),
    ("network = fivebus.net\npmu_sigma = inf\n", 2, "pmu_sigma must be finite and nonnegative"),
    ("network = fivebus.net\n\nrepetitions = 0\n", 3, "repetitions must be >= 1"),
    ("# header\nnetwork =\n", 2, "bad value for network: empty file name"),
    ("network = fivebus.net\nprofile = missing.csv\n", 2,
     "cannot locate input file 'missing.csv'"),
], ids=["nan_tol", "infinite_sigma", "zero_repetitions", "empty_network", "missing_profile"])
def test_rejected_file_value_names_its_line(tmp_path, text, lineno, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    with pytest.raises(ConfigError, match=re.escape(f"{cfg}:{lineno}: {message}")):
        load_config(cfg)


def test_undecodable_config_names_its_line(tmp_path, capsys):
    """A byte that is not UTF-8 is reported with path:line, like every other
    rejected line, not as a bare codec error."""
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"network = fivebus.net\n\n# caf\xe9 au lait\nrepetitions = 1\n")
    message = f"{cfg}:3: not UTF-8 text: byte 0xe9 (invalid continuation byte)"
    with pytest.raises(ConfigError) as err:
        load_config(cfg)
    assert str(err.value) == message
    assert main(["experiment", str(cfg), "--out-dir", str(tmp_path / "out")]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {message}\n"


def test_config_with_byte_order_mark_loads(tmp_path):
    """A config saved with a UTF-8 byte-order mark loads like the same file
    without one, and a later byte that is not UTF-8 is still reported at its
    own line."""
    cfg = tmp_path / "bom.cfg"
    cfg.write_bytes(codecs.BOM_UTF8 + PAPER_CFG.read_bytes())
    assert load_config(cfg) == load_config(PAPER_CFG)
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(codecs.BOM_UTF8 + b"network = fivebus.net\n\n# caf\xe9 au lait\n")
    with pytest.raises(ConfigError) as err:
        load_config(bad)
    assert str(err.value) == f"{bad}:3: not UTF-8 text: byte 0xe9 (invalid continuation byte)"


def test_rejected_override_has_no_line():
    with pytest.raises(ConfigError, match=r"^pmu_sigma must be finite"):
        load_config(PAPER_CFG, pmu_sigma=float("nan"))


def test_config_paths_resolve_absolute_then_local_then_bundled(tmp_path, monkeypatch):
    """A network named by an absolute path loads, whether a .cfg or an
    override names it; a relative name resolves next to the .cfg before the
    bundled file of the same name."""
    net = tmp_path / "nets" / "grid.net"
    net.parent.mkdir()
    net.write_text(fixture_path("fivebus.net").read_text())
    cfg = tmp_path / "cfgs" / "exp.cfg"
    cfg.parent.mkdir()
    monkeypatch.chdir(tmp_path)  # neither the network's directory nor the .cfg's
    cfg.write_text(f"network = {net}\n")
    by_file = load_config(cfg)
    cfg.write_text("network = fivebus.net\n")
    by_override = load_config(cfg, network=str(net))
    for config in (by_file, by_override):
        assert config.network == str(net)
        graph, topologies = load_network(config.network)
        assert graph.bus_ids == (1, 2, 3, 4, 5) and len(topologies) == 5
    assert load_config(cfg).network == str(fixture_path("fivebus.net"))
    local = cfg.parent / "fivebus.net"
    local.write_text(fixture_path("fivebus.net").read_text())
    assert load_config(cfg).network == str(local)


# Generated config files: every key but network is optional; floats are
# written with repr, which parses back to the same float.
_FLOAT_KEYS = ("pmu_sigma", "pmu_accuracy", "scada_sigma", "scada_accuracy")
_nonnegative = st.floats(min_value=0.0, max_value=1.0)
_VALID_VALUES = {
    **{key: _nonnegative for key in _FLOAT_KEYS},
    "profile": st.just("default"),
    "repetitions": st.integers(1, 10**6),
    "master_seed": st.integers(0, 2**80),
    "jobs": st.integers(1, 64),
}
_BAD_VALUES = {
    **{key: ("abc", "nan", "inf", "-0.5", "") for key in _FLOAT_KEYS},
    "network": ("", "no_such_file.net"),
    "profile": ("", "no_such_profile.csv"),
    "repetitions": ("abc", "0", "-2", "1.5", ""),
    "master_seed": ("-1", "seed", "1e3", ""),
    "jobs": ("x", "0", "2.0", ""),
}


def _render(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


@st.composite
def _config_lines(draw):
    """(lines, values): a valid config file as lines, in any key order,
    with blank lines, comments and spacing, and the values it sets."""
    keys = draw(st.lists(st.sampled_from(sorted(_VALID_VALUES)), unique=True))
    values = {"network": "fivebus.net"}
    values.update({key: draw(_VALID_VALUES[key]) for key in keys})
    order = draw(st.permutations(sorted(values)))
    space = st.sampled_from(["", " ", "  ", "\t"])
    lines = []
    for key in order:
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(["", "# a comment", "   "])))
        comment = draw(st.sampled_from(["", "  # note"]))
        lines.append(f"{draw(space)}{key}{draw(space)}={draw(space)}"
                     f"{_render(values[key])}{comment}")
    return lines, values


def _write(directory: str, lines) -> Path:
    path = Path(directory) / "generated.cfg"
    path.write_text("\n".join(lines) + "\n")
    return path


@settings(max_examples=60, deadline=None)
@given(_config_lines())
def test_config_round_trip(generated):
    assert {"network", *_VALID_VALUES} == set(scenario._CONFIG_PARSERS)
    lines, values = generated
    with tempfile.TemporaryDirectory() as directory:
        config = load_config(_write(directory, lines))
    assert config.network == str(fixture_path("fivebus.net"))
    for key, value in values.items():
        if key != "network":
            assert getattr(config, key) == value, key


@st.composite
def _broken_config(draw):
    """(lines, lineno, message): a valid config with one line replaced by
    an unknown key, a bad value, a line without '=' or a repeated key."""
    lines, values = draw(_config_lines())
    keyed = [i for i, line in enumerate(lines) if "=" in line]
    i = draw(st.sampled_from(keyed))
    key = lines[i].split("=")[0].strip()
    fault = draw(st.sampled_from(["unknown_key", "bad_value", "no_equals", "repeated"]))
    if fault == "unknown_key":
        name = draw(st.from_regex(r"[a-z_]{1,12}", fullmatch=True).filter(
            lambda k: k not in scenario._CONFIG_PARSERS))
        lines[i] = f"{name} = 3"
        return lines, i + 1, f"unknown key {name!r}"
    if fault == "bad_value":
        lines[i] = f"{key} = {draw(st.sampled_from(_BAD_VALUES[key]))}"
        return lines, i + 1, ""
    if fault == "no_equals":
        lines[i] = f"{key} {_render(values[key])}"
        return lines, i + 1, "expected 'key = value'"
    j = draw(st.integers(i + 1, len(lines)))
    lines.insert(j, lines[i])
    return lines, j + 1, f"key {key!r} given twice (first on line {i + 1})"


@settings(max_examples=80, deadline=None)
@given(_broken_config())
def test_broken_config_line_rejected_with_its_number(broken):
    lines, lineno, message = broken
    with tempfile.TemporaryDirectory() as directory:
        path = _write(directory, lines)
        where = f"{path}:{lineno}: {message}"
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert str(exc.value).startswith(where)
        out = Path(directory) / "out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(["experiment", str(path), "--out-dir", str(out)]) == EXIT_VALIDATION
        assert err.getvalue().startswith(f"error: {where}")
        assert not out.exists()


def test_trial_indices_unique(monkeypatch):
    """Every noise stream of a run has its own (seed, trial index, device)
    key: index 0 for the offsets of each repetition, 1 + rep for the one
    SCADA stream of each repetition and the μPMU stream of each (topology,
    rep) pair."""
    keys = []
    derive = scenario.derive_rng_stream

    def recorded(*key):
        keys.append(key)
        return derive(*key)

    monkeypatch.setattr(scenario, "derive_rng_stream", recorded)
    report = run_experiment(_tiny_config(repetitions=3, master_seed=5))
    assert len(set(keys)) == len(keys) == 2 * 3 + (1 + 5) * 3
    topologies = report.topology_ids
    assert {k for k in keys if k[1] == 0} == {
        (5, 0, f"offsets:{device}:{rep}") for device in ("pmu", "scada") for rep in range(3)}
    assert {k for k in keys if k[1] != 0} == {
        (5, 1 + rep, device)
        for device in ("scada",) + tuple(f"pmu:{topo}" for topo in topologies)
        for rep in range(3)}


def _task(ctx, topology_id, rep=0):
    """The trials of one true topology in repetition `rep`: its rows of the
    repetition's arrays."""
    pos = ctx.topology_ids.index(topology_id)
    return tuple(a[pos] for a in classify(ctx, *draw_readings(ctx, rep)))


def test_pmu_readings_keep_their_per_topology_streams(monkeypatch):
    """Only the SCADA stream is shared by a repetition: the μPMU readings of
    true topology T in repetition `rep` are `pmu_readings` of T's true
    states, solved alone, drawn from stream (1 + rep, "pmu:<T>") with the
    repetition's offsets, bit for bit."""
    ctx = build_context(_tiny_config(repetitions=3, master_seed=21))
    readings = []
    sample = scenario.pmu_readings

    def recorded(*args):
        readings.append(sample(*args))
        return readings[-1]

    monkeypatch.setattr(scenario, "pmu_readings", recorded)
    rep = 2
    draw_readings(ctx, rep)
    assert len(readings) == len(ctx.topologies)
    for (vm, va), topo in zip(readings, ctx.topologies):
        ybus = ctx.ybus_by_topo[topo.id]
        alone = powerflow.solve_newton_raphson_batch(
            ybus[None], ctx.true_p, ctx.true_q,
            tol=ctx.config.tol, slack_index=ctx.graph.slack_index)
        want_vm, want_va = sample(
            alone.vm[0], alone.va_deg[0], ctx.pmu_spec,
            derive_rng_stream(21, 1 + rep, f"pmu:{topo.id}"), ctx.pmu_offsets_by_rep[rep])
        assert vm.tobytes() == want_vm.tobytes()
        assert va.tobytes() == want_va.tobytes()


def test_trial_determinism():
    ctx = build_context(_tiny_config(master_seed=123, repetitions=2))
    a = _task(ctx, "II")
    b = _task(ctx, "II")
    for x, y in zip(a, b):
        assert x.tobytes() == y.tobytes()

    # a different repetition, step or seed gives different noise; at paper
    # noise levels the raw matrices cannot coincide
    ctx2 = build_context(_tiny_config(master_seed=124, repetitions=2))
    stack = a[0]
    for other in (_task(ctx, "II", rep=1)[0][40], stack[41], _task(ctx2, "II")[0][40]):
        assert (stack[40] != other).any()


def test_trial_library_matches_build_library():
    """The trial path solves the (steps, buses) tables with the context's
    Ybus in one `solve_library_batch`; the public build_library builds its
    own Ybus from snapshots. Both give the same solutions, bit for bit."""
    ctx = build_context(_tiny_config())
    rng = derive_rng_stream(ctx.config.master_seed, 1, "scada")
    steps = (0, 48, 76)
    injections = {}
    for t in steps:
        scada = sample_scada(ctx.true_injections[t], ctx.scada_spec, rng, ctx.scada_buses)
        injections[t] = InjectionSnapshot.from_bus_map(
            ctx.graph, {m.bus_id: (m.p_meas, m.q_meas) for m in scada})
    trial = detector.solve_library_batch(
        ctx.ybus_by_topo, np.array([inj.p for inj in injections.values()]),
        np.array([inj.q for inj in injections.values()]), steps, ctx.graph.slack_index,
        tol=ctx.config.tol)
    public = build_library(ctx.graph, list(ctx.topologies), injections,
                           tol=ctx.config.tol)
    assert public.topology_ids == ctx.topology_ids
    assert trial.vm.shape == (len(ctx.topology_ids), len(steps), len(ctx.graph.bus_ids))
    cases = [(topology_id, t) for topology_id in ctx.topology_ids for t in steps]
    assert list(public.entries) == cases
    for (i, j), key in zip(np.ndindex(trial.converged.shape), cases, strict=True):
        sol = public.entries[key]
        assert sol.bus_ids == ctx.graph.bus_ids
        assert (sol.iterations, sol.max_mismatch) == (trial.iterations[i, j], trial.mismatch[i, j])
        assert sol.vm.tobytes() == trial.vm[i, j].tobytes()
        assert sol.va_deg.tobytes() == trial.va_deg[i, j].tobytes()


@pytest.mark.parametrize("topo_pos, rep, steps", [
    (0, 0, (0, 47, 95)),
    (2, 1, (12, 76)),
    (4, 1, (30, 60)),
])
def test_detect_on_a_task_row_matches_its_outcome_arrays(topo_pos, rep, steps):
    """Row t of a task's stack, voted alone by `detect` (the online path),
    gives the verdicts and per-row votes of row t of the task's outcome
    arrays (one `vote_stack` call per repetition, over every trial's ADM and
    MDM): trial (t, rep) of the experiment is row t of task (topology, rep)."""
    ctx = build_context(_tiny_config(repetitions=2, master_seed=3))
    topo_id = ctx.topology_ids[topo_pos]
    stack, verdicts, votes = _task(ctx, topo_id, rep)
    assert verdicts.shape == (96, len(CRITERIA), len(SIGNALS))
    assert votes.shape == (96, len(SIGNALS), 5)
    labels = ctx.topology_ids + (INCONCLUSIVE,)
    for t in steps:
        alone = DifferenceMatrices(stack[t], ctx.topology_ids)
        for c, crit in enumerate(CRITERIA):
            for s, sig in enumerate(SIGNALS):
                assert detect(alone, crit, sig).verdict == labels[verdicts[t, c, s]]
        assert np.array_equal(vote_stack(alone.stack)[1], votes[t])


def test_one_true_topology_plays_its_rows_of_the_full_repetition():
    """`classify` of one true topology's μPMU readings alone, with the
    repetition's SCADA readings, returns for every step t row [T, t] of
    each array of the full repetition-0 call, bit for bit: the candidate
    library is the same, and each trial meets it on its own."""
    ctx = build_context(_tiny_config(master_seed=5))
    pmu_vm, pmu_va, scada_p, scada_q = draw_readings(ctx, 0)
    assert pmu_vm.shape == pmu_va.shape == (5, 96, 5)
    assert scada_p.shape == scada_q.shape == (96, len(ctx.scada_buses))
    full = classify(ctx, pmu_vm, pmu_va, scada_p, scada_q)
    for pos in range(len(ctx.topologies)):
        alone = classify(ctx, pmu_vm[pos:pos + 1], pmu_va[pos:pos + 1], scada_p, scada_q)
        for one, every in zip(alone, full, strict=True):
            assert one.shape == (1,) + every.shape[1:]
            assert one[0].tobytes() == every[pos].tobytes()


def _forbidden(*args, **kwargs):
    raise AssertionError("a power flow solve or noise draw where none is due")


def test_drawing_readings_solves_nothing_and_classifying_them_draws_nothing(monkeypatch):
    """Once the context's true states are solved, `draw_readings` solves no
    power flow and `classify` derives no noise stream: a repetition is its
    readings, then their classification, which needs nothing simulated."""
    ctx = build_context(_tiny_config(repetitions=2, master_seed=5))
    want = classify(ctx, *draw_readings(ctx, 1))  # solves the true states
    monkeypatch.setattr(scenario, "solve_library_batch", _forbidden)
    readings = draw_readings(ctx, 1)
    monkeypatch.undo()
    monkeypatch.setattr(scenario, "derive_rng_stream", _forbidden)
    for got, expected in zip(classify(ctx, *readings), want, strict=True):
        assert got.tobytes() == expected.tobytes()


def test_a_pickled_context_carries_its_solved_true_states(monkeypatch):
    """Spawned and forkserver workers get the context pickled: once read,
    its true states travel with it, bit for bit, and are not solved again.
    `build_context` solves no power flow, and a context whose true states
    were never read pickles without them."""
    monkeypatch.setattr(scenario, "solve_library_batch", _forbidden)
    ctx = build_context(_tiny_config())
    assert "true_states" not in vars(pickle.loads(pickle.dumps(ctx)))
    monkeypatch.undo()
    vm, va = ctx.true_states
    monkeypatch.setattr(scenario, "solve_library_batch", _forbidden)
    copy_vm, copy_va = pickle.loads(pickle.dumps(ctx)).true_states
    assert copy_vm.tobytes() == vm.tobytes()
    assert copy_va.tobytes() == va.tobytes()


def test_a_repetition_votes_in_one_vote_stack_call(monkeypatch):
    """Each repetition votes all its trials, on both signals, in one
    `vote_stack` call: its block's, over the (true topologies, steps of the
    block's repetitions, signals, rows, topologies) stack. A serial run of
    3 repetitions is one block, so one call."""
    calls = []

    def counted(stack):
        calls.append(stack.shape)
        return detector.vote_stack(stack)

    monkeypatch.setattr(scenario, "vote_stack", counted)
    run_experiment(_tiny_config(repetitions=3, master_seed=4))
    assert scenario.REPS_PER_BLOCK >= 3
    assert calls == [(5, 3 * 96, len(SIGNALS), 5, 5)]


def test_a_chunk_counts_what_fresh_repetitions_count():
    """A chunk's report counts the outcome arrays of each of its
    repetitions, as `classify` returns them for its readings alone, for a
    chunk of one repetition, of one full block and of a block and one more
    repetition."""
    block = scenario.REPS_PER_BLOCK
    ctx = build_context(_tiny_config(repetitions=block + 1, master_seed=17))
    for n_reps in (1, block, block + 1):
        reps = list(range(n_reps))
        fresh = DetectionRateReport(topology_ids=ctx.topology_ids,
                                    pmu_bus_ids=ctx.graph.bus_ids)
        for rep in reps:
            fresh.record_rep(*classify(ctx, *draw_readings(ctx, rep))[1:])
        chunk = scenario._run_chunk(ctx, reps)
        assert np.array_equal(chunk.confusion, fresh.confusion), n_reps
        assert np.array_equal(chunk.row_votes, fresh.row_votes), n_reps


def _joined(readings):
    """Repetitions' `draw_readings` arrays joined along the step axis, as
    `_run_chunk` joins a block's."""
    return [np.concatenate(arrays, axis=-2) for arrays in zip(*readings)]


def test_a_block_classifies_each_repetition_as_alone():
    """`classify` of a two-repetition block returns, at [T, r * 96 + t] of
    each array, row [T, t] of that repetition's own call, bit for bit."""
    ctx = build_context(_tiny_config(repetitions=2, master_seed=23))
    block = classify(ctx, *_joined([draw_readings(ctx, 0), draw_readings(ctx, 1)]))
    for r in (0, 1):
        alone = classify(ctx, *draw_readings(ctx, r))
        for one, joined in zip(alone, block, strict=True):
            assert joined.shape[1] == 2 * one.shape[1] == 2 * 96
            assert joined[:, r * 96:(r + 1) * 96].tobytes() == one.tobytes()


def test_a_diverged_block_case_names_the_days_step():
    """A block whose second repetition's SCADA rows diverge at step 3 only
    raises the `LibraryError` of classifying that repetition alone, which
    names t=3, not the step's position in the block (t=99)."""
    ctx = build_context(_tiny_config(repetitions=2, master_seed=23))
    readings = [draw_readings(ctx, 0), draw_readings(ctx, 1)]
    readings[1][2][3] = -50.0  # every SCADA bus draws 50 p.u. at step 3
    with pytest.raises(LibraryError) as alone:
        classify(ctx, *readings[1])
    assert "power flow failed for topology I at t=3: " in str(alone.value)
    with pytest.raises(LibraryError) as block:
        classify(ctx, *_joined(readings))
    assert str(block.value) == str(alone.value)


def test_a_repetition_votes_its_stack_by_reductions_over_the_strided_topology_axis(
        monkeypatch):
    """The stack `classify` builds for a block, and its absolute values,
    keep the candidate axis strided, with the steps innermost (2 x 96 floats
    apart for two repetitions of `paper.cfg`), so `vote_stack` takes
    `_unique_minima` for it, never the `argmin` route that would copy the
    stack; a C-ordered stack would take that route."""
    ctx = build_context(_tiny_config(repetitions=2))
    stack = classify(ctx, *_joined([draw_readings(ctx, 0), draw_readings(ctx, 1)]))[0]
    assert stack.strides[-1] == np.abs(stack).strides[-1] == 2 * 96 * stack.itemsize
    routes = []
    for name in ("_unique_argmin", "_unique_minima"):
        route = getattr(detector, name)
        monkeypatch.setattr(detector, name, lambda *args, route=route: (
            routes.append(route.__name__) or route(*args)))
    vote_stack(stack)
    assert set(routes) == {"_unique_minima"}
    routes.clear()
    vote_stack(np.ascontiguousarray(stack))
    assert set(routes) == {"_unique_argmin"}


def test_record_rep_counts_like_a_loop():
    """`record_rep` counts a repetition's outcome arrays, over all true
    topologies at once, with one `bincount` each; a loop over every true
    topology, trial, cell and row is the reference. Row votes are counted
    per label like verdicts, and collapsing the labels to correct,
    incorrect and abstain gives those counts."""
    rng = np.random.default_rng(8)
    report = scenario.DetectionRateReport(topology_ids=("A", "B", "C"),
                                          pmu_bus_ids=(1, 2, 3, 4))
    verdicts = rng.integers(0, 4, size=(3, 50, 3, 2), dtype=np.uint8)
    votes = rng.integers(0, 4, size=(3, 50, 2, 4), dtype=np.uint8)
    report.record_rep(verdicts, votes)
    confusion = np.zeros_like(report.confusion)
    row_votes = np.zeros_like(report.row_votes)
    outcomes = np.zeros((3, 2, 4, 3), dtype=np.int64)  # correct, incorrect, abstain
    for q in range(3):
        for i in range(50):
            for s in range(2):
                for c in range(3):
                    confusion[q, c, s, verdicts[q, i, c, s]] += 1
                for r in range(4):
                    v = votes[q, i, s, r]
                    row_votes[q, s, r, v] += 1
                    outcomes[q, s, r, 0 if v == q else 2 if v == 3 else 1] += 1
    assert report.row_votes.shape == (3, 2, 4, 4)
    assert np.array_equal(report.confusion, confusion)
    assert np.array_equal(report.row_votes, row_votes)
    correct, abstain, n = scenario._rates(report.row_votes)
    assert np.array_equal(np.stack((correct, n - correct - abstain, abstain), axis=-1),
                          outcomes)


@pytest.mark.parametrize("other", [0, 3])
def test_task_counts_do_not_depend_on_the_repetition_count(other):
    """A repetition's noise, and so its counts, depend only on the seed and
    the repetition: repetition 1 counts the same alone under --reps 2 as in
    a chunk with repetition `other` under --reps 5, less that repetition's
    own counts."""
    two = build_context(_tiny_config(repetitions=2, master_seed=13))
    alone = scenario._run_chunk(two, [1])
    ctx = build_context(_tiny_config(repetitions=5, master_seed=13))
    shared = scenario._run_chunk(ctx, sorted([1, other]))
    rest = scenario._run_chunk(ctx, [other])
    assert (alone.confusion.sum(axis=(1, 2, 3)) == 96 * 3 * 2).all()
    assert np.array_equal(alone.confusion, shared.confusion - rest.confusion)
    assert np.array_equal(alone.row_votes, shared.row_votes - rest.row_votes)


def test_experiment_is_array_program(monkeypatch):
    """A serial 4-repetition run solves every topology's true states in one
    5 x 96 grid call and its block of 4 repetitions' libraries in one more
    5 x 384 grid, hashes a
    SeedSequence only for the 2 offset streams of each repetition, its SCADA
    stream and the μPMU streams of its 5 true topologies, and builds no
    per-trial result, verdict or power-flow objects."""
    calls = []
    seed_sequences = []
    batch = powerflow.solve_newton_raphson_batch
    seed_sequence = np.random.SeedSequence

    def counted(ybus, p, q, **kwargs):
        calls.append((len(ybus), len(p), len(q)))
        return batch(ybus, p, q, **kwargs)

    def counted_seed_sequence(*args, **kwargs):
        seed_sequences.append(args)
        return seed_sequence(*args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("per-trial object built on the experiment path")

    monkeypatch.setattr(detector, "solve_newton_raphson_batch", counted)
    monkeypatch.setattr(np.random, "SeedSequence", counted_seed_sequence)
    for module, name in ((detector, "DifferenceMatrices"),
                         (detector, "DetectionOutcome"), (powerflow, "PowerFlowSolution"),
                         (measurements, "MeasurementSet"), (measurements, "PhasorSet"),
                         (measurements, "ScadaSet")):
        monkeypatch.setattr(module, name, forbidden)
    report = run_experiment(_tiny_config(repetitions=4, master_seed=2))
    assert scenario.REPS_PER_BLOCK >= 4
    assert calls == [(5, 96, 96), (5, 4 * 96, 4 * 96)]
    assert len(seed_sequences) == 2 * 4 + (1 + 5) * 4
    assert n_trials(report, "I", "armv", "angle") == 96 * 4


def test_zero_noise_trial_always_correct():
    ctx = build_context(_tiny_config(pmu_sigma=0.0, pmu_accuracy=0.0,
                                     scada_sigma=0.0, scada_accuracy=0.0))
    for true in ("I", "III", "V"):
        _, verdicts, _ = _task(ctx, true)
        assert (verdicts == ctx.topology_ids.index(true)).all()


def _pin_usable_cpus(monkeypatch, n):
    """Make the machine look like it has n usable CPUs to `run_experiment`."""
    monkeypatch.setattr(scenario.os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)


class _InlinePipe(list):
    """Both ends of an inline pipe: what is sent waits in the list."""

    send = list.append

    def recv(self):
        return self.pop(0)

    def close(self):
        pass


class _InlineMultiprocessing:
    """Stands in for `scenario.multiprocessing`: `Process.start()` runs the
    target at once in this process and records the repetitions it was given,
    and `Pipe()` returns one `_InlinePipe` as both ends, so no process
    starts."""

    def __init__(self):
        self.started = []

    def Pipe(self, duplex):
        assert not duplex
        pipe = _InlinePipe()
        return pipe, pipe

    def Process(self, target, args):
        started = self.started

        class InlineProcess:
            exitcode = 0

            def start(self):
                started.append(args[1])
                target(*args)

            def join(self):
                pass

            def terminate(self):
                pass

        return InlineProcess()


def _run_inline_pool(monkeypatch, **overrides):
    """run_experiment with the inline stand-in: (report, the repetitions of
    each started process, the repetitions the caller ran itself)."""
    inline = _InlineMultiprocessing()
    ran = []
    run_chunk = scenario._run_chunk
    monkeypatch.setattr(scenario, "multiprocessing", inline)
    monkeypatch.setattr(scenario, "_run_chunk", lambda ctx, reps: (
        ran.append(reps) or run_chunk(ctx, reps)))
    report = run_experiment(_tiny_config(**overrides))
    return report, inline.started, [reps for reps in ran if reps not in inline.started]


def _assert_same_counts(report, serial):
    assert np.array_equal(report.confusion, serial.confusion)
    assert np.array_equal(report.row_votes, serial.row_votes)


@pytest.mark.usefixtures("fork_per_repetition")
def test_pool_forks_no_more_workers_than_chunks(monkeypatch):
    """Three repetitions make 3 chunks at most, so --jobs 64 starts 2
    processes and the caller runs the first chunk itself."""
    _pin_usable_cpus(monkeypatch, 64)
    serial = run_experiment(_tiny_config(repetitions=3, master_seed=31))
    pooled, started, caller = _run_inline_pool(monkeypatch, repetitions=3, master_seed=31,
                                               jobs=64)
    assert started == [[1], [2]]
    assert caller == [[0]]
    _assert_same_counts(pooled, serial)


@pytest.mark.usefixtures("fork_per_repetition")
@pytest.mark.parametrize("affinity, cpu_count, want_started, want_caller", [
    (3, None, [[2, 3], [4, 5]], [[0, 1]]),
    (None, 2, [[3, 4, 5]], [[0, 1, 2]]),  # no affinity call: os.cpu_count() bounds it
])
def test_pool_forks_no_more_processes_than_usable_cpus(monkeypatch, affinity, cpu_count,
                                                       want_started, want_caller):
    """--jobs 2000 at 6 repetitions makes one chunk per usable CPU, the
    caller's included."""
    if affinity is None:
        monkeypatch.delattr(scenario.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(scenario.os, "cpu_count", lambda: cpu_count)
    else:
        _pin_usable_cpus(monkeypatch, affinity)
    serial = run_experiment(_tiny_config(repetitions=6, master_seed=31))
    pooled, started, caller = _run_inline_pool(monkeypatch, repetitions=6, master_seed=31,
                                               jobs=2000)
    assert started == want_started
    assert caller == want_caller
    _assert_same_counts(pooled, serial)


@pytest.mark.usefixtures("fork_per_repetition")
def test_the_caller_solves_the_true_states_once_before_any_process_starts(monkeypatch):
    """A pooled run solves the true states once, in the caller, and hands
    them to every chunk with the context; when that solve fails, no process
    has started. The true-state solve is the one of the day's injections;
    every other solve is a block's library, from its repetitions' SCADA
    readings: one for the serial run's block of 2, one per 1-repetition
    chunk of the pooled run."""
    _pin_usable_cpus(monkeypatch, 2)
    true_p = build_context(_tiny_config()).true_p
    solve = scenario.solve_library_batch
    solved = []

    def counted(ybus_by_topo, p, *args):
        solved.append(np.array_equal(p, true_p))
        return solve(ybus_by_topo, p, *args)

    monkeypatch.setattr(scenario, "solve_library_batch", counted)
    serial = run_experiment(_tiny_config(repetitions=2, master_seed=31))
    pooled, started, caller = _run_inline_pool(monkeypatch, repetitions=2, master_seed=31,
                                               jobs=2)
    assert (started, caller) == ([[1]], [[0]])
    assert solved.count(True) == 2  # one per run
    assert solved.count(False) == 1 + 2  # one per block
    _assert_same_counts(pooled, serial)

    def failing(ybus_by_topo, p, *args):
        if np.array_equal(p, true_p):
            raise LibraryError("power flow failed for topology III at t=40: diverged")
        return solve(ybus_by_topo, p, *args)

    monkeypatch.setattr(scenario, "solve_library_batch", failing)
    inline = _InlineMultiprocessing()
    monkeypatch.setattr(scenario, "multiprocessing", inline)
    with pytest.raises(LibraryError):
        run_experiment(_tiny_config(repetitions=2, jobs=2))
    assert inline.started == []


@pytest.mark.parametrize("repetitions", [
    1, scenario.MIN_REPS_PER_PROCESS - 1, 2 * scenario.MIN_REPS_PER_PROCESS - 1])
def test_a_run_too_short_to_share_forks_nothing(monkeypatch, repetitions):
    """Below 2 x `MIN_REPS_PER_PROCESS` repetitions no share is worth a
    worker, so even --jobs 64 on 64 usable CPUs runs every repetition in
    the caller, and counts what the serial run counts."""
    _pin_usable_cpus(monkeypatch, 64)
    serial = run_experiment(_tiny_config(repetitions=repetitions, master_seed=31))
    pooled, started, caller = _run_inline_pool(monkeypatch, repetitions=repetitions,
                                               master_seed=31, jobs=64)
    assert started == []
    assert caller == [list(range(repetitions))]
    _assert_same_counts(pooled, serial)


def test_a_run_of_two_shares_starts_one_worker(monkeypatch):
    """At 2 x `MIN_REPS_PER_PROCESS` repetitions on 2 usable CPUs, --jobs 2
    starts exactly one worker, for the second half of the repetitions."""
    _pin_usable_cpus(monkeypatch, 2)
    half = scenario.MIN_REPS_PER_PROCESS
    serial = run_experiment(_tiny_config(repetitions=2 * half, master_seed=31))
    pooled, started, caller = _run_inline_pool(monkeypatch, repetitions=2 * half,
                                               master_seed=31, jobs=2)
    assert started == [list(range(half, 2 * half))]
    assert caller == [list(range(half))]
    _assert_same_counts(pooled, serial)


fork_only = pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                               reason="the test monkeypatches what a forked worker runs")


@contextlib.contextmanager
def _deadline(seconds):
    """Fail with TimeoutError instead of hanging past `seconds`."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.usefixtures("fork_per_repetition")
@fork_only
@pytest.mark.parametrize("failing_rep", [0, 1])  # the caller's chunk, the worker's
def test_library_error_in_a_chunk_exits_3_like_the_serial_run(tmp_path, capsys,
                                                               monkeypatch, failing_rep):
    parent = os.getpid()
    draw = scenario.draw_readings

    def failing_draw_readings(ctx, rep):
        if rep == failing_rep:
            if os.getpid() != parent:
                (tmp_path / "failed-in-worker").touch()
            raise LibraryError("power flow failed for topology III at t=40: diverged")
        return draw(ctx, rep)

    monkeypatch.setattr(scenario, "draw_readings", failing_draw_readings)
    _pin_usable_cpus(monkeypatch, 2)
    errors = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        with _deadline(30):
            code = main(["experiment", "--reps", "2", "--jobs", jobs, "--out-dir", str(out)])
        assert code == EXIT_NUMERICAL
        errors.append(capsys.readouterr().err)
        assert not out.exists()
    assert errors[1] == errors[0] == (
        "numerical error: power flow failed for topology III at t=40: diverged\n")
    assert (tmp_path / "failed-in-worker").exists() == (failing_rep == 1)
    if failing_rep == 1:
        with _deadline(30), pytest.raises(LibraryError) as raised:
            run_experiment(_tiny_config(repetitions=2, jobs=2))
        assert "in failing_draw_readings" in str(raised.value.__cause__)
    assert multiprocessing.active_children() == []


@fork_only
@pytest.mark.usefixtures("fork_per_repetition")
def test_worker_that_exits_without_replying_is_reported(monkeypatch):
    """A worker that dies mid-chunk raises at once, naming its repetitions
    and exit code, and leaves no process behind."""
    parent = os.getpid()
    draw = scenario.draw_readings

    def dying_draw_readings(ctx, rep):
        if rep == 2 and os.getpid() != parent:
            os._exit(1)
        return draw(ctx, rep)

    monkeypatch.setattr(scenario, "draw_readings", dying_draw_readings)
    _pin_usable_cpus(monkeypatch, 2)
    with _deadline(30), pytest.raises(
            RuntimeError, match=r"repetitions 1\.\.2 exited with code 1 without sending"):
        run_experiment(_tiny_config(repetitions=3, jobs=2))
    assert multiprocessing.active_children() == []


@pytest.mark.usefixtures("fork_per_repetition")
def test_pool_under_spawn_matches_serial(monkeypatch):
    """The pool also works where workers are spawned, not forked (the
    default on macOS, and on Linux from Python 3.14)."""
    _pin_usable_cpus(monkeypatch, 2)
    serial = run_experiment(_tiny_config(repetitions=2, master_seed=31))
    monkeypatch.setattr(scenario, "multiprocessing", multiprocessing.get_context("spawn"))
    _assert_same_counts(run_experiment(_tiny_config(repetitions=2, master_seed=31, jobs=2)),
                        serial)
    assert multiprocessing.active_children() == []


@pytest.fixture(scope="module")
def small_report():
    return run_experiment(_tiny_config(repetitions=2, master_seed=9))


def test_experiment_counts(small_report):
    correct, inconclusive, n = small_report.counts()
    assert n.shape == (len(small_report.topology_ids), len(CRITERIA), len(SIGNALS))
    assert (n == 96 * 2).all()
    assert (correct >= 0).all() and (inconclusive >= 0).all()
    assert (correct + inconclusive <= n).all()
    for q, true in enumerate(small_report.topology_ids):
        for c, crit in enumerate(CRITERIA):
            for s, sig in enumerate(SIGNALS):
                assert n_trials(small_report, true, crit, sig) == 96 * 2
                assert correct_rate(small_report, true, crit, sig) == correct[q, c, s] / (96 * 2)


def test_confusion_counts_sum(small_report):
    assert (small_report.counts()[2].sum(axis=0) == 5 * 96 * 2).all()
    assert (small_report.confusion.sum(axis=(0, 3)) == 5 * 96 * 2).all()


@pytest.mark.usefixtures("fork_per_repetition")
def test_parallel_matches_serial():
    serial = run_experiment(_tiny_config(repetitions=2, master_seed=31, jobs=1))
    parallel = run_experiment(_tiny_config(repetitions=2, master_seed=31, jobs=4))
    for true in serial.topology_ids:
        for crit in CRITERIA:
            for sig in SIGNALS:
                assert (correct_rate(serial, true, crit, sig)
                        == correct_rate(parallel, true, crit, sig))
    assert np.array_equal(serial.confusion, parallel.confusion)
    assert np.array_equal(serial.row_votes, parallel.row_votes)


def test_write_report_schema(small_report, tmp_path):
    """rates.csv has one row per (true topology, criterion, signal) and
    bus_rates.csv one per (true topology, signal, bus), each rate written
    once: the per-bus rates do not depend on the criterion."""
    paths = write_report(small_report, tmp_path)
    assert [p.name for p in paths] == ["rates.csv", "bus_rates.csv", "confusion.csv"]
    rates_path, bus_rates_path, confusion_path = paths
    ids = small_report.topology_ids
    with rates_path.open() as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["true_topology", "criterion", "signal", "correct_rate",
                             "inconclusive_rate", "n"]
    assert [(r["true_topology"], r["criterion"], r["signal"]) for r in rows] == list(
        itertools.product(ids, CRITERIA, SIGNALS))
    correct, inconclusive, n = small_report.counts()
    for row, ok, undecided, total in zip(rows, correct.ravel(), inconclusive.ravel(),
                                         n.ravel()):
        assert row["correct_rate"] == f"{ok / total:.6f}"
        assert row["inconclusive_rate"] == f"{undecided / total:.6f}"
        assert row["n"] == str(total) == str(96 * 2)

    with bus_rates_path.open() as fh:
        bus_rows = list(csv.DictReader(fh))
    assert list(bus_rows[0]) == ["true_topology", "signal", "bus", "correct_rate",
                                 "abstain_rate", "n"]
    assert [(r["true_topology"], r["signal"], r["bus"]) for r in bus_rows] == [
        (q, s, str(b)) for q, s, b in itertools.product(ids, SIGNALS, small_report.pmu_bus_ids)]
    for row in bus_rows:
        assert 0.0 <= float(row["correct_rate"]) + float(row["abstain_rate"]) <= 1.0
        assert row["n"] == str(96 * 2)

    with confusion_path.open() as fh:
        crows = list(csv.DictReader(fh))
    total = sum(int(r["count"]) for r in crows)
    n_cfg = len(CRITERIA) * len(SIGNALS)
    assert total == n_cfg * len(ids) * 96 * 2


@pytest.mark.usefixtures("fork_per_repetition")
def test_report_byte_determinism(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    write_report(run_experiment(_tiny_config(repetitions=1, master_seed=55)), out_a)
    write_report(run_experiment(_tiny_config(repetitions=1, master_seed=55, jobs=2)), out_b)
    for name in ("rates.csv", "bus_rates.csv", "confusion.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_more_noise_does_not_help():
    """ARMV angle accuracy decays as μPMU noise grows."""

    def rate(sigma):
        rep = run_experiment(_tiny_config(
            repetitions=2, master_seed=77, pmu_sigma=sigma,
            pmu_accuracy=0.0, scada_sigma=0.0, scada_accuracy=0.0))
        total = sum(correct_rate(rep, t, "armv", "angle")
                    for t in rep.topology_ids) / 5
        return total

    clean = rate(0.0)
    paper = rate(0.00025)
    loud = rate(0.0025)
    assert clean == 1.0
    assert clean >= paper >= loud


def test_summary_mentions_every_criterion(small_report):
    text = "\n".join(summarize(small_report))
    for crit in ("rmv", "armv", "ormv"):
        assert crit.upper() in text


def test_per_bus_rows_name_their_bus_whatever_the_file_order(tmp_path, reversed_net):
    """bus_rates.csv labels its rows in bus-id order, the order of the
    ADM/MDM rows, also when the network file lists its buses 5..1, and its
    bytes are the bundled file's. The slack bus (1) has the same calculated
    state under every topology, so its row always abstains."""
    for net in (fixture_path("fivebus.net"), reversed_net):
        report = run_experiment(_tiny_config(network=str(net), master_seed=3))
        assert report.pmu_bus_ids == (1, 2, 3, 4, 5)
        write_report(report, tmp_path / net.stem)
    bus_rates = tmp_path / "reversed" / "bus_rates.csv"
    assert bus_rates.read_bytes() == (tmp_path / "fivebus" / "bus_rates.csv").read_bytes()
    with bus_rates.open() as fh:
        rows = list(csv.DictReader(fh))
    assert [r["bus"] for r in rows[:5]] == ["1", "2", "3", "4", "5"]
    for row in rows:
        always_abstains = (row["correct_rate"], row["abstain_rate"]) == (
            "0.000000", "1.000000")
        assert always_abstains == (row["bus"] == "1"), row
