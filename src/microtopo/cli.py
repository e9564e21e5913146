"""Command-line interface.

Subcommands: validate, powerflow, library, detect, experiment. Exit codes:
0 success, 1 usage error, 2 validation/configuration error, 3 numerical
failure.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import itertools
import sys
from pathlib import Path

from . import __version__, network, profiles
from .detector import CRITERIA, INCONCLUSIVE, SIGNALS, solve_library_batch
from .network import NetworkError, load_network
from .powerflow import PowerFlowError
from .scenario import (
    ConfigError,
    build_context,
    classify,
    draw_readings,
    dump_matrices_csv,
    fixture_path,
    load_config,
    run_experiment,
    summarize,
    write_report,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

# Config keys that detect and experiment also take as --pmu-sigma etc.
_NOISE_KEYS = ("pmu_sigma", "pmu_accuracy", "scada_sigma", "scada_accuracy")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


@functools.cache
def _build_parser() -> _Parser:
    """The command-line parser, built once per process, which saves only a
    caller that runs `main` more than once; `parse_args` leaves it as it was."""
    parser = _Parser(prog="microtopo",
                     description="Microgrid topology detection toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    default_net = str(fixture_path("fivebus.net"))

    p_val = sub.add_parser("validate", help="check a network definition file")
    p_val.add_argument("--net", default=default_net, help="network definition file")

    p_pf = sub.add_parser("powerflow", help="solve one power flow case")
    p_pf.add_argument("--net", default=default_net)
    p_pf.add_argument("--topo", required=True, help="topology id, e.g. I")
    p_pf.add_argument("--zero-load", action="store_true",
                      help="solve with all injections zero")
    p_pf.add_argument("--profile", default="default",
                      help="'default' or a profile CSV path")
    p_pf.add_argument("--t", type=int, default=None,
                      help="profile time step 0..95")
    p_pf.add_argument("--csv", default=None, help="also write the solution CSV here")

    p_lib = sub.add_parser("library", help="solve all topologies over a day profile")
    p_lib.add_argument("--net", default=default_net)
    p_lib.add_argument("--profile", default="default")
    p_lib.add_argument("--out", default=None, help="write library CSV here")

    p_det = sub.add_parser("detect", help="run one detection trial")
    p_det.add_argument("--net", default=default_net)
    p_det.add_argument("--topo", required=True, help="true topology id")
    p_det.add_argument("--t", type=int, default=48, help="time step 0..95")
    p_det.add_argument("--profile", default="default")
    p_det.add_argument("--seed", type=int, default=1)
    for key in _NOISE_KEYS:
        p_det.add_argument("--" + key.replace("_", "-"), type=float, default=None)
    p_det.add_argument("--dump-matrices", default=None, metavar="PATH",
                       help="write the ADM/MDM matrices as CSV")

    p_exp = sub.add_parser("experiment", help="run the Monte Carlo experiment")
    p_exp.add_argument("config", nargs="?", default=str(fixture_path("paper.cfg")),
                       help="experiment config file (defaults to bundled paper.cfg)")
    p_exp.add_argument("--seed", type=int, default=None)
    p_exp.add_argument("--reps", type=int, default=None)
    p_exp.add_argument("--net", default=None)
    p_exp.add_argument("--profile", default=None)
    for key in _NOISE_KEYS:
        p_exp.add_argument("--" + key.replace("_", "-"), type=float, default=None)
    p_exp.add_argument("--jobs", type=int, default=None,
                       help="processes that run the repetitions, this one "
                            "included, at most one per usable CPU (default: the "
                            "config's jobs key, else 1)")
    p_exp.add_argument("--out-dir", default="results")
    return parser


def _injections_for(graph, args):  # the (1, buses) p and q rows of the case
    if args.zero_load:
        return [[0.0] * graph.n_bus], [[0.0] * graph.n_bus]
    if args.t is None:
        raise ConfigError("either --zero-load or --profile with --t is required")
    if not 0 <= args.t < profiles.N_STEPS:
        raise ConfigError(f"--t must be in 0..{profiles.N_STEPS - 1}")
    p, q, _ = profiles.load_injections(graph, args.profile)
    return p[args.t:args.t + 1], q[args.t:args.t + 1]


def _find_topology(topologies, topo_id):
    for topo in topologies:
        if topo.id == topo_id:
            return topo
    raise ConfigError(f"unknown topology {topo_id!r} "
                      f"(have: {', '.join(t.id for t in topologies)})")


def cmd_validate(args) -> int:
    try:
        graph, topologies = load_network(args.net)
    except network.ValidationError as exc:
        print(f"{args.net}: INVALID")
        for violation in exc.violations:
            print(f"  - {violation}")
        return EXIT_VALIDATION
    print(f"{args.net}: OK")
    print(f"  {graph.n_bus} buses, {len(graph.lines)} lines, "
          f"{len(topologies)} topologies, all connected")
    return EXIT_OK


def cmd_powerflow(args) -> int:
    graph, topologies = load_network(args.net)
    topo = _find_topology(topologies, args.topo)
    # One case, as a 1 x 1 grid of the library's solver: a failure raises LibraryError.
    batch = solve_library_batch({topo.id: network.build_ybus(graph, topo)},
                                *_injections_for(graph, args), [args.t], graph.slack_index)
    rows = list(zip(graph.bus_ids, batch.vm[0, 0], batch.va_deg[0, 0]))
    print(f"topology {topo.id}  converged in {batch.iterations[0, 0]} iterations  "
          f"max mismatch {batch.mismatch[0, 0]:.2e} p.u.")
    print(f"{'bus':>4s} {'vm [p.u.]':>12s} {'va [deg]':>12s}")
    for bus_id, vm, va in rows:
        print(f"{bus_id:4d} {vm:12.6f} {va:12.6f}")
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["bus", "vm_pu", "va_deg"])
            for bus_id, vm, va in rows:
                writer.writerow([bus_id, f"{vm:.9f}", f"{va:.9f}"])
    return EXIT_OK


def cmd_library(args) -> int:
    graph, topologies = load_network(args.net)
    p, q, _ = profiles.load_injections(graph, args.profile)
    steps = range(profiles.N_STEPS)
    batch = solve_library_batch({topo.id: network.build_ybus(graph, topo) for topo in topologies},
                                p, q, steps, graph.slack_index)
    print(f"library: {len(topologies)} topologies x {len(steps)} steps "
          f"= {batch.converged.size} solutions")
    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["topology", "time_index", "bus", "vm_pu", "va_deg"])
            for topo, vm_grid, va_grid in zip(topologies, batch.vm, batch.va_deg):
                for t, vm_row, va_row in zip(steps, vm_grid, va_grid):
                    for bus_id, vm, va in zip(graph.bus_ids, vm_row, va_row):
                        writer.writerow([topo.id, t, bus_id, f"{vm:.9f}", f"{va:.9f}"])
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_detect(args) -> int:
    # Repetition 0 only: each repetition draws its offsets from its own streams.
    config = load_config(fixture_path("paper.cfg"), network=args.net,
                         profile=args.profile, master_seed=args.seed, repetitions=1,
                         **{key: getattr(args, key) for key in _NOISE_KEYS})
    ctx = build_context(config)
    if not 0 <= args.t < profiles.N_STEPS:
        raise ConfigError(f"--t must be in 0..{profiles.N_STEPS - 1}")
    topo = _find_topology(ctx.topologies, args.topo)
    t = args.t
    index = (ctx.topology_ids.index(topo.id), t)  # trial (topology, t, rep 0)
    stack, verdicts, votes = classify(ctx, *draw_readings(ctx, 0))
    print(f"true topology {topo.id}, t={t}, seed={config.master_seed}")
    verdict_labels = ctx.topology_ids + (INCONCLUSIVE,)
    cells = zip(itertools.product(CRITERIA, SIGNALS), verdicts[index].ravel().tolist())
    for (crit, sig), code in sorted(cells):
        print(f"  {crit.upper():5s} {sig:9s} -> {verdict_labels[code]}")
    vote_labels = ctx.topology_ids + ("abstain",)
    rendered = ", ".join(f"{b}:{vote_labels[v]}" for b, v in zip(
        ctx.graph.bus_ids, votes[index][SIGNALS.index("angle")]))
    print(f"  per-bus angle votes: {rendered}")
    if args.dump_matrices:
        dump_matrices_csv(stack[index], ctx.graph.bus_ids, ctx.topology_ids, args.dump_matrices)
        print(f"wrote {args.dump_matrices}")
    return EXIT_OK


def cmd_experiment(args) -> int:
    config = load_config(args.config,
                         master_seed=args.seed, repetitions=args.reps,
                         network=args.net, profile=args.profile, jobs=args.jobs,
                         **{key: getattr(args, key) for key in _NOISE_KEYS})
    # Made before the sweep, so an unusable --out-dir fails at once, not after
    # it; a sweep that fails removes it again, with the parents it needed.
    out_dir = Path(args.out_dir)
    created = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        report = run_experiment(config)
    except BaseException:
        for d in created:
            with contextlib.suppress(OSError):
                d.rmdir()
        raise
    *paths, last = write_report(report, args.out_dir)
    print(f"experiment: {len(report.topology_ids)} topologies x "
          f"{profiles.N_STEPS} steps x {config.repetitions} repetitions "
          f"(seed {config.master_seed})")
    for line in summarize(report):
        print(f"  {line}")
    print(f"wrote {', '.join(map(str, paths))} and {last}")
    return EXIT_OK


_COMMANDS = {
    "validate": cmd_validate,
    "powerflow": cmd_powerflow,
    "library": cmd_library,
    "detect": cmd_detect,
    "experiment": cmd_experiment,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, NetworkError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except PowerFlowError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
