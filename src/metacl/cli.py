"""Command-line entry point.

Subcommands: run, sweep, grid, ablate, report. Configuration comes from an
optional ``--config`` file overlaid with repeatable ``--set KEY=VALUE`` flags;
``--seed``/``--seeds`` (one or the other) and ``--out`` are shortcuts for the
matching keys. Exit code 0 on success, 2 on any usage, validation or runtime
error.
"""

import argparse
import json
import sys

from .config import ABLATION_MODES, RunConfig, apply_overrides, load_config
from .errors import ConfigurationError
from .experiments import (
    GRID_TASKS,
    SWEEP_AXES,
    ablate,
    execute_run,
    grid,
    report,
    run_dir_name,
    seed_stats,
    sweep,
)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="metacl",
        description="Adversarial continual-learning experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="key = value config file")
        seeds = p.add_mutually_exclusive_group()
        seeds.add_argument("--seed", type=int, help="single seed shortcut")
        seeds.add_argument("--seeds", help="comma-separated seed list")
        p.add_argument("--out", help="output directory")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override one config key")

    p_run = sub.add_parser("run", help="train one method over all seeds")
    add_common(p_run)

    p_sweep = sub.add_parser("sweep", help="sweep one axis")
    add_common(p_sweep)
    p_sweep.add_argument("--axis", choices=tuple(SWEEP_AXES), required=True)
    p_sweep.add_argument("--values", help="comma-separated axis values")

    p_grid = sub.add_parser("grid",
                            help=f"hyperparameter grid on a stream rebuilt "
                                 f"with n_tasks={GRID_TASKS} (on a synthetic "
                                 f"split stream, not the run stream's first "
                                 f"tasks)")
    add_common(p_grid)
    p_grid.add_argument("--space", help="JSON {axis: [values]} restriction")

    p_ablate = sub.add_parser(
        "ablate", help=f"run ablations {', '.join(ABLATION_MODES)}")
    add_common(p_ablate)
    p_ablate.add_argument("--modes", default=",".join(ABLATION_MODES),
                          help="comma-separated ablation modes")

    p_report = sub.add_parser("report", help="aggregate records in a directory")
    p_report.add_argument("--out", required=True,
                          help="directory holding record.json files")
    return parser


def assemble_config(args):
    config = load_config(args.config) if args.config else RunConfig()
    config = apply_overrides(config, args.overrides)
    pairs = []
    if args.seeds is not None:
        pairs.append(f"seeds=[{args.seeds}]")
    if args.seed is not None:
        pairs.append(f"seeds=[{args.seed}]")
    if args.out is not None:
        pairs.append(f"out_dir={args.out}")
    return apply_overrides(config, pairs)


def summarize(records, out):
    s = seed_stats(records)
    first = records[0]
    print(f"{first.method}-{first.ablation}: {s['n_seeds']} seed(s)  "
          f"ACC {s['mean_acc']:.4f}±{s['std_acc']:.4f}  "
          f"FM {s['mean_fm']:.4f}±{s['std_fm']:.4f}  "
          f"LA {s['mean_la']:.4f}", file=out)


def print_table(table, label, path, out):
    """One ACC/FM/LA line per run-set of ``table``, then where its CSV is."""
    for key, records in table.items():
        s = seed_stats(records)
        print(f"{label}{key}: ACC {s['mean_acc']:.4f}  "
              f"FM {s['mean_fm']:.4f}  LA {s['mean_la']:.4f}", file=out)
    print(f"table: {path}", file=out)


def cmd_run(args, out):
    config = assemble_config(args)
    records = execute_run(config)
    print(f"run dir: {config.out_dir}/{run_dir_name(config)}", file=out)
    summarize(records, out)
    return 0


def cmd_sweep(args, out):
    config = assemble_config(args)
    values = None
    if args.values is not None:
        # an empty --values is no value, which sweep rejects
        values = []
        for v in args.values.split(",") if args.values else ():
            try:
                values.append(json.loads(v))
            except json.JSONDecodeError as exc:
                raise ConfigurationError(
                    f"--values entry {v!r} is not valid JSON: {exc}")
    print_table(sweep(config, args.axis, values=values), f"{args.axis}=",
                f"{config.out_dir}/sweep-{args.axis}.csv", out)
    return 0


def cmd_grid(args, out):
    config = assemble_config(args)
    space = None
    if args.space is not None:
        try:
            space = json.loads(args.space)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"--space is not valid JSON: {exc}")
        if not isinstance(space, dict):
            raise ConfigurationError("--space must be a JSON object")
    best, rows = grid(config, space=space)
    print(f"{len(rows)} combinations over {sorted(best)}", file=out)
    print(f"best: {json.dumps(best, sort_keys=True)}", file=out)
    print(f"table: {config.out_dir}/grid.csv", file=out)
    return 0


def cmd_ablate(args, out):
    config = assemble_config(args)
    modes = tuple(m.strip() for m in args.modes.split(",") if m.strip())
    print_table(ablate(config, modes=modes), "ablation ",
                f"{config.out_dir}/ablations.csv", out)
    return 0


def cmd_report(args, out):
    text, _rows = report(args.out)
    print(text, file=out)
    return 0


COMMANDS = {
    "run": cmd_run,
    "sweep": cmd_sweep,
    "grid": cmd_grid,
    "ablate": cmd_ablate,
    "report": cmd_report,
}


def main(argv=None, out=None, err=None):
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args, out)
    except Exception as exc:
        print(f"error: {exc}", file=err)
        return 2


if __name__ == "__main__":
    sys.exit(main())
