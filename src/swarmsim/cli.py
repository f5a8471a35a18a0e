"""Command-line interface.

Subcommands:
  run      execute one scenario, write CSV metrics and a text report
  sweep    rerun a scenario across values of one config field
  energy   price a scenario's mission against the batteries
  presets  list the bundled scenario configurations

Configs are JSON files; an argument that is not an existing file is looked
up among the bundled presets by name. Exit status: 0 on success, 1 when the
configuration is rejected, 2 when the mission aborts, 3 when the simulator
breaks one of its own invariants (a defect; the message names the run and
seed that reproduce it).
"""
from __future__ import annotations

import argparse
import json
import sys
from importlib import resources
from pathlib import Path

from .config import ScenarioConfig, load_config, parse_config, to_dict
from .energy import battery_feasible, durability_report, format_durability, mission_plan
from .errors import ConfigError, RunInvariantError
from .output import emit_csv, emit_report, run_summary
from .runner import run_scenario, sweep_points

EXIT_OK = 0
EXIT_CONFIG_ERROR = 1
EXIT_MISSION_ABORT = 2
EXIT_DEFECT = 3


def _preset_root():
    return resources.files("swarmsim").joinpath("presets")


def list_presets() -> list[str]:
    return sorted(
        entry.name[: -len(".json")]
        for entry in _preset_root().iterdir()
        if entry.name.endswith(".json")
    )


def _resolve_config(arg: str) -> ScenarioConfig:
    path = Path(arg)
    if path.exists():
        return load_config(path)
    name = arg[: -len(".json")] if arg.endswith(".json") else arg
    candidate = _preset_root().joinpath(f"{name}.json")
    if candidate.is_file():
        data = json.loads(candidate.read_text(encoding="utf-8"))
        return parse_config(data, name=name)
    raise ConfigError(
        f"no config file or preset named {arg!r}; presets: {', '.join(list_presets())}"
    )


def _with_seed(cfg: ScenarioConfig, seed: int | None) -> ScenarioConfig:
    if seed is None:
        return cfg
    data = to_dict(cfg)
    data["seed"] = seed
    return parse_config(data, name=cfg.name)


def _parse_values(raw: str) -> list:
    values = []
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            values.append(json.loads(part))
        except json.JSONDecodeError:
            values.append(part)
        except (RecursionError, ValueError) as ex:  # too deep or too many digits
            raise ConfigError(f"--values: cannot parse: {str(ex).split(';')[0]}") from None
    if not values:
        raise ConfigError("--values needs at least one value")
    return values


def _output_dir(arg: str) -> Path:
    """Create the ``--out`` directory before anything runs, so a path that
    cannot be one is rejected up front."""
    out = Path(arg)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as ex:
        raise ConfigError(f"--out {arg!r} cannot be a directory: {ex.strerror}") from None
    return out


def _cmd_run(args) -> int:
    cfg = _with_seed(_resolve_config(args.config), args.seed)
    out = _output_dir(args.out)
    result = run_scenario(cfg)
    csv_path = emit_csv([result], out / f"{cfg.name}.csv")
    report_path = emit_report([result], out / f"{cfg.name}.txt")
    print(run_summary(result))
    print(f"wrote {csv_path} and {report_path}")
    return EXIT_MISSION_ABORT if result.aborted else EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = _with_seed(_resolve_config(args.config), args.seed)
    points = sweep_points(cfg, args.axis, _parse_values(args.values))
    out = _output_dir(args.out)
    results = [run_scenario(point) for point in points]
    csv_path = emit_csv(results, out / f"{cfg.name}-sweep.csv")
    report_path = emit_report(results, out / f"{cfg.name}-sweep.txt")
    for result in results:
        print(run_summary(result))
    print(f"wrote {csv_path} and {report_path}")
    aborted = any(r.aborted for r in results)
    return EXIT_MISSION_ABORT if aborted else EXIT_OK


def _cmd_energy(args) -> int:
    cfg = _resolve_config(args.config)
    plan = mission_plan(cfg.mission)
    print(format_durability(durability_report(plan)))
    ok, max_sessions = battery_feasible(cfg.mission, plan)
    verdict = "fits" if ok else "does NOT fit"
    print(
        f"planned {cfg.mission.n_sessions} session(s) of "
        f"{cfg.mission.session_duration_s / 60.0:g} min: {verdict} "
        f"(limit {max_sessions})"
    )
    return EXIT_OK


def _cmd_presets(args) -> int:
    for name in list_presets():
        print(name)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swarmsim",
        description="Discrete-event simulator for a self-organizing drone "
        "swarm collecting field data through a leader relay.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario")
    p_run.add_argument("config", help="config file path or preset name")
    p_run.add_argument("--seed", type=int, default=None, help="override the seed")
    p_run.add_argument("--out", default="out", help="output directory (default: out)")
    p_run.set_defaults(fn=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a one-axis parameter sweep")
    p_sweep.add_argument("config", help="base config file path or preset name")
    p_sweep.add_argument("--axis", required=True, help="config field to vary")
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated values for the axis")
    p_sweep.add_argument("--seed", type=int, default=None, help="override the base seed")
    p_sweep.add_argument("--out", default="out", help="output directory (default: out)")
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_energy = sub.add_parser("energy",
                              help="price a scenario's mission against the batteries")
    p_energy.add_argument("config", help="config file path or preset name")
    p_energy.set_defaults(fn=_cmd_energy)

    p_presets = sub.add_parser("presets", help="list bundled scenario configs")
    p_presets.set_defaults(fn=_cmd_presets)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except RunInvariantError as ex:
        print(f"error: simulator defect: {ex}", file=sys.stderr)
        return EXIT_DEFECT


if __name__ == "__main__":
    sys.exit(main())
