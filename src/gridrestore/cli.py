"""Command-line entry point.

Subcommands: train, eval, oracle, compare, powerflow, validate. ``SETTINGS``
states the training settings once, with defaults read from ``TrainingConfig()``;
``train``, ``eval`` and each ``compare`` variant resolve them on one path
(defaults <- config file <- flags), and one reader casts every value, naming
the key it cannot read; ``eval`` has flags only for the two it reads, ``feeder``
and ``execute_steps``. ``--print-config`` shows the result; ``train`` writes
it next to its outputs. Seeds are mandatory. No environment variable is read.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import reduce
from pathlib import Path

from .agent import EpsilonSchedule, Hyperparameters
from .builtins import BUILTIN_NAMES, builtin_feeder
from .feeder import (Feeder, FeederError, FeederReferenceError, FeederValidationError,
                     load_feeder, validate_feeder)
from .oracle import brute_force, load_result, save_result
from .powerflow import check_constraints, solve
from .training import (
    TrainingConfig,
    _write_csv,
    compare,
    execute,
    load_models,
    save_models,
    train,
    write_comparison_csv,
    write_episodes_csv,
    write_trace_csv,
)

# One row per setting: config key, TrainingConfig attribute path (feeder and
# execute_steps are not TrainingConfig fields) and flag help.
SETTINGS = (
    ("feeder", None, "built-in name (ieee13, ieee123) or document path"),
    ("episodes", "episodes", "number of training episodes"),
    ("steps", "steps_per_episode", "environment steps per episode"),
    ("sync_interval", "sync_interval", "environment steps between target-network syncs"),
    ("mask", "masking", "invalid-action masking; off switches to penalty rewards"),
    ("agents", "agent_mode", "agent mode"),
    ("penalty", "penalty", "penalty reward M when masking is off"),
    ("hidden", "hidden_sizes", "hidden layer sizes, e.g. 64,64"),
    ("gamma", "hyper.gamma", "discount factor"),
    ("alpha", "hyper.alpha", "target blend rate"),
    ("eta", "hyper.eta", "SGD step size"),
    ("batch_size", "hyper.batch_size", "replay batch size"),
    ("capacity", "hyper.capacity", "replay buffer capacity"),
    ("eps_min", "schedule.eps_min", "epsilon floor"),
    ("eps_max", "schedule.eps_max", "epsilon ceiling"),
    ("decay", "schedule.decay", "epsilon decay rate per episode"),
    ("seed", "hyper.seed", "run seed (required; no clock default)"),
    ("execute_steps", None, "greedy rollout length used by eval"),
)
CHOICES = {"mask": ("on", "off"), "agents": ("multi", "single")}
_EXPECTED = {int: "an integer", float: "a number", str: "a string", "agents": '"multi" or "single"',
             bool: '"on", "off", true or false', tuple: 'layer sizes such as "64,64"'}


def _written(value):
    """A setting in its config-file form: mask "on"/"off", hidden "64,64"."""
    if isinstance(value, bool):
        return "on" if value else "off"
    return ",".join(map(str, value)) if isinstance(value, tuple) else value


# Each setting's value in TrainingConfig(), or eval's rollout length; its type
# is the setting's type. A run names its feeder and seed, so neither has a default.
_BASE = TrainingConfig()
_TYPED = {"feeder": "", "execute_steps": 16}
_TYPED.update((key, reduce(getattr, path.split("."), _BASE)) for key, path, _ in SETTINGS if path)
DEFAULTS = {k: None if k in ("feeder", "seed") else _written(v) for k, v in _TYPED.items()}


def _read(key: str, value, where: str = ""):
    """One flag string or config-file value of ``key``, cast to its type."""
    if value is None and DEFAULTS[key] is None:
        return None  # feeder and seed stay unset until a command needs them
    kind = type(_TYPED[key])
    try:
        if kind is bool and (isinstance(value, bool) or value in CHOICES[key]):
            return value in (True, "on")
        if kind is str and isinstance(value, str) and value in CHOICES.get(key, (value,)):
            return value
        if kind is tuple and isinstance(value, str):
            return tuple(int(x) for x in value.replace(" ", "").split(",") if x)
        if kind in (int, float) and (isinstance(value, str) or type(value) in (int, kind)):
            return kind(value)
    except (ValueError, OverflowError):
        pass
    expected = _EXPECTED.get(key, _EXPECTED[kind])
    raise ValueError(f"{where}{key} must be {expected}, not {json.dumps(value)}")


def _resolve_feeder(name_or_path: str) -> Feeder:
    if not name_or_path:
        raise ValueError("--feeder is required")
    if name_or_path in BUILTIN_NAMES:
        return builtin_feeder(name_or_path)
    path = Path(name_or_path)
    if not path.exists():
        raise FeederError(
            f"unknown feeder {name_or_path!r}: not a built-in "
            f"({', '.join(BUILTIN_NAMES)}) and no such file"
        )
    with open(path, "rb") as fh:
        return load_feeder(fh)


def _read_config(path) -> dict:
    """One JSON config file: an object of ``SETTINGS`` keys, each value read."""
    with open(path, encoding="utf-8") as fh:
        try:
            values = json.load(fh)
        except json.JSONDecodeError as e:
            raise ValueError(f"config file {path}: not valid JSON ({e})") from None
    if not isinstance(values, dict):
        raise ValueError(f"config file {path}: the top level must be a JSON object, "
                         f"not {type(values).__name__}")
    unknown = set(values) - set(DEFAULTS)
    if unknown:
        raise ValueError(f"config file {path}: unknown config keys: {', '.join(sorted(unknown))}")
    return {k: _written(_read(k, v, f"config file {path}: ")) for k, v in values.items()}


def _resolved_config(args, config_path) -> dict:
    """defaults <- config file <- explicit flags, in increasing precedence."""
    flags = {k: _written(_read(k, v)) for k, v in vars(args).items()
             if k in DEFAULTS and v is not None}
    return {**DEFAULTS, **(_read_config(config_path) if config_path else {}), **flags}


def _training_config(resolved: dict) -> TrainingConfig:
    if resolved.get("seed") is None:
        raise ValueError("a seed is required (--seed or config file); runs must be reproducible")
    parts = {"": {}, "hyper": {}, "schedule": {}}
    for key, path, _ in SETTINGS:
        if path:
            owner, _, name = path.rpartition(".")
            parts[owner][name] = _read(key, resolved[key])
    return TrainingConfig(**parts[""], hyper=Hyperparameters(**parts["hyper"]),
                          schedule=EpsilonSchedule(**parts["schedule"]))


def _add_config_flags(p: argparse.ArgumentParser, settings) -> None:
    """One flag per row of ``settings``, then ``--config`` and ``--print-config``."""
    for key, _, help_text in settings:
        p.add_argument("--" + key.replace("_", "-"), dest=key, choices=CHOICES.get(key),
                       help=help_text)
    p.add_argument("--config", help="JSON config file (flags override it)")
    p.add_argument("--print-config", action="store_true",
                   help="print the fully resolved configuration and exit")


def _cmd_train(args) -> int:
    resolved = _resolved_config(args, args.config)
    if args.print_config:
        print(json.dumps(resolved, indent=2, sort_keys=True))
        return 0
    feeder = _resolve_feeder(resolved["feeder"])
    cfg = _training_config(resolved)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(json.dumps(resolved, indent=2, sort_keys=True) + "\n")
    models, logs = train(feeder, cfg)
    write_episodes_csv(out / "episodes.csv", logs)
    save_models(out, feeder, models)
    total_violations = sum(log.violations for log in logs)
    print(f"trained {cfg.episodes} episodes; "
          f"final episode reward {logs[-1].reward:.4f}; "
          f"violations {total_violations}" if logs else "trained 0 episodes")
    return 0


def _cmd_eval(args) -> int:
    resolved = _resolved_config(args, args.config)
    if args.print_config:
        print(json.dumps(resolved, indent=2, sort_keys=True))
        return 0
    feeder = _resolve_feeder(resolved["feeder"])
    nets, slots = load_models(args.checkpoints, feeder)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    trace = execute(nets, feeder, max_steps=resolved["execute_steps"], slots=slots)
    write_trace_csv(out / "trace.csv", trace)
    print(f"greedy rollout served {trace.final_served_kw:.1f} kW after "
          f"{resolved['execute_steps']} steps; "
          f"violations {trace.total_violations}")
    return 0


def _cmd_oracle(args) -> int:
    feeder = _resolve_feeder(args.feeder)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cache_path = out / "oracle.json"
    result = None if args.force else load_result(cache_path, feeder)
    prefix, suffix = "cached: ", ""
    if result is None:
        result = brute_force(feeder, method=args.method)
        save_result(cache_path, feeder, result)
        prefix, suffix = "", f" [{result.method}]"
    print(f"{prefix}best {result.best_weighted_kw:.1f} kW weighted "
          f"({result.best_served_kw:.1f} kW served), "
          f"{result.feasible_count} feasible of {result.evaluated_count}, "
          f"{result.solved_count} solved{suffix}")
    return 0


def _cmd_compare(args) -> int:
    variants = [(Path(path).stem, _resolved_config(args, path)) for path in args.variants]
    if args.print_config:
        print(json.dumps(dict(variants), indent=2, sort_keys=True))
        return 0
    configs = [(label, _training_config(resolved)) for label, resolved in variants]
    feeder = _resolve_feeder(args.feeder)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = compare(feeder, configs)
    write_comparison_csv(out / "comparison.csv", rows)
    for row in rows:
        print(f"{row['variant']}: final50 mean {row['final50_mean']:.3f} "
              f"std {row['final50_std']:.3f}, violations {row['violations']}, "
              f"converged at {row['convergence_episode']}")
    return 0


def _cmd_powerflow(args) -> int:
    feeder = _resolve_feeder(args.feeder)
    states_text = args.states.strip()
    if len(states_text) != feeder.n_breakers or set(states_text) - {"0", "1"}:
        raise ValueError(
            f"--states must be a {feeder.n_breakers}-character 0/1 string "
            f"in breaker order"
        )
    states = [int(c) for c in states_text]
    solution = solve(feeder, states)
    report = check_constraints(feeder, solution)
    print(f"served {solution.served_load_kw:.1f} kW, "
          f"losses {solution.total_losses_kw:.3f} kW, "
          f"converged {solution.converged} in {solution.iterations} iterations")
    print(f"power_balance {'ok' if report.power_balance_ok else 'FAIL'} "
          f"(margin {report.power_balance_margin_kw:.1f} kW)")
    print(f"voltage {'ok' if report.voltage_ok else 'FAIL'} "
          f"(worst {report.worst_voltage:.4f} at {report.worst_voltage_bus or '-'})")
    print(f"gen_p {'ok' if report.gen_p_ok else 'FAIL'}; "
          f"gen_q {'ok' if report.gen_q_ok else 'FAIL'}")
    print(f"line_s {'ok' if report.line_s_ok else 'FAIL'} "
          f"(worst {report.worst_line_loading:.3f} on {report.worst_line or '-'})")
    print(f"all constraints {'ok' if report.all_ok else 'FAIL'}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _write_csv(out / "voltages.csv", ["bus", "voltage"],
                   ((bus.id, solution.bus_voltages[bus.id]) for bus in feeder.buses))
        _write_csv(out / "flows.csv", ["line", "p", "q", "s"],
                   ((line.id, *solution.line_flows.get(line.id, (0.0, 0.0, 0.0)))
                    for line in feeder.lines))
    return 0 if report.all_ok else 3


def _cmd_validate(args) -> int:
    try:
        feeder = _resolve_feeder(args.feeder)
        violations = validate_feeder(feeder)  # a document already passed it as it loaded
    except (FeederReferenceError, FeederValidationError) as e:
        violations = getattr(e, "violations", [str(e)])
    if violations:
        for v in violations:
            print(v)
        print(f"{len(violations)} violation(s)", file=sys.stderr)
        return 1
    print(f"ok: {feeder.name or args.feeder} "
          f"({len(feeder.buses)} buses, {feeder.n_breakers} breakers, "
          f"{feeder.total_load_kw():.0f} kW load)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridrestore",
        description="Multi-agent deep-Q load restoration laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train restoration agents")
    _add_config_flags(p, SETTINGS)
    p.add_argument("--out", default="runs/train", help="output directory")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="greedy decentralized rollout from checkpoints")
    _add_config_flags(p, [row for row in SETTINGS if row[1] is None])  # feeder, execute_steps
    p.add_argument("--checkpoints", required=True,
                   help="directory holding checkpoint_agent*.json")
    p.add_argument("--out", default="runs/eval", help="output directory")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("oracle", help="brute-force restoration optimum")
    p.add_argument("--feeder", required=True)
    p.add_argument("--method", default="decomposed",
                   choices=["naive", "decomposed"],
                   help="naive solves every whole-feeder state; decomposed each island's")
    p.add_argument("--force", action="store_true", help="ignore a cached result")
    p.add_argument("--out", default="runs/oracle", help="output directory")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("compare", help="train and tabulate config variants")
    p.add_argument("--feeder", required=True)
    p.add_argument("--seed", help="override the seed of every variant")
    p.add_argument("--out", default="runs/compare", help="output directory")
    p.add_argument("--print-config", action="store_true")
    p.add_argument("variants", nargs="+", help="JSON config files, one per variant")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("powerflow", help="one-shot solve and constraint report")
    p.add_argument("--feeder", required=True)
    p.add_argument("--states", required=True,
                   help="breaker states as a 0/1 string, e.g. 110000101")
    p.add_argument("--out", help="also dump voltages.csv and flows.csv here")
    p.set_defaults(func=_cmd_powerflow)

    p = sub.add_parser("validate", help="lint a feeder document")
    p.add_argument("--feeder", required=True)
    p.set_defaults(func=_cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FeederError, ValueError, KeyError, OSError, RuntimeError) as e:
        message = str(e) or e.__class__.__name__
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
