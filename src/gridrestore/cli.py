"""Command-line entry point.

Subcommands: train, eval, oracle, compare, powerflow, validate. Every default
is visible through ``--print-config``; flags override config-file values,
which override built-in defaults, and the fully resolved configuration is
written next to the outputs for provenance. Seeds are mandatory for training
so that every emitted artifact is reproducible. No environment variable is
read; everything lives in flags and config files.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .agent import EpsilonSchedule, Hyperparameters
from .builtins import BUILTIN_NAMES, builtin_feeder
from .feeder import Feeder, FeederError, load_feeder, validate_feeder
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

TRAIN_DEFAULTS = {
    "feeder": None,
    "episodes": 500,
    "steps": 16,
    "sync_interval": 50,
    "mask": "on",
    "agents": "multi",
    "penalty": -1.0,
    "hidden": "64,64",
    "gamma": 0.5,
    "alpha": 0.5,
    "eta": 0.05,
    "batch_size": 32,
    "capacity": 2000,
    "eps_min": 0.01,
    "eps_max": 1.0,
    "decay": 0.02,
    "seed": None,
    "execute_steps": 16,
}


def _resolve_feeder(name_or_path: str) -> Feeder:
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
    """One JSON config file: an object whose keys are all ``TRAIN_DEFAULTS`` keys."""
    with open(path, encoding="utf-8") as fh:
        try:
            values = json.load(fh)
        except json.JSONDecodeError as e:
            raise ValueError(f"config file {path}: not valid JSON ({e})") from None
    if not isinstance(values, dict):
        raise ValueError(f"config file {path}: the top level must be a JSON object, "
                         f"not {type(values).__name__}")
    unknown = set(values) - set(TRAIN_DEFAULTS)
    if unknown:
        raise ValueError(f"config file {path}: unknown config keys: {', '.join(sorted(unknown))}")
    return values


def _resolved_config(args) -> dict:
    """defaults <- config file <- explicit flags, in increasing precedence."""
    resolved = dict(TRAIN_DEFAULTS)
    config_path = getattr(args, "config", None)
    if config_path:
        resolved.update(_read_config(config_path))
    for key in TRAIN_DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            resolved[key] = value
    return resolved


def _training_config(resolved: dict) -> TrainingConfig:
    if resolved.get("seed") is None:
        raise ValueError("a seed is required (--seed or config file); "
                         "runs must be reproducible")
    hidden = tuple(
        int(x) for x in str(resolved["hidden"]).replace(" ", "").split(",") if x
    )
    return TrainingConfig(
        episodes=int(resolved["episodes"]),
        steps_per_episode=int(resolved["steps"]),
        sync_interval=int(resolved["sync_interval"]),
        masking=str(resolved["mask"]).lower() in ("on", "true", "1", "yes"),
        agent_mode=str(resolved["agents"]),
        penalty=float(resolved["penalty"]),
        hidden_sizes=hidden,
        hyper=Hyperparameters(
            gamma=float(resolved["gamma"]),
            alpha=float(resolved["alpha"]),
            eta=float(resolved["eta"]),
            batch_size=int(resolved["batch_size"]),
            capacity=int(resolved["capacity"]),
            seed=int(resolved["seed"]),
        ),
        schedule=EpsilonSchedule(
            eps_min=float(resolved["eps_min"]),
            eps_max=float(resolved["eps_max"]),
            decay=float(resolved["decay"]),
        ),
    )


def _write_config(out_dir: Path, resolved: dict) -> None:
    with open(out_dir / "config.json", "w", encoding="utf-8") as fh:
        json.dump(resolved, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--feeder", help="built-in name (ieee13, ieee123) or document path")
    p.add_argument("--episodes", type=int, help="number of training episodes")
    p.add_argument("--steps", type=int, help="environment steps per episode")
    p.add_argument("--sync-interval", dest="sync_interval", type=int,
                   help="environment steps between target-network syncs")
    p.add_argument("--mask", choices=["on", "off"],
                   help="invalid-action masking; off switches to penalty rewards")
    p.add_argument("--agents", choices=["multi", "single"], help="agent mode")
    p.add_argument("--penalty", type=float, help="penalty reward M when masking is off")
    p.add_argument("--hidden", help="hidden layer sizes, e.g. 64,64")
    p.add_argument("--gamma", type=float, help="discount factor")
    p.add_argument("--alpha", type=float, help="target blend rate")
    p.add_argument("--eta", type=float, help="SGD step size")
    p.add_argument("--batch-size", dest="batch_size", type=int, help="replay batch size")
    p.add_argument("--capacity", type=int, help="replay buffer capacity")
    p.add_argument("--eps-min", dest="eps_min", type=float, help="epsilon floor")
    p.add_argument("--eps-max", dest="eps_max", type=float, help="epsilon ceiling")
    p.add_argument("--decay", type=float, help="epsilon decay rate per episode")
    p.add_argument("--seed", type=int, help="run seed (required; no clock default)")
    p.add_argument("--execute-steps", dest="execute_steps", type=int,
                   help="greedy rollout length used by eval")
    p.add_argument("--config", help="JSON config file (flags override it)")
    p.add_argument("--print-config", action="store_true",
                   help="print the fully resolved configuration and exit")


def _cmd_train(args) -> int:
    resolved = _resolved_config(args)
    if args.print_config:
        print(json.dumps(resolved, indent=2, sort_keys=True))
        return 0
    if not resolved["feeder"]:
        raise ValueError("--feeder is required")
    feeder = _resolve_feeder(resolved["feeder"])
    cfg = _training_config(resolved)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_config(out, resolved)
    models, logs = train(feeder, cfg)
    write_episodes_csv(out / "episodes.csv", logs)
    save_models(out, feeder, cfg, models)
    total_violations = sum(log.violations for log in logs)
    print(f"trained {cfg.episodes} episodes; "
          f"final episode reward {logs[-1].reward:.4f}; "
          f"violations {total_violations}" if logs else "trained 0 episodes")
    return 0


def _cmd_eval(args) -> int:
    resolved = _resolved_config(args)
    if args.print_config:
        print(json.dumps(resolved, indent=2, sort_keys=True))
        return 0
    if not resolved["feeder"]:
        raise ValueError("--feeder is required")
    feeder = _resolve_feeder(resolved["feeder"])
    nets, slots = load_models(args.checkpoints, feeder)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    trace = execute(nets, feeder, max_steps=int(resolved["execute_steps"]), slots=slots)
    write_trace_csv(out / "trace.csv", trace)
    print(f"greedy rollout served {trace.final_served_kw:.1f} kW after "
          f"{int(resolved['execute_steps'])} steps; "
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
    feeder = _resolve_feeder(args.feeder)
    variants = []
    for path in args.variants:
        resolved = {**TRAIN_DEFAULTS, **_read_config(path)}
        if args.seed is not None:
            resolved["seed"] = args.seed
        variants.append((Path(path).stem, _training_config(resolved)))
    if args.print_config:
        print(json.dumps(
            {label: cfg.__dict__ for label, cfg in variants},
            indent=2, sort_keys=True, default=str,
        ))
        return 0
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = compare(feeder, variants)
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
    if args.feeder in BUILTIN_NAMES:
        feeder = builtin_feeder(args.feeder)
        violations = validate_feeder(feeder)
    else:
        try:
            with open(args.feeder, "rb") as fh:
                feeder = load_feeder(fh)
            violations = []
        except FeederError as e:
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
    _add_train_flags(p)
    p.add_argument("--out", default="runs/train", help="output directory")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="greedy decentralized rollout from checkpoints")
    _add_train_flags(p)
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
    p.add_argument("--seed", type=int, help="override the seed of every variant")
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
