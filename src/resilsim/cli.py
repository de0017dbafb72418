"""Command-line front door.

Three subcommands: ``channel`` runs protocol simulations from a JSON
config, ``sentinel`` runs the coal-mine scenario (plus the supply/fit
curve and Monte Carlo batches), and ``compare`` relates two behavior
descriptors or two organ tuples. Time series go to CSV, aggregates and
manifests to JSON. Reruns with identical inputs produce byte-identical
outputs; the only file touched outside the output directory is an
explicitly named knowledge store.

Exit codes: 0 success, 2 config error (a corrupt knowledge store included),
3 I/O error, 4 internal error.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import json
import math
import os
import sys
from dataclasses import is_dataclass
from typing import Iterable, Sequence

from . import __version__
from .behavior import BehaviorDescriptor, commensurable, distance, precedes
from .channel import (
    COMPARE_CSV_HEADER,
    STEP_CSV_HEADER,
    AntifragileEvolving,
    BurstyChannel,
    ConstantChannel,
    EwmaPlusSlope,
    FileTransfer,
    KnowledgeStore,
    RandomWalkChannel,
    Teleconferencing,
    WindowMax,
    compare_runs,
    generate_trace,
    mean_step_fit,
    run_antifragile,
    run_elastic,
    run_entelechial,
    step_csv_rows,
)
from .errors import (
    IncommensurableBehaviors,
    InvalidBounds,
    ResilienceError,
    StoreCorrupt,
)
from .fitness import FitVariant, fit, supply
from .organs import CyberneticClass, compare_classes
from .sentinel import (
    SCENARIO_CSV_HEADER,
    FLOAT_MIN,
    FLOAT_MIN_LABEL,
    Scenario,
    scenario_csv_rows,
    simulate,
    supply_fit_curve,
    survival_rate,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_INTERNAL = 4


class ConfigError(Exception):
    """A config file failed validation; message explains where and why."""


# ---------------------------------------------------------------------------
# Config parsing

# Kind tables of the nested config sections. Each names the constructor of a
# kind by its global in this module, looked up when called, so that a wrapper
# installed on a module attribute (as a tracer does) is the one that runs.
_KINDS = {
    "channel": {"constant": "ConstantChannel", "random_walk": "RandomWalkChannel",
                "bursty": "BurstyChannel"},
    "predictor": {"window_max": "WindowMax", "ewma_slope": "EwmaPlusSlope"},
    "identity_profile": {"file_transfer": "FileTransfer",
                         "teleconferencing": "Teleconferencing"},
    "protocol": {"elastic": "run_elastic", "entelechial": "run_entelechial",
                 "antifragile": "AntifragileEvolving"},
}

# Config keys that differ from the parameter they set.
_KEYS = {"y_min": "min", "y_max": "max"}

_CHANNEL_KEYS = ("channel", "steps", "seed", "protocols", "protocol", "knowledge_store")


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}"
            ) from exc
        except (ValueError, RecursionError) as exc:
            # not UTF-8, an integer past the digit limit, or nested too deep
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc


def _is_int(value) -> bool:
    """True for an int that is not a bool (JSON true would otherwise pass)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """True for a finite int or float that is not a bool."""
    return _is_int(value) or isinstance(value, float) and math.isfinite(value)


# What a value of each annotated parameter type must be, and its check.
_TYPES = {
    int: ("an integer", _is_int),
    float: ("a finite number", _is_number),
    float | None: ("a finite number or null", lambda v: v is None or _is_number(v)),
    bool: ("true or false", lambda v: isinstance(v, bool)),
    frozenset[str]: ("a list of strings", lambda v: isinstance(v, list)
                     and all(isinstance(s, str) for s in v)),
}


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _section(config, path: str, allowed=None) -> dict:
    """``config`` as a JSON object, with keys only from ``allowed`` if given."""
    if not isinstance(config, dict):
        raise ConfigError(
            f"{path or 'config'}: expected an object, got {type(config).__name__}"
        )
    for key in config:
        if allowed is not None and key not in allowed:
            raise ConfigError(
                f"{_join(path, key)}: unknown key, expected one of {', '.join(allowed)}"
            )
    return config


def _value(name: str, annotation, value, path: str):
    """``value`` checked against the annotation of parameter ``name``."""
    if name in _KINDS:
        return _build_kind(name, value, path)
    if is_dataclass(annotation):
        return _build(annotation, value, path)
    expected, check = _TYPES[annotation]
    if not check(value):
        raise ConfigError(f"{path} must be {expected}, got {value!r}")
    return value


def _build(target, config, path: str, extra=(), **fixed):
    """Call ``target`` with the values of the JSON object ``config``.

    The signature of ``target`` decides which keys are required and gives
    every default (a key left out is not passed); each annotation decides
    the type check. ``fixed`` supplies the parameters of those names, where
    ``target`` has them, from the caller instead of the config; ``extra``
    keys are allowed and left to the caller. Values pass through unchanged.
    """
    parameters = inspect.signature(target, eval_str=True).parameters
    keys = {_KEYS.get(name, name): name for name in parameters if name not in fixed}
    _section(config, path, [*keys, *extra])
    arguments = {name: value for name, value in fixed.items() if name in parameters}
    for key, name in keys.items():
        if key in config:
            arguments[name] = _value(name, parameters[name].annotation, config[key],
                                     _join(path, key))
        elif parameters[name].default is inspect.Parameter.empty:
            raise ConfigError(f"{_join(path, key)}: missing required key")
    try:
        return target(**arguments)
    except (ValueError, InvalidBounds) as exc:
        raise ConfigError(f"{path or 'config'}: {exc}") from exc


def _build_kind(section: str, config, path: str, extra=(), **fixed):
    """:func:`_build` with the constructor that the ``kind`` key names."""
    kinds = _KINDS[section]
    kind = _section(config, path).get("kind")
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigError(
            f"{_join(path, 'kind')} must be one of {', '.join(kinds)}, got {kind!r}"
        )
    return _build(globals()[kinds[kind]], config, path, ("kind", *extra), **fixed)


def _integer(config: dict, key: str, default: int | None = None) -> int:
    """Top-level integer ``config[key]``; required when there is no default."""
    if key not in config and default is None:
        raise ConfigError(f"{key}: missing required key")
    return _value(key, int, config.get(key, default), key)


def _steps_and_seed(config: dict, seed_override: int | None,
                    default_steps: int | None = None,
                    default_seed: int | None = None) -> tuple[int, int]:
    """Top-level ``steps`` (positive) and ``seed``, unless ``seed_override``."""
    steps = _integer(config, "steps", default_steps)
    if steps < 1:
        raise ConfigError(f"steps must be a positive integer, got {steps}")
    if seed_override is not None:
        _integer(config, "seed", seed_override)  # type-checked all the same
        return steps, seed_override
    return steps, _integer(config, "seed", default_seed)


def _protocol_name(config, path: str) -> str:
    """The entry's ``name``, else its ``kind``; it names the step CSV file."""
    config = _section(config, path)
    name = config.get("name", config.get("kind"))
    if not isinstance(name, str) or not name or any(c in name for c in "/\\\0"):
        raise ConfigError(
            f"{path}: name (or kind) must be a non-empty string without '/', '\\' "
            f"or NUL, got {name!r}"
        )
    return name


# ---------------------------------------------------------------------------
# Output writers


def _write_csv(path: str, header: Sequence[str], lines: Iterable[str]) -> None:
    """The header, then ``lines``: finished CSV lines, written as they come."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(header) + "\n")
        handle.writelines(lines)


def _write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_manifest(out_dir: str, command: str, config_path: str, seed,
                    files: list[str], extra: dict | None = None) -> None:
    manifest = {
        "command": command,
        "config": config_path,
        "seed": seed,
        "files": sorted(files),
        "version": __version__,
    }
    if extra:
        manifest.update(extra)
    _write_json(os.path.join(out_dir, "manifest.json"), manifest)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_channel(config_path: str, out_dir: str, seed_override: int | None = None,
                fit_variant: FitVariant | None = None) -> int:
    config = _section(_load_json(config_path), "", _CHANNEL_KEYS)
    steps, seed = _steps_and_seed(config, seed_override)
    if "protocol" in config:
        if "protocols" in config:
            raise ConfigError("protocol: not allowed beside protocols")
        protocol_configs = [config["protocol"]]
    elif "protocols" in config:
        protocol_configs = config["protocols"]
    else:
        raise ConfigError("protocols: missing required key (or a single protocol)")
    if not isinstance(protocol_configs, list) or not protocol_configs:
        raise ConfigError("protocols must be a non-empty list")
    store_path = config.get("knowledge_store",
                            os.path.join(out_dir, "knowledge_store.json"))
    if not isinstance(store_path, str) or not store_path:
        raise ConfigError(
            f"knowledge_store must be a non-empty string, got {store_path!r}"
        )
    if "channel" not in config:
        raise ConfigError("channel: missing required key")
    model = _build_kind("channel", config["channel"], "channel", seed=seed)
    trace = generate_trace(model, steps)

    os.makedirs(out_dir, exist_ok=True)
    store = KnowledgeStore.load(store_path)

    variant = fit_variant or FitVariant()
    runs = {}
    for index, protocol_config in enumerate(protocol_configs):
        path = f"protocol #{index}"
        name = _protocol_name(protocol_config, path)
        if name in runs:
            name = f"{name}_{index}"
        run = _build_kind("protocol", protocol_config, path, ("name",), trace=trace)
        if isinstance(run, AntifragileEvolving):
            run, _ = run_antifragile(trace, run, store)
        runs[name] = run

    files = []
    aggregates = {}
    for name, run in runs.items():
        summary = run.aggregates()
        summary["mean_step_fit"] = mean_step_fit(run, variant)
        aggregates[name] = {
            "aggregates": summary,
            "header": run.header,
            "mutations": run.mutations,
        }
        trace_file = f"{name}_steps.csv"
        _write_csv(os.path.join(out_dir, trace_file), STEP_CSV_HEADER,
                   step_csv_rows(run))
        files.append(trace_file)

    _write_json(os.path.join(out_dir, "aggregates.json"), {
        "channel": model.config_dict(),
        "steps": steps,
        "seed": seed,
        "fit_variant": variant.label(),
        "protocols": aggregates,
    })
    files.append("aggregates.json")

    if len(runs) > 1:
        # few rows, but a protocol name may need quoting: csv.writer does that
        with open(os.path.join(out_dir, "compare.csv"), "w", encoding="utf-8",
                  newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(COMPARE_CSV_HEADER)
            writer.writerows([_csv_cell(row[column]) for column in COMPARE_CSV_HEADER]
                             for row in compare_runs(runs))
        files.append("compare.csv")

    if os.path.exists(store_path):
        relative = os.path.relpath(store_path, out_dir)
        if not relative.startswith(".."):
            files.append(relative)

    _write_manifest(out_dir, "channel", config_path, seed, files)
    return EXIT_OK


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def cmd_sentinel(config_path: str, out_dir: str, curve: int | None = None,
                 runs: int | None = None, seed_override: int | None = None) -> int:
    config = _load_json(config_path)
    scenario = _build(Scenario, config, "", ("steps", "seed"))
    steps, seed = _steps_and_seed(config, seed_override, 500, 0)

    if curve is not None and curve < 1:
        raise ConfigError("--curve needs a positive pool size")
    if runs is not None and runs < 1:
        raise ConfigError("--runs needs a positive run count")

    os.makedirs(out_dir, exist_ok=True)
    files = []

    if curve is not None:
        _write_csv(
            os.path.join(out_dir, "curve.csv"),
            ("f", "supply", "fit"),
            (f"{f},{s!r},{FLOAT_MIN_LABEL if value == FLOAT_MIN else repr(value)}\n"
             for f, s, value in supply_fit_curve(curve)),
        )
        files.append("curve.csv")

    if runs is not None:
        batch = survival_rate(scenario, steps, runs, base_seed=seed)
        baseline_scenario = Scenario(
            mine=scenario.mine, miner=scenario.miner, canary=scenario.canary,
            pool_size=0, policy=scenario.policy,
        )
        baseline = survival_rate(baseline_scenario, steps, runs, base_seed=seed)
        _write_json(os.path.join(out_dir, "batch.json"), {
            "with_canaries": batch,
            "baseline": baseline,
            "uplift": batch["survival_rate"] - baseline["survival_rate"],
        })
        files.append("batch.json")
    else:
        run = simulate(scenario, steps, seed)
        _write_csv(os.path.join(out_dir, "trace.csv"), SCENARIO_CSV_HEADER,
                   scenario_csv_rows(run))
        _write_json(os.path.join(out_dir, "summary.json"), run.to_dict())
        files.extend(["trace.csv", "summary.json"])

    _write_manifest(out_dir, "sentinel", config_path, seed, files)
    return EXIT_OK


def _load_descriptor(path: str) -> BehaviorDescriptor:
    data = _load_json(path)
    try:
        return BehaviorDescriptor.from_dict(data)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _load_organs(path: str) -> CyberneticClass:
    data = _load_json(path)
    try:
        return CyberneticClass.from_dict(data)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def cmd_compare(path_a: str, path_b: str, organs: bool = False,
                fit_variant: FitVariant | None = None) -> int:
    variant = fit_variant or FitVariant()
    if organs:
        comparison = compare_classes(_load_organs(path_a), _load_organs(path_b))
        print(json.dumps(comparison.to_dict(), indent=2, sort_keys=True))
        return EXIT_OK
    a = _load_descriptor(path_a)
    b = _load_descriptor(path_b)
    result = {
        "precedes_ab": precedes(a, b),
        "precedes_ba": precedes(b, a),
        "commensurable": commensurable(a, b),
        "distance": distance(a, b),
        "fit_variant": variant.label(),
    }
    try:
        s = supply(a, b)
        outcome = fit(s, variant)
        result["supply"] = s
        result["fit"] = outcome.value if not outcome.lost_identity else "-inf"
        result["marker"] = ""
    except IncommensurableBehaviors:
        result["supply"] = None
        result["fit"] = None
        result["marker"] = "incommensurable"
    print(json.dumps(result, indent=2, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resilsim",
        description="Behavioral-resilience simulators and calculus tools.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subparsers = parser.add_subparsers(dest="command", required=True)

    channel = subparsers.add_parser("channel", help="run channel protocol simulations")
    channel.add_argument("-c", "--config", required=True)
    channel.add_argument("-o", "--out-dir", required=True)
    channel.add_argument("--seed", type=int, default=None)
    channel.add_argument("--fit-variant", type=FitVariant.parse, default=None)

    sentinel = subparsers.add_parser("sentinel", help="run the sentinel scenario")
    sentinel.add_argument("-c", "--config", required=True)
    sentinel.add_argument("-o", "--out-dir", required=True)
    sentinel.add_argument("--curve", type=int, default=None,
                          help="emit the supply/fit curve for a pool of N canaries")
    sentinel.add_argument("--runs", type=int, default=None,
                          help="Monte Carlo batch size instead of a single trace")
    sentinel.add_argument("--seed", type=int, default=None)

    compare = subparsers.add_parser("compare", help="compare two descriptors")
    compare.add_argument("descriptor_a")
    compare.add_argument("descriptor_b")
    compare.add_argument("--organs", action="store_true",
                         help="inputs are organ tuples, compare organ-wise")
    compare.add_argument("--fit-variant", type=FitVariant.parse, default=None)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage, which matches the config error code
        return exc.code if isinstance(exc.code, int) else EXIT_CONFIG
    try:
        if args.command == "channel":
            return cmd_channel(args.config, args.out_dir, args.seed, args.fit_variant)
        if args.command == "sentinel":
            return cmd_sentinel(args.config, args.out_dir, args.curve, args.runs,
                                args.seed)
        if args.command == "compare":
            return cmd_compare(args.descriptor_a, args.descriptor_b, args.organs,
                               args.fit_variant)
        parser.error(f"unknown command {args.command!r}")
    except (ConfigError, StoreCorrupt) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ResilienceError, AssertionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
