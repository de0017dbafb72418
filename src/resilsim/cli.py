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
import json
import os
import sys
from typing import Sequence

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
    Canary,
    CoalMine,
    EvacuationPolicy,
    FLOAT_MIN,
    FLOAT_MIN_LABEL,
    Miner,
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


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}"
        ) from exc


def _require(config: dict, key: str, context: str):
    if key not in config:
        raise ConfigError(f"{context}: missing required key {key!r}")
    return config[key]


def _is_int(value) -> bool:
    """True for an int that is not a bool (JSON true would otherwise pass)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _section(config, context: str) -> dict:
    if not isinstance(config, dict):
        raise ConfigError(f"{context}: expected an object, got {type(config).__name__}")
    return config


def _int(config: dict, key: str, context: str, default: int | None = None) -> int:
    """``config[key]`` as an integer (not a bool); required unless defaulted."""
    if default is None:
        value = _require(config, key, context)
    else:
        value = config.get(key, default)
    if not _is_int(value):
        raise ConfigError(f"{context}: {key} must be an integer, got {value!r}")
    return value


def _build_channel(config: dict, seed: int):
    config = _section(config, "channel")
    kind = _require(config, "kind", "channel")
    try:
        if kind == "constant":
            return ConstantChannel(y=_int(config, "y", "channel"), seed=seed)
        if kind == "random_walk":
            return RandomWalkChannel(
                y0=_int(config, "y0", "channel"),
                step_prob=_require(config, "step_prob", "channel"),
                y_min=_int(config, "min", "channel", 1),
                y_max=_int(config, "max", "channel"),
                seed=seed,
            )
        if kind == "bursty":
            return BurstyChannel(
                p_enter=_require(config, "p_enter", "channel"),
                p_exit=_require(config, "p_exit", "channel"),
                y_calm=_int(config, "y_calm", "channel"),
                y_burst=_int(config, "y_burst", "channel"),
                burst_correlated=config.get("burst_correlated", True),
                seed=seed,
            )
    except InvalidBounds as exc:
        raise ConfigError(f"channel: {exc}") from exc
    raise ConfigError(f"channel: unknown kind {kind!r}")


def _build_predictor(config: dict):
    config = _section(config, "predictor")
    kind = _require(config, "kind", "predictor")
    try:
        if kind == "window_max":
            return WindowMax(window=_int(config, "window", "predictor", 8))
        if kind == "ewma_slope":
            return EwmaPlusSlope(
                alpha=config.get("alpha", 0.3),
                horizon=_int(config, "horizon", "predictor", 1),
            )
    except ValueError as exc:
        raise ConfigError(f"predictor: {exc}") from exc
    raise ConfigError(f"predictor: unknown kind {kind!r}")


def _build_identity_profile(config: dict):
    config = _section(config, "identity_profile")
    kind = _require(config, "kind", "identity_profile")
    if kind == "file_transfer":
        return FileTransfer()
    if kind == "teleconferencing":
        return Teleconferencing(
            jitter_bound=_require(config, "jitter_bound", "identity_profile")
        )
    raise ConfigError(f"identity_profile: unknown kind {kind!r}")


def _protocol_name(config, index: int) -> str:
    config = _section(config, f"protocol #{index}")
    name = config.get("name", config.get("kind"))
    if not isinstance(name, str) or not name:
        raise ConfigError(f"protocol #{index}: missing kind/name")
    return name


def _run_protocol(config: dict, trace, store: KnowledgeStore):
    config = _section(config, "protocol")
    kind = _require(config, "kind", "protocol")
    try:
        if kind == "elastic":
            return run_elastic(trace, _int(config, "yield_point", "protocol"))
        if kind == "entelechial":
            return run_entelechial(
                trace,
                _build_predictor(_require(config, "predictor", "protocol")),
                _require(config, "epsilon", "protocol"),
            )
        if kind == "antifragile":
            profile = _build_identity_profile(
                config.get("identity_profile", {"kind": "file_transfer"})
            )
            antifragile = AntifragileEvolving(
                predictor=_build_predictor(_require(config, "predictor", "protocol")),
                epsilon=_require(config, "epsilon", "protocol"),
                epochs_per_review=_int(config, "epochs_per_review", "protocol", 50),
                identity_profile=profile,
                burstiness_threshold=config.get("burstiness_threshold", 0.5),
                interleave_depth=_int(config, "interleave_depth", "protocol", 4),
            )
            run, _ = run_antifragile(trace, antifragile, store)
            return run
    except ValueError as exc:
        raise ConfigError(f"protocol: {exc}") from exc
    raise ConfigError(f"protocol: unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# Output writers


def _write_csv(path: str, header: Sequence[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


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
    config = _section(_load_json(config_path), "config")
    steps = _require(config, "steps", "config")
    if not _is_int(steps) or steps < 1:
        raise ConfigError("config: steps must be a positive integer")
    seed = seed_override if seed_override is not None else _int(config, "seed", "config")
    if "protocols" in config:
        protocol_configs = config["protocols"]
    else:
        protocol_configs = [_require(config, "protocol", "config")]
    if not isinstance(protocol_configs, list) or not protocol_configs:
        raise ConfigError("config: protocols must be a non-empty list")

    try:
        model = _build_channel(_require(config, "channel", "config"), seed)
        trace = generate_trace(model, steps)
    except InvalidBounds as exc:
        raise ConfigError(f"channel: {exc}") from exc

    os.makedirs(out_dir, exist_ok=True)
    store_path = config.get("knowledge_store")
    if store_path is None:
        store_path = os.path.join(out_dir, "knowledge_store.json")
    store = KnowledgeStore.load(store_path)

    variant = fit_variant or FitVariant()
    files = []
    runs = {}
    aggregates = {}
    for index, protocol_config in enumerate(protocol_configs):
        name = _protocol_name(protocol_config, index)
        if name in runs:
            name = f"{name}_{index}"
        run = _run_protocol(protocol_config, trace, store)
        runs[name] = run
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
        rows = compare_runs(runs)
        _write_csv(
            os.path.join(out_dir, "compare.csv"),
            COMPARE_CSV_HEADER,
            [[_csv_cell(row[column]) for column in COMPARE_CSV_HEADER]
             for row in rows],
        )
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


def _build_scenario(config: dict) -> tuple[Scenario, int, int]:
    mine_config = _section(config.get("mine", {}), "mine")
    miner_config = _section(config.get("miner", {}), "miner")
    canary_config = _section(config.get("canary", {}), "canary")
    policy_config = _section(config.get("policy", {}), "policy")
    pool_size = config.get("pool_size", 100)
    if not _is_int(pool_size):
        raise ConfigError("config: pool_size must be an integer")
    try:
        mine = CoalMine(
            figures=frozenset(mine_config.get("figures", CoalMine().figures)),
            p_enter_ts=mine_config.get("p_enter_ts", 0.01),
            p_exit_ts=mine_config.get("p_exit_ts", 0.1),
        )
        miner = Miner(
            figures=frozenset(miner_config.get("figures", Miner().figures)),
            hazard_ts=miner_config.get("hazard_ts", 0.02),
            evacuation_threshold=miner_config.get("evacuation_threshold", 25.0),
        )
        canary = Canary(
            figures=frozenset(canary_config.get("figures", Canary().figures)),
            hazard_ts=canary_config.get("hazard_ts", 0.3),
        )
        scenario = Scenario(
            mine=mine,
            miner=miner,
            canary=canary,
            pool_size=pool_size,
            policy=EvacuationPolicy(fit_threshold=policy_config.get("fit_threshold")),
        )
    except ValueError as exc:
        raise ConfigError(f"scenario: {exc}") from exc
    steps = config.get("steps", 500)
    if not _is_int(steps) or steps < 1:
        raise ConfigError("config: steps must be a positive integer")
    seed = _int(config, "seed", "config", 0)
    return scenario, steps, seed


def cmd_sentinel(config_path: str, out_dir: str, curve: int | None = None,
                 runs: int | None = None, seed_override: int | None = None) -> int:
    config = _section(_load_json(config_path), "config")
    scenario, steps, seed = _build_scenario(config)
    if seed_override is not None:
        seed = seed_override

    os.makedirs(out_dir, exist_ok=True)
    files = []

    if curve is not None:
        if curve < 1:
            raise ConfigError("--curve needs a positive pool size")
        rows = supply_fit_curve(curve)
        _write_csv(
            os.path.join(out_dir, "curve.csv"),
            ("f", "supply", "fit"),
            [
                (
                    str(row["f"]),
                    repr(row["supply"]),
                    FLOAT_MIN_LABEL if row["fit"] == FLOAT_MIN else repr(row["fit"]),
                )
                for row in rows
            ],
        )
        files.append("curve.csv")

    if runs is not None:
        if runs < 1:
            raise ConfigError("--runs needs a positive run count")
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
