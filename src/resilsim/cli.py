"""Command-line front door.

Three subcommands: ``channel`` runs protocol simulations from a JSON
config, ``sentinel`` runs the coal-mine scenario (plus the supply/fit
curve and Monte Carlo batches), and ``compare`` relates two behavior
descriptors or two organ tuples. Time series go to CSV, aggregates and
manifests to JSON. Reruns with identical inputs produce byte-identical
outputs; the only file touched outside the output directory is an
explicitly named knowledge store. Both ``channel`` and ``sentinel`` check
every input and output name and run every simulation before the first
write, so a config error or a failed simulation leaves no file. Each
command imports only the modules it runs, when it runs: ``--version`` and
``--help`` load no study, ``channel`` never loads the sentinel study (nor
the organs, without an antifragile protocol), and ``sentinel`` never the
channel study, ``fitness`` or the organs.

Exit codes: 0 success, 2 config error (a corrupt knowledge store included),
3 I/O error, 4 internal error.
"""

from __future__ import annotations

# The standard modules that only a command needs (json, csv, inspect and
# dataclasses, about 15 ms to load) are imported where they are used, so that
# ``--version`` and ``--help`` load little more than argparse.
import argparse
import math
import os
import sys
from collections.abc import Iterable, Iterator, Sequence

from . import __version__
from .errors import ResilienceError, StoreCorrupt

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_INTERNAL = 4


class ConfigError(Exception):
    """A config file failed validation; message explains where and why."""


# ---------------------------------------------------------------------------
# Config parsing

# A protocol's ``kind`` names its runner (or the antifragile config class) in
# the channel module, looked up once per command so that a wrapper installed
# on the module attribute (as a tracer does) is the one that runs. The other
# sections' kinds are the members of their unions there (see :func:`_value`).
_PROTOCOL_KINDS = {"elastic": "run_elastic", "entelechial": "run_entelechial",
                   "antifragile": "AntifragileEvolving"}

_CHANNEL_KEYS = ("channel", "steps", "seed", "protocols", "protocol", "knowledge_store")


def _load_json(path: str):
    import json

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


# What a value of each annotated parameter type must be, and its check. An
# integer must fit a machine word: ``range``, list repetition and ``float``
# raise OverflowError on larger ones.
_TYPES = {
    int: (f"an integer between -{sys.maxsize} and {sys.maxsize}",
          lambda v: _is_int(v) and abs(v) <= sys.maxsize),
    float: ("a finite number", _is_number),
    float | None: ("a finite number or null", lambda v: v is None or _is_number(v)),
    bool: ("true or false", lambda v: isinstance(v, bool)),
    frozenset[str]: ("a list of strings (figure names must be non-empty strings)",
                     lambda v: isinstance(v, list)
                     and all(isinstance(s, str) and s for s in v)),
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


def _value(annotation, value, path: str):
    """``value`` checked against a parameter's ``annotation``: a dataclass is
    a nested section, a type of ``_TYPES`` a checked value, and any other
    annotation a union of classes that each declare ``kind``, whose section's
    ``kind`` key picks the member."""
    from dataclasses import is_dataclass

    if is_dataclass(annotation):
        return _build(annotation, value, path)
    if annotation not in _TYPES:
        return _build_kind({cls.kind: cls for cls in annotation.__args__}, value, path)
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
    A parameter's key is its name, unless ``target.config_keys`` renames it.
    """
    import inspect

    parameters = inspect.signature(target, eval_str=True).parameters
    renamed = getattr(target, "config_keys", {})
    keys = {renamed.get(name, name): name for name in parameters if name not in fixed}
    _section(config, path, [*keys, *extra])
    arguments = {name: value for name, value in fixed.items() if name in parameters}
    for key, name in keys.items():
        if key in config:
            arguments[name] = _value(parameters[name].annotation, config[key],
                                     _join(path, key))
        elif parameters[name].default is inspect.Parameter.empty:
            raise ConfigError(f"{_join(path, key)}: missing required key")
    try:
        return target(**arguments)
    except ValueError as exc:
        raise ConfigError(f"{path or 'config'}: {exc}") from exc


def _build_kind(kinds: dict, config, path: str, extra=(), **fixed):
    """:func:`_build` with the constructor in ``kinds`` that the ``kind`` key
    names; an unknown kind lists those of ``kinds``, in order."""
    kind = _section(config, path).get("kind")
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigError(
            f"{_join(path, 'kind')} must be one of {', '.join(kinds)}, got {kind!r}"
        )
    return _build(kinds[kind], config, path, ("kind", *extra), **fixed)


def _integer(config: dict, key: str, default: int | None = None) -> int:
    """Top-level integer ``config[key]``; required when there is no default."""
    if key not in config and default is None:
        raise ConfigError(f"{key}: missing required key")
    return _value(int, config.get(key, default), key)


def _steps_and_seed(config: dict, seed_override: int | None,
                    default_steps: int | None = None,
                    default_seed: int | None = None) -> tuple[int, int]:
    """Top-level ``steps`` (positive) and ``seed``, unless ``seed_override``;
    a seed is not negative, since ``random.seed`` would take its |seed|."""
    steps = _integer(config, "steps", default_steps)
    if steps < 1:
        raise ConfigError(f"steps must be a positive integer, got {steps}")
    seed = _integer(config, "seed", default_seed if seed_override is None else 0)
    for name, value in (("seed", seed), ("--seed", seed_override)):
        if value is not None and _value(int, value, name) < 0:
            raise ConfigError(f"{name} must not be negative, got {value}")
    return steps, seed if seed_override is None else seed_override


def _protocol_name(config, path: str, index: int, taken) -> str:
    """The entry's ``name``, else its ``kind``, renamed ``<name>_<index>`` if
    in ``taken``; it names the step CSV file. It holds no surrogate, which
    no UTF-8 output (``compare.csv``) can hold."""
    config = _section(config, path)
    name = config.get("name", config.get("kind"))
    if not isinstance(name, str) or not name or any(
            c in "/\\\0" or "\ud800" <= c <= "\udfff" for c in name):
        raise ConfigError(
            f"{path}: name (or kind) must be a non-empty string without '/', '\\', "
            f"NUL or a surrogate, got {name!r}"
        )
    if name in taken:
        name = f"{name}_{index}"
        if name in taken:
            raise ConfigError(f"{path}: renamed to {name!r}, a name already taken")
    return name


# ---------------------------------------------------------------------------
# Output writers


def _write_csv(path: str, header: Sequence[str], blocks: Iterable[str]) -> None:
    """The header, then ``blocks``: runs of finished CSV lines, each ending
    in a line end, one write per block as the producer made it."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(header) + "\n")
        handle.writelines(blocks)


def _write_rows(path: str, header: Sequence[str], rows) -> None:
    """The header, then ``rows`` of cells; csv.writer quotes a cell that needs it."""
    import csv

    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _json_text(payload) -> str:
    import json

    return json.dumps(payload, indent=2, sort_keys=True)


def _write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(_json_text(payload) + "\n")


def _check_name(key: str, path: str) -> None:
    """A config error naming ``key`` unless ``path`` can name a file: the file
    system encoding takes it, and its last component has 1 to 255 bytes
    (NAME_MAX on common file systems)."""
    try:
        name = os.path.basename(os.fsencode(path))
    except UnicodeEncodeError as exc:
        raise ConfigError(f"{key}: {path!r} cannot name a file: {exc}") from exc
    if not 0 < len(name) <= 255:
        raise ConfigError(f"{key}: {path!r} needs a file name of 1 to 255 bytes")


def _parts(path: str) -> Iterator[tuple[str, str]]:
    """``(head, part)`` for each part of ``path``, the last first, where
    ``head`` is the path up to ``part``."""
    head, part = os.path.split(path.rstrip(os.sep))
    while part:
        yield head or os.curdir, part
        head, part = os.path.split(head)


def _made_by(directory: str, out_dir: str) -> bool:
    """True if ``directory`` is one once ``os.makedirs(out_dir)`` has run.

    ``makedirs`` makes ``out_dir`` and every missing directory on its way.
    ``directory`` must be one of those or exist now, and so must each of its
    parts that a ``..`` follows: the kernel cannot resolve ``missing/..``,
    where ``os.path.realpath`` just drops ``missing``.
    """
    made = {os.path.realpath(path) for path in
            [out_dir, *(head for head, _ in _parts(out_dir))]}

    def there(path: str) -> bool:
        return os.path.isdir(path) or os.path.realpath(path) in made

    return there(directory or os.curdir) and all(
        there(head) for head, part in _parts(directory) if part == os.pardir)


def _write_outputs(out_dir: str, command: str, config_path: str, seed: int,
                   plan: list[tuple], store: tuple | None = None) -> int:
    """Check every output name, then write the store, the ``plan`` and the manifest.

    ``plan`` lists ``(key, name, write, *args)`` in write order:
    ``write(path, *args)`` writes the file ``name`` in ``out_dir``, and
    ``key`` is the config key or flag that gave the name. ``store`` is
    ``(path, store, learned)``; the path and its temp file must name files,
    the path is neither ``out_dir`` nor an output, and if the store learned,
    the path's directory must be one once ``out_dir`` is made. It is saved
    first, and only if it learned, so that an I/O error on ``-o`` cannot
    lose a lesson.
    """
    names = [name for _, name, *_ in plan]
    for key, name, *_ in plan:
        _check_name(key, name)
    if store is not None:
        store_path, knowledge, learned = store
        _check_name("knowledge_store", store_path)
        _check_name("knowledge_store", knowledge.temp_path(store_path))
        store_file, *outputs = map(os.path.realpath, [store_path, out_dir, *(
            os.path.join(out_dir, name) for name in [*names, "manifest.json"])])
        if learned and not _made_by(os.path.dirname(store_path), out_dir):
            raise ConfigError(
                f"knowledge_store: {store_path!r} is in a directory that neither "
                "exists nor is -o")
        if store_file in outputs:
            raise ConfigError(
                f"knowledge_store: {store_path!r} is -o or an output file of this run")
    os.makedirs(out_dir, exist_ok=True)
    if store is not None and learned:
        knowledge.save(store_path)
    for _, name, write, *args in plan:
        write(os.path.join(out_dir, name), *args)
    if store is not None and os.path.exists(store_path):
        relative = os.path.relpath(store_path, out_dir)
        if relative.partition(os.sep)[0] != os.pardir:
            names.append(relative)
    _write_json(os.path.join(out_dir, "manifest.json"), {
        "command": command, "config": config_path, "seed": seed,
        "files": sorted(names), "version": __version__})
    return EXIT_OK


# ---------------------------------------------------------------------------
# Subcommands


def cmd_channel(config_path: str, out_dir: str, seed_override: int | None,
                variant) -> int:
    from . import channel

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
    model = _build_kind({cls.kind: cls for cls in channel.ChannelModel.__args__},
                        config["channel"], "channel", seed=seed)
    trace = channel.generate_trace(model, steps)
    try:
        store = channel.KnowledgeStore.load(store_path)
    except IsADirectoryError as exc:
        raise ConfigError(f"knowledge_store: {store_path!r} is a directory") from exc
    lessons = len(store)

    protocol_kinds = {kind: getattr(channel, name) for kind, name in _PROTOCOL_KINDS.items()}
    runs, plan, protocols = {}, [], {}
    for index, protocol_config in enumerate(protocol_configs):
        path = f"protocol #{index}"
        name = _protocol_name(protocol_config, path, index, runs)
        run = _build_kind(protocol_kinds, protocol_config, path, ("name",), trace=trace)
        if isinstance(run, channel.AntifragileEvolving):
            run = channel.run_antifragile(trace, run, store)
        runs[name] = run
        summary = run.aggregates()
        summary["mean_step_fit"] = channel.mean_step_fit(run, variant)
        protocols[name] = {"aggregates": summary, "header": run.header,
                           "mutations": run.mutations}
        plan.append((f"{path}.name", f"{name}_steps.csv", _write_csv,
                     channel.STEP_CSV_HEADER, channel.step_csv_rows(run)))

    plan.append(("-o", "aggregates.json", _write_json, {
        "channel": channel.config_dict(model),
        "steps": steps,
        "seed": seed,
        "fit_variant": variant.label(),
        "protocols": protocols,
    }))
    if len(runs) > 1:
        plan.append(("-o", "compare.csv", _write_rows, channel.COMPARE_CSV_HEADER,
                     [row.values() for row in channel.compare_runs(runs)]))
    return _write_outputs(out_dir, "channel", config_path, seed, plan,
                          (store_path, store, len(store) > lessons))


def cmd_sentinel(config_path: str, out_dir: str, curve: int | None = None,
                 runs: int | None = None, seed_override: int | None = None) -> int:
    from dataclasses import replace

    from . import sentinel

    config = _load_json(config_path)
    scenario = _build(sentinel.Scenario, config, "", ("steps", "seed"))
    steps, seed = _steps_and_seed(config, seed_override, 500, 0)

    for flag, value, what in (("--curve", curve, "pool size"),
                              ("--runs", runs, "run count")):
        if value is not None and not 1 <= value <= sys.maxsize:
            raise ConfigError(f"{flag} needs a positive {what} up to {sys.maxsize}")

    plan = []
    if curve is not None:
        plan.append(("--curve", "curve.csv", _write_csv, sentinel.CURVE_CSV_HEADER,
                     sentinel.curve_csv_rows(curve)))
    if runs is not None:
        batch = sentinel.survival_rate(scenario, steps, runs, base_seed=seed)
        baseline = sentinel.survival_rate(replace(scenario, pool_size=0), steps, runs,
                                          base_seed=seed)
        plan.append(("--runs", "batch.json", _write_json, {
            "with_canaries": batch,
            "baseline": baseline,
            "uplift": batch["survival_rate"] - baseline["survival_rate"],
        }))
    else:
        run = sentinel.simulate(scenario, steps, seed)
        plan += [("-o", "trace.csv", _write_csv, sentinel.SCENARIO_CSV_HEADER,
                  sentinel.scenario_csv_rows(run)),
                 ("-o", "summary.json", _write_json, run.to_dict())]
    return _write_outputs(out_dir, "sentinel", config_path, seed, plan)


def _load(cls, path: str):
    """The ``cls`` (a descriptor or an organ tuple) that the JSON file holds."""
    data = _load_json(path)
    try:
        return cls.from_dict(data)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def cmd_compare(path_a: str, path_b: str, organs: bool, variant) -> int:
    if organs:
        from .organs import CyberneticClass, compare_classes

        comparison = compare_classes(_load(CyberneticClass, path_a),
                                     _load(CyberneticClass, path_b))
        print(_json_text(comparison.to_dict()))
        return EXIT_OK
    from .behavior import BehaviorDescriptor, commensurable, distance, precedes
    from .fitness import IDENTITY_LOSS_LABEL, TurbulenceTrace, fit_timeline

    a = _load(BehaviorDescriptor, path_a)
    b = _load(BehaviorDescriptor, path_b)
    (point,) = fit_timeline(TurbulenceTrace.from_pairs([(0, a)]),
                            TurbulenceTrace.from_pairs([(0, b)]), variant)
    outcome = point.fit
    result = {
        "precedes_ab": precedes(a, b),
        "precedes_ba": precedes(b, a),
        "commensurable": commensurable(a, b),
        "distance": distance(a, b),
        "fit_variant": variant.label(),
        "supply": point.supply,
        "fit": (None if outcome is None
                else IDENTITY_LOSS_LABEL if outcome.lost_identity else outcome.value),
        "marker": point.marker,
    }
    print(_json_text(result))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing


def _fit_variant(text: str):
    """The ``--fit-variant`` value, a ``fitness.FitVariant``: the fitness
    module is loaded when a command that has the flag is parsed (argparse
    passes its string default through here too), not when the parser is
    built."""
    from .fitness import FitVariant

    try:
        return FitVariant.parse(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid fit variant: {text!r}") from None


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
    channel.add_argument("--fit-variant", type=_fit_variant, default="baseline")

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
    compare.add_argument("--fit-variant", type=_fit_variant, default="baseline")

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
        return cmd_compare(args.descriptor_a, args.descriptor_b, args.organs,
                           args.fit_variant)
    except (ConfigError, StoreCorrupt) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ResilienceError, AssertionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except MemoryError:
        print("internal error: out of memory; the run is too large for this machine",
              file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
