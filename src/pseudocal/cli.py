"""Command-line front end: generate, train, calibrate, evaluate, sweep.

One table, ``_COMMANDS``, declares each command's document paths and its
options, each option with one converter from text; the flags and the
config keys both come from it. An option may also be given in a flat JSON
config file (--config); a flag wins over the config. A config value is
converted as the text of its flag, ``str(value)``, so ``{"seed": 5}`` is
``--seed 5``. A config key that no command takes is a usage error, and one
that only other commands take is ignored. An option given in neither
place takes the library's default; the CLI holds none of its own.
A converter only turns text into its type; the library's records judge
the values, the mixup options together in one ``MixupConfig``. Exit code
2 is left for what the CLI owns: argparse's own errors, the config file,
and text that is not its option's type, each one ``error:`` line. A value
the library rejects is its one-line typed error and exit code 1, as a
flag and in the config alike. All randomness flows from --seed, so
identical invocations produce byte-identical output documents.
"""

import argparse
import ctypes
import functools
import sys
from typing import Callable, NamedTuple

from . import documents, pseudo_target, report, scalers, synthetic
from .errors import InvalidInputError, PseudocalError


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse whose own errors, in subcommands too, are usage errors."""

    def error(self, message):
        raise _UsageError(message)


def _config_from_dict(doc):
    if not isinstance(doc, dict):
        raise _UsageError("config file must hold a flat JSON object")
    return doc


# Option keys whose library parameter has another name.
_PARAMETERS = {"classes": "n_classes", "mixup_epochs": "epochs"}


def _options(args):
    """The command's options given by a flag, else by the config file, each converted.

    A config value is converted as the text of its flag, ``str(value)``.
    Keys given in neither place are left out, so the library's defaults
    apply. An unreadable config file, a config key that no command takes
    or a value a converter rejects is a usage error; a key that only other
    commands take is ignored, so one config can serve several commands.
    """
    path = args.config
    try:
        config = {} if path is None else documents.read_json(path, _config_from_dict)
    except (OSError, InvalidInputError) as exc:
        raise _UsageError(f"cannot read config {path}: {exc}") from exc

    unknown = sorted(set(config) - _CONFIG_KEYS)
    if unknown:
        raise _UsageError(f"config {path} holds {unknown[0]!r}, which no command takes")
    options = {}
    for key, convert in _COMMANDS[args.command].options.items():
        value = getattr(args, key)
        if value == []:  # argparse (3.11) strips the value of --flag=-- to an empty list
            value = "--"
        if value is None:
            if key not in config:
                continue
            value = config[key]
        try:
            options[_PARAMETERS.get(key, key)] = convert(str(value))
        except ValueError as exc:
            raise _UsageError(f"malformed {key} {value!r}: {exc}") from exc
    return options


def _each(parse):
    """Converter of a comma-separated list: ``parse`` of each item that is not blank."""
    return lambda text: [parse(item) for item in text.split(",") if item.strip()]


def cmd_generate(args, opts):
    """generate a synthetic source/target task"""
    task = synthetic.generate(synthetic.ShiftSpec(**opts))
    synthetic.save_task(task, args.out)
    print(f"wrote task to {args.out}")
    return 0


def cmd_train(args, opts):
    """train the source classifier"""
    task = _load_task(args.task)
    model = synthetic.train(task, track_history=args.history_out is not None, **opts)
    synthetic.save_model(model, args.out)
    if args.history_out is not None:
        report.history_to_csv(model.history, args.history_out)
    print(f"wrote model to {args.out}")
    return 0


def cmd_calibrate(args, opts):
    """fit a temperature on a mixup pseudo-target set"""
    cfg = pseudo_target.MixupConfig(**opts)
    task = _load_task(args.task)
    model = synthetic.load_model(args.model)
    pseudo = pseudo_target.pseudo_set(model, task.target_inputs, cfg)
    calibrator = pseudo_target.fit_on_pseudo_set(pseudo, cfg.label_mode)
    scalers.save_calibrator(calibrator, args.out)
    if args.provenance_out is not None:
        pseudo_target.write_provenance_csv(pseudo, args.provenance_out)
    print(f"wrote calibrator to {args.out} (T={calibrator.temperature:.4f})")
    return 0


def cmd_evaluate(args, opts):
    """compare calibration methods on the target"""
    report_opts = {key: opts.pop(key) for key in ("methods", "bins") if key in opts}
    # One --seed drives the mixup and the ensemble members alike.
    cfg = pseudo_target.MixupConfig(**opts)
    task = _load_task(args.task)
    model = synthetic.load_model(args.model)
    result = report.evaluate_all(model, task, mixup_cfg=cfg, **report_opts)
    documents.write_text(args.out, result.to_json())
    table = result.table_text()
    if args.table_out is not None:
        documents.write_text(args.table_out, table)
    if args.bins_out is not None:
        report.method_bins_to_csv(result, args.bins_out)
    print(table, end="")
    return 0


def cmd_sweep(args, opts):
    """mix-ratio sensitivity sweep"""
    task = _load_task(args.task)
    model = synthetic.load_model(args.model)
    rows = report.lambda_sweep(model, task, **opts)
    report.sweep_to_csv(rows, args.out)
    print(f"wrote sweep to {args.out}")
    return 0


class _Command(NamedTuple):
    run: Callable  # run(args, options); its docstring is the command's help
    paths: tuple  # document paths; the ``*_out`` ones are optional
    options: dict  # option key -> its one converter from the flag's text


_COMMANDS = {
    "generate": _Command(cmd_generate, ("out",), {
        "classes": int, "dim": int, "n_source": int, "n_target": int, "mean_shift": float,
        "rotation": float, "target_priors": _each(float), "cluster_std": float, "seed": int,
    }),
    "train": _Command(cmd_train, ("task", "out", "history_out"), {
        "epochs": int, "lr": float, "gamma": float, "seed": int,
    }),
    "calibrate": _Command(cmd_calibrate, ("task", "model", "out", "provenance_out"), {
        "lam": float, "label_mode": str, "lambda_policy": str, "pairing": str,
        "mixup_epochs": int, "seed": int,
    }),
    "evaluate": _Command(cmd_evaluate, ("task", "model", "out", "table_out", "bins_out"), {
        "methods": _each(str.strip), "bins": int, "lam": float, "label_mode": str, "seed": int,
    }),
    "sweep": _Command(cmd_sweep, ("task", "model", "out"), {
        "lambdas": _each(float), "label_modes": _each(str.strip), "seeds": _each(int), "bins": int,
    }),
}
_CONFIG_KEYS = {key for command in _COMMANDS.values() for key in command.options}


def build_parser():
    """Every flag from ``_COMMANDS``: ``--key`` with ``-`` for ``_``, and ``--lambda`` for ``lam``."""
    parser = _Parser(
        prog="pseudocal",
        description="Source-free calibration under domain shift on a synthetic harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.run.__doc__)
        for key in (*command.paths, *command.options):
            flag = "--lambda" if key == "lam" else "--" + key.replace("_", "-")
            required = key in command.paths and not key.endswith("_out")
            p.add_argument(flag, dest=key, required=required)
        p.add_argument("--config")
    return parser


@functools.cache
def _parser():
    """``build_parser()``, built once per process; ``parse_args`` leaves it unchanged.

    argparse's objects refer to each other in cycles, so a parser built per
    call outlived the call as garbage until the collector's next full pass,
    and held on to pymalloc arenas that the call's JSON decoding had filled:
    in-process ``calibrate`` calls grew by about 1 MB each.
    """
    return build_parser()


try:
    _malloc_trim = ctypes.CDLL(None).malloc_trim  # glibc only
    _malloc_trim.argtypes, _malloc_trim.restype = [ctypes.c_size_t], ctypes.c_int
except (AttributeError, OSError, TypeError):
    _malloc_trim = None


def _release_free_heap():
    """Hand the pages of the C heap's free chunks back to the OS, where glibc allows it.

    Reading a task frees its file's text and the base64 strings of its
    arrays, up to 17 MB each on a 100,000-row task. Once glibc has freed a
    block that large, it serves later arrays of up to that size from its
    heap, above the freed strings, which then stay resident. So the CLI
    calls this once a task is read (``_load_task``), before the command
    makes its own arrays: back-to-back ``calibrate`` calls on that task
    then peaked at 157.9 MB, and at 161.5 MB without it.
    """
    if _malloc_trim is not None:
        _malloc_trim(0)


def _load_task(path):
    """``synthetic.load_task(path)``, then the free heap that its decoding left handed back."""
    task = synthetic.load_task(path)
    _release_free_heap()
    return task


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
        return _COMMANDS[args.command].run(args, _options(args))
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PseudocalError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
