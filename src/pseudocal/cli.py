"""Command-line front end: generate, train, calibrate, evaluate, sweep.

Every option can also be supplied through a flat JSON config file
(--config); explicit flags win over config values. An option given in
neither place takes the library's default: the CLI passes on only what
it was given, to ShiftSpec, synthetic.train, MixupConfig, evaluate_all
and lambda_sweep. Its own defaults are only evaluate's method list and
sweep's grid. All randomness flows from --seed, so identical
invocations produce byte-identical output documents.
"""

import argparse
import sys

from . import documents, pseudo_target, report, scalers, synthetic
from .errors import InvalidInputError, PseudocalError
from .numerics import argmax_rows


class _UsageError(Exception):
    pass


def _config_from_dict(doc):
    if not isinstance(doc, dict):
        raise _UsageError("config file must hold a flat JSON object")
    return doc


# Option keys whose library parameter has another name.
_PARAMETERS = {"classes": "n_classes", "mixup_epochs": "epochs"}


def _options(args, converters):
    """The options given by a flag, else by the config file, each converted.

    ``converters`` maps each option key the command takes to its converter;
    keys given in neither place are left out, so the library's defaults
    apply. An unreadable config file or a value a converter rejects is a
    usage error.
    """
    path = args.config
    try:
        config = {} if path is None else documents.read_json(path, _config_from_dict)
    except (OSError, InvalidInputError) as exc:
        raise _UsageError(f"cannot read config {path}: {exc}") from exc

    options = {}
    for key, convert in converters.items():
        value = getattr(args, key)
        if value is None:
            if key not in config:
                continue
            value = config[key]
        try:
            options[_PARAMETERS.get(key, key)] = convert(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise _UsageError(f"malformed {key} {value!r}: {exc}") from exc
    return options


def _priors(text):
    return None if text is None else tuple(float(p) for p in str(text).split(","))


def _float_list(text):
    return [float(v) for v in str(text).split(",") if v != ""]


def _int_list(text):
    return [int(v) for v in str(text).split(",") if v != ""]


def _names(text):
    return [name.strip() for name in str(text).split(",") if name.strip()]


def _check_lambda(value):
    lam = float(value)
    if not 0.5 < lam <= 1.0:
        raise _UsageError(f"--lambda must lie in (0.5, 1.0], got {lam}")
    return lam


def cmd_generate(args):
    opts = _options(args, {
        "classes": int, "dim": int, "n_source": int, "n_target": int, "mean_shift": float,
        "rotation": float, "target_priors": _priors, "cluster_std": float, "seed": int,
    })
    n_classes = opts.get("n_classes", synthetic.ShiftSpec.n_classes)
    priors = opts.get("target_priors")
    if priors is not None and len(priors) != n_classes:
        raise _UsageError(f"need {n_classes} prior entries, got {len(priors)}")
    task = synthetic.generate(synthetic.ShiftSpec(**opts))
    synthetic.save_task(task, args.out)
    print(f"wrote task to {args.out}")
    return 0


def cmd_train(args):
    opts = _options(args, {"epochs": int, "lr": float, "gamma": float, "seed": int})
    task = synthetic.load_task(args.task)
    model = synthetic.train(task, track_history=args.history_out is not None, **opts)
    synthetic.save_model(model, args.out)
    if args.history_out is not None:
        report.history_to_csv(model.history, args.history_out)
    print(f"wrote model to {args.out}")
    return 0


def cmd_calibrate(args):
    cfg = pseudo_target.MixupConfig(**_options(args, {
        "lam": _check_lambda, "lambda_policy": str, "label_mode": str, "pairing": str,
        "mixup_epochs": int, "seed": int,
    }))
    task = synthetic.load_task(args.task)
    model = synthetic.load_model(args.model)
    # The target logits die once their pseudo labels are taken, before the
    # mixed set is inferred.
    target_pseudo_labels = argmax_rows(pseudo_target.infer(model, task.target_inputs))
    pseudo = pseudo_target.synthesize(model, task.target_inputs, target_pseudo_labels, cfg)
    calibrator = pseudo_target.fit_on_pseudo_set(pseudo, cfg.label_mode)
    scalers.save_calibrator(calibrator, args.out)
    if args.provenance_out is not None:
        pseudo_target.write_provenance_csv(pseudo, args.provenance_out)
    print(f"wrote calibrator to {args.out} (T={calibrator.temperature:.4f})")
    return 0


_EVALUATE_METHODS = ("none", "pseudocal", "temp_oracle")


def cmd_evaluate(args):
    opts = _options(args, {
        "methods": _names, "bins": int, "lam": _check_lambda, "label_mode": str, "seed": int,
    })
    methods = opts.pop("methods", _EVALUATE_METHODS)
    if not methods:
        raise _UsageError("--methods must name at least one method")
    bins = {"bins": opts.pop("bins")} if "bins" in opts else {}
    # One --seed drives the mixup and the ensemble members alike.
    cfg = pseudo_target.MixupConfig(**opts)
    task = synthetic.load_task(args.task)
    model = synthetic.load_model(args.model)
    result = report.evaluate_all(model, task, methods, seed=cfg.seed, mixup_cfg=cfg, **bins)
    with open(args.out, "w") as fh:
        fh.write(result.to_json())
    table = result.table_text()
    if args.table_out is not None:
        with open(args.table_out, "w") as fh:
            fh.write(table)
    if args.bins_out is not None:
        report.method_bins_to_csv(result, args.bins_out)
    print(table, end="")
    return 0


_SWEEP_GRID = {
    "lambdas": (0.51, 0.55, 0.6, 0.65, 0.7, 0.8, 0.9),
    "label_modes": pseudo_target.LABEL_MODES,
    "seeds": (0, 1, 2, 3, 4),
}


def cmd_sweep(args):
    opts = _options(args, {
        "lambdas": _float_list, "label_modes": _names, "seeds": _int_list, "bins": int,
    })
    task = synthetic.load_task(args.task)
    model = synthetic.load_model(args.model)
    rows = report.lambda_sweep(model, task, **{**_SWEEP_GRID, **opts})
    report.sweep_to_csv(rows, args.out)
    print(f"wrote sweep to {args.out}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pseudocal",
        description="Source-free calibration under domain shift on a synthetic harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic source/target task")
    p.add_argument("--classes", type=int)
    p.add_argument("--dim", type=int)
    p.add_argument("--n-source", dest="n_source", type=int)
    p.add_argument("--n-target", dest="n_target", type=int)
    p.add_argument("--mean-shift", dest="mean_shift", type=float)
    p.add_argument("--rotation", type=float)
    p.add_argument("--target-priors", dest="target_priors")
    p.add_argument("--cluster-std", dest="cluster_std", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train the source classifier")
    p.add_argument("--task", required=True)
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--history-out", dest="history_out")
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("calibrate", help="fit a temperature on a mixup pseudo-target set")
    p.add_argument("--task", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--label-mode", dest="label_mode", choices=pseudo_target.LABEL_MODES)
    p.add_argument("--lambda-policy", dest="lambda_policy", choices=pseudo_target.LAMBDA_POLICIES)
    p.add_argument("--pairing", choices=pseudo_target.PAIRINGS)
    p.add_argument("--mixup-epochs", dest="mixup_epochs", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--provenance-out", dest="provenance_out")
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("evaluate", help="compare calibration methods on the target")
    p.add_argument("--task", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--methods")
    p.add_argument("--bins", type=int)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--label-mode", dest="label_mode", choices=pseudo_target.LABEL_MODES)
    p.add_argument("--seed", type=int)
    p.add_argument("--table-out", dest="table_out")
    p.add_argument("--bins-out", dest="bins_out")
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="mix-ratio sensitivity sweep")
    p.add_argument("--task", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--lambdas")
    p.add_argument("--label-modes", dest="label_modes")
    p.add_argument("--seeds")
    p.add_argument("--bins", type=int)
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PseudocalError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
