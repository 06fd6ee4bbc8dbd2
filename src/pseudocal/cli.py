"""Command-line front end: generate, train, calibrate, evaluate, sweep.

Every flag can also be supplied through a flat JSON config file
(--config); explicit flags win over config values, which win over the
built-in defaults. All randomness flows from --seed, so identical
invocations produce byte-identical output documents.
"""

import argparse
import sys

from . import documents, pseudo_target, report, scalers, synthetic
from .errors import InvalidInputError, PseudocalError
from .metrics import DEFAULT_BINS
from .numerics import argmax_rows


class _UsageError(Exception):
    pass


def _config_from_dict(doc):
    if not isinstance(doc, dict):
        raise _UsageError("config file must hold a flat JSON object")
    return doc


def _resolver(args, defaults):
    """``get(key, convert)``: the flag, else the config value, else the default, converted.

    An unreadable config file or a value ``convert`` rejects is a usage error.
    """
    path = getattr(args, "config", None)
    try:
        config = {} if path is None else documents.read_json(path, _config_from_dict)
    except (OSError, InvalidInputError) as exc:
        raise _UsageError(f"cannot read config {path}: {exc}") from exc

    def resolve(key, convert):
        value = getattr(args, key, None)
        if value is None:
            value = config.get(key, defaults[key])
        try:
            return convert(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise _UsageError(f"malformed {key} {value!r}: {exc}") from exc

    return resolve


def _parse_priors(text, n_classes):
    if text is None:
        return None
    priors = tuple(float(p) for p in str(text).split(","))
    if len(priors) != n_classes:
        raise _UsageError(f"need {n_classes} prior entries, got {len(priors)}")
    return priors


def _float_list(text):
    return [float(v) for v in str(text).split(",") if v != ""]


def _int_list(text):
    return [int(v) for v in str(text).split(",") if v != ""]


def _check_lambda(lam):
    if not 0.5 < lam <= 1.0:
        raise _UsageError(f"--lambda must lie in (0.5, 1.0], got {lam}")
    return lam


_GENERATE_DEFAULTS = {
    "classes": 5,
    "dim": 10,
    "n_source": 2000,
    "n_target": 2000,
    "mean_shift": 0.0,
    "rotation": 0.0,
    "target_priors": None,
    "cluster_std": 1.0,
    "seed": 0,
}


def cmd_generate(args):
    get = _resolver(args, _GENERATE_DEFAULTS)
    n_classes = get("classes", int)
    spec = synthetic.ShiftSpec(
        n_classes=n_classes,
        dim=get("dim", int),
        n_source=get("n_source", int),
        n_target=get("n_target", int),
        mean_shift=get("mean_shift", float),
        rotation=get("rotation", float),
        target_priors=get("target_priors", lambda text: _parse_priors(text, n_classes)),
        cluster_std=get("cluster_std", float),
        seed=get("seed", int),
    )
    task = synthetic.generate(spec)
    synthetic.save_task(task, args.out)
    print(f"wrote task to {args.out}")
    return 0


_TRAIN_DEFAULTS = {
    "epochs": synthetic.DEFAULT_EPOCHS,
    "lr": synthetic.DEFAULT_LR,
    "gamma": 1.0,
    "seed": 0,
}


def cmd_train(args):
    get = _resolver(args, _TRAIN_DEFAULTS)
    task = synthetic.load_task(args.task)
    model = synthetic.train(
        task,
        epochs=get("epochs", int),
        lr=get("lr", float),
        gamma=get("gamma", float),
        track_history=args.history_out is not None,
        seed=get("seed", int),
    )
    synthetic.save_model(model, args.out)
    if args.history_out is not None:
        report.history_to_csv(model.history, args.history_out)
    print(f"wrote model to {args.out}")
    return 0


_CALIBRATE_DEFAULTS = {
    "lam": pseudo_target.DEFAULT_LAMBDA,
    "label_mode": "hard",
    "lambda_policy": "fixed",
    "pairing": "distinct",
    "mixup_epochs": 1,
    "seed": 0,
}


def cmd_calibrate(args):
    get = _resolver(args, _CALIBRATE_DEFAULTS)
    cfg = pseudo_target.MixupConfig(
        lam=_check_lambda(get("lam", float)),
        lambda_policy=get("lambda_policy", str),
        label_mode=get("label_mode", str),
        pairing=get("pairing", str),
        epochs=get("mixup_epochs", int),
        seed=get("seed", int),
    )
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


_EVALUATE_DEFAULTS = {
    "methods": "none,pseudocal,temp_oracle",
    "bins": DEFAULT_BINS,
    "lam": pseudo_target.DEFAULT_LAMBDA,
    "label_mode": "hard",
    "seed": 0,
}


def cmd_evaluate(args):
    get = _resolver(args, _EVALUATE_DEFAULTS)
    methods = [m.strip() for m in get("methods", str).split(",") if m.strip()]
    if not methods:
        raise _UsageError("--methods must name at least one method")
    lam = _check_lambda(get("lam", float))
    seed = get("seed", int)
    cfg = pseudo_target.MixupConfig(lam=lam, label_mode=get("label_mode", str), seed=seed)
    task = synthetic.load_task(args.task)
    model = synthetic.load_model(args.model)
    result = report.evaluate_all(
        model, task, methods, bins=get("bins", int), seed=seed, mixup_cfg=cfg
    )
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


_SWEEP_DEFAULTS = {
    "lambdas": "0.51,0.55,0.6,0.65,0.7,0.8,0.9",
    "label_modes": "hard,soft",
    "seeds": "0,1,2,3,4",
    "bins": DEFAULT_BINS,
}


def cmd_sweep(args):
    get = _resolver(args, _SWEEP_DEFAULTS)
    lambdas = get("lambdas", _float_list)
    label_modes = [m.strip() for m in get("label_modes", str).split(",") if m.strip()]
    seeds = get("seeds", _int_list)
    task = synthetic.load_task(args.task)
    model = synthetic.load_model(args.model)
    rows = report.lambda_sweep(
        model, task, lambdas, label_modes, seeds, bins=get("bins", int)
    )
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
    p.add_argument("--lambda-policy", dest="lambda_policy", choices=("fixed", "beta"))
    p.add_argument("--pairing", choices=("distinct", "same"))
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
