"""Instrumentation installed from outside the pseudocal package.

Nothing under ``src/`` knows about it. A probe replaces a public function
at every attribute that binds it -- the defining module, modules that
imported the name with ``from x import y``, the package namespace, or the
class that owns a method -- and puts the original back on exit.

Three kinds of probe exist:

* ``InferenceCounter`` counts ``Model.predict_logits`` calls. A call made
  while another one is running (an ensemble member) is counted apart from
  the top-level calls, so top-level calls and rows are what a black-box
  model would be asked for.
* ``FitChecker`` checks every temperature fit an invocation makes, as
  it returns.
* ``SpanRecorder`` keeps one span (name, start, end, parent, attributes)
  per call into a layer's public functions, in memory. ``layer_metrics``
  turns the spans of one invocation into per-layer counts and self times,
  where self time is a span's duration minus that of its child spans.
"""

import contextlib
import inspect
import os
import sys
import time
from collections import defaultdict

import numpy as np

from pseudocal import cli, metrics, pseudo_target, report, scalers, synthetic

# Owners of methods that are probed; module-level functions are found by
# scanning every loaded pseudocal module.
_CLASSES = (synthetic.TrainedClassifier, synthetic.EnsembleModel, report.ExperimentResult)


def _owners():
    mods = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "pseudocal"]
    return mods + list(_CLASSES)


@contextlib.contextmanager
def rebind(replacements):
    """Bind ``replacements[original]`` wherever ``original`` is bound, then restore.

    Raises LookupError when an original is bound nowhere, so a renamed
    function fails the benchmark instead of silently going unmeasured.
    """
    done = []
    try:
        for original, wrapper in replacements.items():
            sites = [
                (owner, attr)
                for owner in _owners()
                for attr, value in list(vars(owner).items())
                if value is original
            ]
            if not sites:
                raise LookupError(f"no binding site for {original.__qualname__}")
            for owner, attr in sites:
                setattr(owner, attr, wrapper)
                done.append((owner, attr, original))
        yield
    finally:
        for owner, attr, original in reversed(done):
            setattr(owner, attr, original)


def _predict_methods():
    return [cls.predict_logits for cls in (synthetic.TrainedClassifier, synthetic.EnsembleModel)]


class InferenceCounter:
    """Counts top-level predict_logits calls and rows, and nested member calls."""

    def __init__(self):
        self.call_rows = []
        self.member_calls = 0
        self._depth = 0

    @property
    def calls(self):
        return len(self.call_rows)

    @property
    def rows(self):
        return sum(self.call_rows)

    def _wrap(self, fn):
        def counted(model, inputs):
            if self._depth:
                self.member_calls += 1
            else:
                self.call_rows.append(int(np.shape(inputs)[0]))
            self._depth += 1
            try:
                return fn(model, inputs)
            finally:
                self._depth -= 1

        return counted

    def installed(self):
        return rebind({fn: self._wrap(fn) for fn in _predict_methods()})


class FitChecker:
    """Checks each ``fit_temperature`` result as it returns, so no fit data is kept.

    ``check(logits, target, temperature)`` returns a failure message or None;
    its time is summed in ``seconds`` for the caller to take off the clock.
    """

    def __init__(self, check):
        self.check = check
        self.temperatures = []
        self.failures = []
        self.seconds = 0.0

    def _wrap(self, fn):
        def checked(batch, soft_labels=None, **kwargs):
            result = fn(batch, soft_labels, **kwargs)
            t0 = time.perf_counter()
            target = batch.labels if soft_labels is None else np.asarray(soft_labels)
            self.temperatures.append(result.temperature)
            failure = self.check(batch.logits, target, result.temperature)
            if failure:
                self.failures.append(f"temperature fit {len(self.temperatures)}: {failure}")
            self.seconds += time.perf_counter() - t0
            return result

        return checked

    def installed(self):
        return rebind({scalers.fit_temperature: self._wrap(scalers.fit_temperature)})


# --- span annotations: (bound arguments, result) -> span attributes --------


def _path_arg(args):
    for key in ("path", "path_or_file"):
        value = args.get(key)
        if isinstance(value, (str, os.PathLike)):
            return value
    return None


def _bytes_of_path(args, result):
    path = _path_arg(args)
    return {"bytes": os.path.getsize(path)} if path is not None else {}


def _bytes_of_text(args, result):
    return {"bytes": len(result.encode())}


def _synth_attrs(args, result):
    n = int(np.shape(args["target_inputs"])[0])
    return {"kept": result.size, "offered": n * args["cfg"].epochs}


def _fit_temp_attrs(args, result):
    batch = args["batch"]
    t = result.temperature
    at_bound = any(np.isclose(t, b, rtol=1e-3, atol=0.0) for b in (scalers.T_MIN, scalers.T_MAX))
    return {"elems": batch.n * batch.num_classes, "at_bound": int(at_bound)}


def _converged_attrs(args, result):
    return {"converged": int(bool(result.converged))}


def _probe_table():
    """(function, span name, annotate) for every probed public function."""
    return [
        *[(fn, "infer", None) for fn in _predict_methods()],
        (synthetic.train, "train", None),
        (pseudo_target.synthesize, "synth", _synth_attrs),
        (scalers.fit_temperature, "fit_temp", _fit_temp_attrs),
        (scalers.fit_vector, "fit_vector", _converged_attrs),
        (scalers.fit_matrix, "fit_matrix", _converged_attrs),
        (metrics.ece, "metrics", None),
        (metrics.reliability_bins, "metrics", None),
        (metrics.mean_nll, "metrics", None),
        (metrics.mean_brier, "metrics", None),
        (synthetic.load_task, "io.read", _bytes_of_path),
        (synthetic.load_model, "io.read", _bytes_of_path),
        (scalers.save_calibrator, "io.write", _bytes_of_path),
        (report.method_bins_to_csv, "io.write", _bytes_of_path),
        (report.sweep_to_csv, "io.write", _bytes_of_path),
        (pseudo_target.write_provenance_csv, "io.write", _bytes_of_path),
        (report.ExperimentResult.to_json, "io.write", _bytes_of_text),
        (report.evaluate_all, "report", None),
        (report.lambda_sweep, "report", None),
        (cli.main, "cli", None),
    ]


class SpanRecorder:
    """In-memory spans: [name, start, end, parent index, attributes]."""

    def __init__(self):
        self.spans = []
        self._open = []

    def _wrap(self, fn, name, annotate):
        signature = inspect.signature(fn)

        def spanned(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            span = [name, time.perf_counter(), None, parent, {}]
            self.spans.append(span)
            self._open.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if annotate is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[4] = annotate(bound.arguments, result)
            return result

        return spanned

    def installed(self):
        return rebind({fn: self._wrap(fn, name, ann) for fn, name, ann in _probe_table()})


def self_times(spans):
    """Per-span duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    return [(s[2] - s[1]) - c for s, c in zip(spans, child)]


def layer_metrics(spans, counter):
    """Per-layer metrics of one traced invocation (see README.md for definitions).

    A span directly inside a span of the same layer (``metrics.ece`` calling
    ``reliability_bins``) adds its self time but is not counted as a call.
    """
    own = self_times(spans)
    secs = defaultdict(float)
    calls = defaultdict(int)
    attrs = defaultdict(lambda: defaultdict(float))
    for span, t in zip(spans, own):
        name, parent = span[0], span[3]
        secs[name] += t
        if parent is None or spans[parent][0] != name:
            calls[name] += 1
        for key, value in span[4].items():
            attrs[name][key] += value
    temp_s = secs["fit_temp"]
    affine_calls = calls["fit_vector"] + calls["fit_matrix"]
    converged = attrs["fit_vector"]["converged"] + attrs["fit_matrix"]["converged"]
    offered = attrs["synth"]["offered"]
    return {
        "infer.calls": counter.calls,
        "infer.rows": counter.rows,
        "infer.member_calls": counter.member_calls,
        "infer.s": secs["infer"],
        "train.calls": calls["train"],
        "train.s": secs["train"],
        "synth.calls": calls["synth"],
        "synth.s": secs["synth"],
        "synth.kept_frac": attrs["synth"]["kept"] / offered if offered else 0.0,
        "fit_temp.calls": calls["fit_temp"],
        "fit_temp.s": temp_s,
        "fit_temp.elems": attrs["fit_temp"]["elems"],
        "fit_temp.elems_per_s": attrs["fit_temp"]["elems"] / temp_s if temp_s else 0.0,
        "fit_temp.at_bound": attrs["fit_temp"]["at_bound"],
        "fit_affine.calls": affine_calls,
        "fit_affine.vector_s": secs["fit_vector"],
        "fit_affine.matrix_s": secs["fit_matrix"],
        # Vacuously 1 when the invocation makes no affine fit.
        "fit_affine.converged_frac": converged / affine_calls if affine_calls else 1.0,
        "metrics.calls": calls["metrics"],
        "metrics.s": secs["metrics"],
        "io.read_s": secs["io.read"],
        "io.write_s": secs["io.write"],
        "io.bytes_read": attrs["io.read"]["bytes"],
        "io.bytes_written": attrs["io.write"]["bytes"],
        "report.self_s": secs["report"],
        "cli.self_s": secs["cli"],
    }
