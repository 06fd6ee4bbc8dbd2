"""The numerics primitives, its checks of caller values, and the per-vector NLL, Brier and argmax
oracles of _util."""

import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import pseudocal
from pseudocal import numerics, pseudo_target, report, scalers, synthetic
from pseudocal.errors import InvalidInputError

from _util import argmax_class, brier, nll


def test_softmax_symmetry():
    np.testing.assert_allclose(numerics.softmax([0.0, 0.0]), [0.5, 0.5])


def test_softmax_large_logits_no_overflow():
    p = numerics.softmax([1000.0, 0.0])
    assert np.all(np.isfinite(p))
    assert p[0] == pytest.approx(1.0)
    assert p[1] == pytest.approx(0.0, abs=1e-300)


def test_softmax_closed_form():
    p = numerics.softmax([2.0, 0.0])
    expected = np.array([math.exp(2), 1.0]) / (math.exp(2) + 1.0)
    np.testing.assert_allclose(p, expected, atol=1e-12)
    assert p[0] == pytest.approx(0.8808, abs=1e-4)


def test_softmax_of_a_single_logit():
    assert numerics.softmax(3.0) == 1.0 and numerics.log_softmax(3.0) == 0.0
    assert numerics.softmax([3.0]).tolist() == [1.0]


def test_softmax_rows():
    p = numerics.softmax([[2.0, 0.0], [0.0, 0.0]])
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)


def test_softmax_rejects_nonfinite():
    with pytest.raises(InvalidInputError):
        numerics.softmax([np.nan, 0.0])
    with pytest.raises(InvalidInputError):
        numerics.softmax([np.inf, 0.0])


@pytest.mark.parametrize(
    "value", ["abc", [[1.0, 2.0], [3.0]], [["1", "2"]], [True, False], None, [], [[], []]]
)
def test_softmax_and_log_softmax_take_only_arrays_of_numbers(value):
    for fn in (numerics.softmax, numerics.log_softmax):
        with pytest.raises(InvalidInputError):
            fn(value)


@given(
    st.lists(st.floats(-30, 30), min_size=2, max_size=8),
    st.floats(-50, 50),
)
def test_softmax_shift_invariance(values, shift):
    z = np.array(values)
    np.testing.assert_allclose(
        numerics.softmax(z + shift), numerics.softmax(z), atol=1e-9
    )


@pytest.mark.parametrize("n_classes", range(2, 13))
def test_softmax_matches_numpy_reductions_bit_for_bit(n_classes):
    # Below 8 classes softmax and log_softmax sum the class columns one by
    # one, which is numpy's own order only there; a numpy that changes it
    # fails here instead of silently moving every trained model.
    rng = np.random.default_rng(n_classes)
    for scale in (0.1, 3.0, 50.0):
        for shape in ((n_classes,), (301, n_classes), (4, 77, n_classes)):
            z = rng.standard_normal(shape) * scale
            d = z - np.max(z, axis=-1, keepdims=True)
            e = np.exp(d)
            total = np.sum(e, axis=-1, keepdims=True)
            assert repr(numerics.softmax(z).tolist()) == repr((e / total).tolist())
            assert repr(numerics.log_softmax(z).tolist()) == repr((d - np.log(total)).tolist())


def test_log_softmax_closed_form_and_unclamped():
    z = np.array([[2.0, 0.0], [100.0, 0.0]])
    np.testing.assert_allclose(numerics.log_softmax(z[0]), np.log(numerics.softmax(z[0])), atol=1e-12)
    # the wrong class of a 100-nat gap keeps its full loss; a clamp would stop at ~27.6
    assert numerics.log_softmax(z)[1, 1] == pytest.approx(-100.0, abs=1e-12)
    with pytest.raises(InvalidInputError):
        numerics.log_softmax([np.nan, 0.0])


def test_nll_perfect_prediction():
    assert nll([1.0, 0.0], 0) == pytest.approx(0.0, abs=1e-9)


def test_nll_uniform():
    assert nll([0.5, 0.5], 1) == pytest.approx(math.log(2), abs=1e-12)


def test_nll_closed_form():
    p = numerics.softmax([2.0, 0.0])
    assert nll(p, 1) == pytest.approx(-math.log(p[1]), abs=1e-12)
    assert nll(p, 1) == pytest.approx(2.1269, abs=1e-4)


def test_nll_soft_target():
    got = nll([0.7, 0.3], np.array([0.5, 0.5]))
    expected = -0.5 * math.log(0.7) - 0.5 * math.log(0.3)
    assert got == pytest.approx(expected, abs=1e-12)


def test_nll_index_out_of_range():
    with pytest.raises(InvalidInputError):
        nll([0.5, 0.5], 2)


def test_nll_clamps_zero_probability():
    assert nll([1.0, 0.0], 1) == pytest.approx(-math.log(1e-12))


def test_brier_cases():
    assert brier([1.0, 0.0], 0) == 0.0
    assert brier([0.5, 0.5], 0) == pytest.approx(0.25)
    assert brier([0.0, 1.0], 0) == pytest.approx(1.0)


def test_brier_out_of_range():
    with pytest.raises(InvalidInputError):
        brier([0.5, 0.5], -1)


def test_nll_brier_nonnegative():
    rng = np.random.default_rng(0)
    for _ in range(50):
        p = numerics.softmax(rng.standard_normal(4) * 3)
        y = int(rng.integers(0, 4))
        assert nll(p, y) >= 0.0
        assert brier(p, y) >= 0.0


def test_nll_of_predicted_class_lower_in_expectation():
    # only an expectation-level statement: individual samples may violate it
    rng = np.random.default_rng(33)
    own, random_y = [], []
    for _ in range(300):
        p = numerics.softmax(rng.standard_normal(5) * 2)
        own.append(nll(p, argmax_class(p)))
        random_y.append(nll(p, int(rng.integers(0, 5))))
    assert np.mean(own) < np.mean(random_y)


def test_argmax_class():
    assert argmax_class([0.1, 0.9]) == 1
    assert argmax_class([3.0, 3.0]) == 0  # tie breaks to lowest index
    assert argmax_class([1.0, 5.0, 2.0]) == 1


@given(
    st.lists(st.floats(-20, 20), min_size=2, max_size=6),
    st.floats(0.05, 20.0),
)
def test_argmax_temperature_invariance(values, temperature):
    # rounding keeps distinct entries more than an ulp apart: division by
    # T cannot collapse a strict ordering into a float tie
    z = np.round(np.array(values), 6)
    assert argmax_class(z / temperature) == argmax_class(z)


@pytest.mark.parametrize("block_rows", [1, 3, numerics.BLOCK_ROWS])
def test_argmax_rows_matches_numpy_on_frozen_and_writeable_logits(monkeypatch, block_rows):
    monkeypatch.setattr(numerics, "BLOCK_ROWS", block_rows)
    z = np.random.default_rng(0).integers(0, 3, (10, 4)).astype(np.float64)  # many ties
    expected = np.argmax(z, axis=1)
    np.testing.assert_array_equal(numerics.argmax_rows(z), expected)
    z.setflags(write=False)
    np.testing.assert_array_equal(numerics.argmax_rows(z), expected)
    assert numerics.argmax_rows(np.zeros((0, 4))).shape == (0,)


def _logit_stacks(min_classes, max_classes, elements):
    shapes = st.tuples(st.integers(1, 40), st.integers(min_classes, max_classes))
    return shapes.flatmap(lambda shape: hnp.arrays(np.float64, shape, elements=elements))


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        _logit_stacks(2, 9, st.integers(-3, 3).map(float)),  # small integers: many ties
        _logit_stacks(2, 9, st.floats(-1e6, 1e6)),
    )
)
def test_argmax_rows_equals_numpy_argmax_with_ties_to_the_lowest(z):
    np.testing.assert_array_equal(numerics.argmax_rows(z), np.argmax(z, axis=1))


@settings(max_examples=200, deadline=None)
@given(
    _logit_stacks(1, 12, st.floats(-1e6, 1e6)).flatmap(
        lambda z: st.sampled_from([z, z.reshape(1, *z.shape), z[0]])
    )
)
def test_reduce_classes_is_numpys_reduction_bit_for_bit(z):
    # Below SEQUENTIAL_AXIS_LIMIT classes the kernel walks columns; from it on numpy runs.
    for ufunc in (np.maximum, np.add):
        expected = ufunc.reduce(z, axis=-1, keepdims=True)
        got = numerics.reduce_classes(ufunc, z)
        assert got.shape == expected.shape
        assert repr(got.tolist()) == repr(expected.tolist())
        out = np.empty_like(expected)
        assert numerics.reduce_classes(ufunc, z, out=out) is out
        assert repr(out.tolist()) == repr(expected.tolist())


def _literal(node):
    try:
        return ast.literal_eval(node)
    except ValueError:
        return None


def test_only_numerics_reduces_along_the_class_axis():
    # Max and sum over a short class axis go through numerics.reduce_classes,
    # which skips numpy's per-row overhead and keeps its bits; the one argmax
    # is argmax_rows.
    offenders = []
    for path in sorted(Path(pseudocal.__file__).parent.glob("*.py")):
        if path.name == "numerics.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            if node.func.attr not in ("sum", "max", "min", "argmax", "mean"):
                continue
            # np.sum(a, 1) names the axis second, a.sum(1) first
            on_numpy = getattr(node.func.value, "id", None) == "np"
            axes = [kw.value for kw in node.keywords if kw.arg == "axis"] + node.args[on_numpy:][:1]
            if any(_literal(axis) in (1, -1) for axis in axes):
                offenders.append(f"{path.name}:{node.lineno} calls {node.func.attr} along axis 1")
    assert offenders == []


def test_only_argmax_rows_takes_an_argmax():
    # numpy copies a read-only matrix whole before argmax/argmin, and logits
    # are read-only, so every other module goes through argmax_rows.
    offenders = []
    for path in sorted(Path(pseudocal.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = set()
        if path.name == "numerics.py":
            (kernel,) = [n for n in tree.body if getattr(n, "name", None) == "argmax_rows"]
            allowed = {id(node) for node in ast.walk(kernel)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and id(node) not in allowed:
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                if name in ("argmax", "argmin"):
                    offenders.append(f"{path.name}:{node.lineno} calls {name}")
    assert offenders == []


@pytest.mark.parametrize("value, integer, expected", [
    (3, True, 3), (np.int64(3), True, 3), (np.uint8(7), True, 7), (10**400, True, 10**400),
    (3, False, 3.0), (np.int64(-2), False, -2.0), (2.5, False, 2.5),
    (np.float32(0.1), False, float(np.float32(0.1))), (np.float64(1e300), False, 1e300),
])
def test_checked_number_returns_a_plain_int_or_float(value, integer, expected):
    got = numerics.checked_number(value, "x", integer)
    assert type(got) is (int if integer else float) and got == expected


@pytest.mark.parametrize("value", [
    True, np.bool_(True), "3", None, [3], math.nan, np.float32("nan"), math.inf, -np.inf, 10**400,
])
def test_checked_number_rejects_what_is_no_finite_number(value):
    with pytest.raises(InvalidInputError, match=r"^x must be a finite number, got "):
        numerics.checked_number(value, "x")


@pytest.mark.parametrize("value", [2.0, np.float64(2.0), 2.5, True, "2", math.nan])
def test_checked_number_rejects_what_is_no_integer(value):
    with pytest.raises(InvalidInputError, match=r"^x must be an integer, got "):
        numerics.checked_number(value, "x", integer=True)


def test_checked_number_words_its_rule_and_applies_it_to_the_converted_value():
    seen = []

    def ok(v):
        seen.append(type(v))
        return v >= 1

    assert numerics.checked_number(np.int64(1), "n", True, " >= 1", ok) == 1
    with pytest.raises(InvalidInputError, match=re.escape("n must be an integer >= 1, got np.int64(0)")):
        numerics.checked_number(np.int64(0), "n", True, " >= 1", ok)
    assert seen == [int, int]


def test_numerics_is_the_one_door_for_caller_scalars():
    # checked_number holds every scalar check. Only train's choice between
    # one seed and a seed list asks is_integer, and no module but numerics
    # tells a number by the numbers module.
    users = {}
    for path in sorted(Path(pseudocal.__file__).parent.glob("*.py")):
        if path.name == "numerics.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            name = getattr(node, "id", getattr(node, "attr", getattr(node, "name", None)))
            if isinstance(node, (ast.Name, ast.Attribute, ast.alias)) and name in (
                "is_integer", "is_finite_number", "numbers",
            ):
                users.setdefault(name, set()).add(path.name)
    assert users == {"is_integer": {"synthetic.py"}}
    assert not hasattr(numerics, "is_finite_number")


class Name(str):
    pass


def test_checked_choice_returns_a_plain_str():
    got = numerics.checked_choice(Name("b"), "letter", ("a", "b"))
    assert type(got) is str and got == "b"
    for bad in ("c", "A", None, 1, ["a"], {}, b"a"):
        with pytest.raises(InvalidInputError, match=re.escape(f"unknown letter {bad!r}; expected one of a, b")):
            numerics.checked_choice(bad, "letter", ("a", "b"))


def test_listed_rejects_a_value_given_twice():
    assert numerics.listed(range(3), "seed") == [0, 1, 2]
    for values, twice in (([3, 3], 3), ([1, 2, 1, 2], 1), (["x", [0], [0]], [0]), ([0, 0.0], 0)):
        with pytest.raises(InvalidInputError, match=f"^{re.escape(f'seed {twice!r} is listed more than once')}$"):
            numerics.listed(values, "seed")
    # Arrays have no truth value to compare by; the check of each value rejects them later.
    assert len(numerics.listed([np.zeros(2), np.ones(2)], "x")) == 2


# Each name check of the package: what it names, its names, and a call with a bad one.
NAME_CHECKS = {
    "mixup-lambda-policy": ("lambda policy", pseudo_target.LAMBDA_POLICIES,
                            lambda bad: pseudo_target.MixupConfig(lambda_policy=bad)),
    "mixup-label-mode": ("label mode", pseudo_target.LABEL_MODES,
                         lambda bad: pseudo_target.MixupConfig(label_mode=bad)),
    "mixup-pairing": ("pairing rule", pseudo_target.PAIRINGS,
                      lambda bad: pseudo_target.MixupConfig(pairing=bad)),
    "fit-label-mode": ("label mode", pseudo_target.LABEL_MODES,
                       lambda bad: pseudo_target.fit_on_pseudo_set(None, bad)),
    "method": ("method", report.METHODS, lambda bad: report.evaluate_all(None, None, [bad])),
    "model-kind": ("model kind", ("logistic", "ensemble"),
                   lambda bad: synthetic.model_from_dict({"schema_version": 1, "kind": bad})),
    "calibrator-kind": ("calibrator kind", ("identity", "temperature", "vector", "matrix"),
                        lambda bad: scalers.Calibrator(kind=bad)),
}


@pytest.mark.parametrize("check", sorted(NAME_CHECKS))
def test_each_name_check_gives_the_one_message(check):
    what, names, call = NAME_CHECKS[check]
    for bad in ("fuzzy", None, 3, ["x"]):
        message = f"unknown {what} {bad!r}; expected one of {', '.join(names)}"
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            call(bad)


def test_numerics_alone_words_the_name_and_list_errors():
    # checked_choice and listed hold every name and repeat check.
    held = {}
    for path in sorted(Path(pseudocal.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        docstrings = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings:
                for text in ("expected one of", "is listed more than once", "valid:"):
                    if text in node.value:
                        held.setdefault(text, []).append(path.name)
    assert held == {"expected one of": ["numerics.py"], "is listed more than once": ["numerics.py"]}
