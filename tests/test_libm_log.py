"""Tests for the `libm_log` fixture, and for the premise that lets the oracle's
pins rest on it: numpy's `log` in `oracle._segment_search` is the package's one
numpy transcendental."""

import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import ri_entropy

REAL_LOG = np.log

# numpy's transcendental ufuncs: their SIMD code paths may round differently
TRANSCENDENTALS = {
    "log", "log1p", "log2", "log10", "logaddexp", "logaddexp2",
    "exp", "expm1", "exp2", "power", "float_power",
    "sin", "cos", "tan", "arcsin", "arccos", "arctan", "arctan2", "hypot",
    "asin", "acos", "atan", "atan2",
    "sinh", "cosh", "tanh", "arcsinh", "arccosh", "arctanh", "asinh", "acosh", "atanh",
}


def numpy_transcendentals(node: ast.AST, owner: str):
    """(enclosing function or class, name) of each `np.<name>` or `numpy.<name>`
    under `node` that names a transcendental."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from numpy_transcendentals(child, child.name)
            continue
        if (isinstance(child, ast.Attribute) and child.attr in TRANSCENDENTALS
                and isinstance(child.value, ast.Name) and child.value.id in ("np", "numpy")):
            yield owner, child.attr
        yield from numpy_transcendentals(child, owner)


def test_segment_search_log_is_the_one_numpy_transcendental():
    # slopes and Newton steps use only +, *, / and sqrt, correctly rounded on every
    # code path, so libm's log in place of numpy's fixes every oracle figure
    src = Path(ri_entropy.__file__).resolve().parent
    found = [(path.stem, *use) for path in sorted(src.glob("*.py"))
             for use in numpy_transcendentals(ast.parse(path.read_text()), "<module>")]
    assert found == [("oracle", "_segment_search", "log")]


@pytest.mark.usefixtures("libm_log")
class TestLibmLog:
    def test_positive_finite_inputs_take_math_log(self):
        rng = np.random.default_rng(12)
        x = np.concatenate([
            4.0 * rng.random(20_000),
            np.exp(rng.uniform(-700.0, 700.0, 20_000)),
            1.0 + rng.uniform(-1e-6, 1e-6, 20_000),
            [5e-324, 2.2250738585072014e-308, 1.0, np.nextafter(1.0, 2.0), 1.7976931348623157e308],
        ])
        want = np.array([math.log(v) for v in x.tolist()])
        assert np.log(x).tobytes() == want.tobytes()

    def test_special_values_without_a_warning(self):
        x = np.array([0.0, -0.0, -1.0, -5e-324, -np.inf, np.nan, np.inf])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = np.log(x)
        np.testing.assert_array_equal(got, [-np.inf, -np.inf, np.nan, np.nan, np.nan, np.nan,
                                            np.inf])
        with np.errstate(divide="ignore", invalid="ignore"):
            np.testing.assert_array_equal(got, REAL_LOG(x))

    @pytest.mark.parametrize("x", [2.0, np.float64(2.0), np.array(2.0), np.empty(0),
                                   np.full((2, 3, 4), 2.0), [[1.0, 2.0]], np.arange(1, 4)])
    def test_shape_and_dtype_kept(self, x):
        got, want = np.log(x), REAL_LOG(x)
        assert type(got) is type(want)
        assert np.shape(got) == np.shape(want)
        assert got.dtype == want.dtype == np.float64


@pytest.fixture
def after_libm_log():
    """Requested before `libm_log`, so its teardown runs after that fixture's."""
    yield
    assert np.log is REAL_LOG


def test_fixture_restores_numpy_log(after_libm_log, libm_log):
    assert np.log is not REAL_LOG
    assert isinstance(REAL_LOG, np.ufunc)
