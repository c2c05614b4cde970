"""The numpy shim: backend selection, reporting, and the parity ground rules.

The ground-rule properties pin the numpy primitives the neighbour table
is built from (``np.sqrt(dx*dx + dy*dy)`` distances, stable ``argsort``)
to their scalar counterparts bit for bit.  Whether an interpreter
without numpy gets the scalar medium, with the same delivery bytes, is
checked end to end by ``tests/radio/test_medium_vectorized.py``.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.util import array

coords = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)

# Adversarial floats for the parity suite: the full finite float64 range
# including subnormals and signed zeros, where SIMD kernels historically
# diverge from scalar libm (flush-to-zero, sign-of-zero, overflow order).
adversarial = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=64,
              allow_subnormal=True),
    st.sampled_from([
        0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
        -2.2250738585072014e-308, 1.7976931348623157e308,
        -1.7976931348623157e308, 1.0, -1.0,
    ]),
)


def _numpy():
    if array.numpy is None:
        pytest.skip("numpy is not installed")
    return array.numpy


def _distances(origin, points):
    """numpy's ``sqrt(dx*dx + dy*dy)`` and the math-module scalar form."""
    np = _numpy()
    ox, oy = origin
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    with np.errstate(over="ignore"):
        dx = np.asarray(xs, dtype=np.float64) - ox
        dy = np.asarray(ys, dtype=np.float64) - oy
        vectorized = np.sqrt(dx * dx + dy * dy).tolist()
    sqrt = math.sqrt
    scalar = [
        sqrt((x - ox) * (x - ox) + (y - oy) * (y - oy)) for x, y in zip(xs, ys)
    ]
    return vectorized, scalar


def test_backend_name_tracks_the_numpy_attribute(monkeypatch):
    if array.numpy is not None:
        assert array.backend_name() == "numpy"
    monkeypatch.setattr(array, "numpy", None)
    assert array.backend_name() == "python"


def test_have_numpy_is_frozen_at_import(monkeypatch):
    # HAVE_NUMPY reports the import-time selection; monkeypatching the
    # live attribute (what batch code reads) must not retroactively flip it.
    before = array.HAVE_NUMPY
    monkeypatch.setattr(array, "numpy", None)
    assert array.HAVE_NUMPY is before


def test_numpy_version_tracks_the_backend(monkeypatch):
    if array.numpy is not None:
        assert array.numpy_version() == str(array.numpy.__version__)
    monkeypatch.setattr(array, "numpy", None)
    assert array.numpy_version() == ""


@settings(max_examples=200, deadline=None)
@given(
    st.tuples(coords, coords),
    st.lists(st.tuples(coords, coords), max_size=20),
)
def test_euclidean_distances_backends_are_bit_identical(origin, points):
    """The ground rule the whole batch pipeline rests on: numpy's
    sqrt(dx*dx + dy*dy) is bit-identical to the math-module scalar form."""
    vectorized, scalar = _distances(origin, points)
    assert vectorized == scalar


@settings(max_examples=300, deadline=None)
@given(
    st.tuples(adversarial, adversarial),
    st.lists(st.tuples(adversarial, adversarial), max_size=16),
)
def test_euclidean_distances_adversarial_bit_parity(origin, points):
    """Bit-for-bit parity over the full finite float64 range — subnormals,
    signed zeros, and magnitudes that overflow ``dx*dx`` to infinity must
    round (and overflow) identically on both paths."""
    vectorized, scalar = _distances(origin, points)
    assert len(vectorized) == len(scalar)
    for got, want in zip(vectorized, scalar):
        # Compare raw bit patterns: 0.0 == -0.0 under ==, but they are
        # different floats and a parity suite must tell them apart.
        assert math.copysign(1.0, got) == math.copysign(1.0, want)
        assert got == want


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=-(2**40), max_value=2**40), max_size=30))
def test_argsort_backends_agree_and_are_stable(keys):
    np = _numpy()
    expected = sorted(range(len(keys)), key=keys.__getitem__)
    got = np.argsort(np.asarray(keys, dtype=np.int64), kind="stable")
    assert got.tolist() == expected


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=-8, max_value=8), max_size=40))
def test_argsort_tie_order_is_identical_across_backends(keys):
    """Heavy-tie inputs: the stable kind must keep original order for
    equal keys exactly as the scalar sorted() does — the neighbour table
    bins radios by cell this way and relies on attach order surviving."""
    np = _numpy()
    expected = sorted(range(len(keys)), key=keys.__getitem__)
    got = np.argsort(np.asarray(keys, dtype=np.int64), kind="stable")
    assert got.tolist() == expected
