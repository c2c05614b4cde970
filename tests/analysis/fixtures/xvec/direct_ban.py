"""Fixture: banned ufunc directly inside a parity root (VEC001).

The backend is bound per call through the shim, so the finding is the
``np.hypot`` call itself, at its own line.
"""

from repro.util import array


def delivery_probabilities(distances):
    np = array.numpy
    return np.hypot(distances, distances)
