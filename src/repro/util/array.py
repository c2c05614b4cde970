"""The optional numpy backend, selected once at import.

numpy is an *accelerator*, never a dependency (``pip install .[fast]``
declares it).  With numpy, ``Medium`` runs its batch delivery pipeline
(:mod:`repro.radio.medium`); without it, the scalar reference loop — the
one numpy-free path, and byte-identical to the pipeline by contract.
Smaller batch surfaces (``PropagationModel.delivery_probabilities``,
``MobilityModel.positions_at``) keep a scalar loop for when numpy is
absent.  This module is the one place numpy is imported:

* ``numpy`` — the imported module, or ``None`` when numpy is missing.
  The smaller batch surfaces read this attribute per call (``np =
  array.numpy``), so tests can monkeypatch it to ``None`` to exercise
  their scalar loops; :mod:`repro.radio.medium` reads it once, at
  import, since its pipeline has no numpy-free form to switch to.
* ``HAVE_NUMPY`` — the selection frozen at import, for reporting.

Bit-parity ground rules (verified empirically on numpy 2.x, whose ufuncs
use SIMD kernels):

* Plain IEEE-754 arithmetic (``+ - * /``) and ``np.sqrt`` are correctly
  rounded and **identical** to the ``math`` module scalar-by-scalar.
* ``np.hypot``, ``np.log10``, ``np.power`` are **not** bit-identical to
  ``math.hypot`` / ``math.log10`` / ``math.pow`` and are banned from any
  path whose floats can reach a delivery log.  This is why
  :meth:`repro.phy.geometry.Position.distance_to` is written as
  ``sqrt(dx*dx + dy*dy)`` (reproducible by a vector backend) rather than
  ``hypot`` (not), and why :class:`repro.phy.propagation.LogDistance`
  keeps a scalar loop in its batch methods.
"""

from __future__ import annotations

try:  # pragma: no cover - exercised by the numpy-blocked subprocess test
    import numpy as _numpy
except ImportError:  # pragma: no cover
    _numpy = None

#: The active backend: the numpy module, or None without numpy.
#: Monkeypatchable; batch code reads it per call.
numpy = _numpy

#: Whether numpy was importable at import time.
HAVE_NUMPY = numpy is not None


def backend_name() -> str:
    """``"numpy"`` or ``"python"`` — the currently active backend."""
    return "numpy" if numpy is not None else "python"


def numpy_version() -> str:
    """The active numpy's version string, or ``""`` under pure Python.

    Recorded alongside :func:`backend_name` in run/bench metadata so a
    parity regression can be traced to the exact kernel generation that
    produced the floats.
    """
    np = numpy
    return "" if np is None else str(np.__version__)
