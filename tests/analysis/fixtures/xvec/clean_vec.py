"""Fixture: every admissible idiom at once — must stay completely silent.

Correctly-rounded primitives (+ - * /, np.sqrt), a stable argsort, the
per-call backend read, and ordered scalar draws are exactly how the
production pipeline is written; none of VEC001, VEC004 or VEC005 may fire.
"""

from repro.util import array


def delivery_probabilities(origin_x, origin_y, xs, ys):
    np = array.numpy
    dx = np.asarray(xs) - origin_x
    dy = np.asarray(ys) - origin_y
    return np.sqrt(dx * dx + dy * dy) * 0.5


def broadcast(rng, candidates):
    np = array.numpy
    keys = np.asarray([c.node_id for c in candidates])
    return [rng.random() for _ in np.argsort(keys, kind="stable")]
