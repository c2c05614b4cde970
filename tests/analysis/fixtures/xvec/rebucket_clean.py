"""Fixture: the admissible batch acceptance/rebucket idiom — silent.

Elementwise state reads for the acceptance mask, correctly-rounded
arithmetic (subtract, maximum, multiply, add) for the epoch positions,
and ``math.floor`` for bucket coordinates are exactly how the production
pipeline is written; none of VEC001, VEC004 or VEC005 may fire even
though every function here is a parity root.
"""

import math

from repro.util import array


def accepts_mask(radios, frame, now):
    return [radio.enabled and radio.window_until > now for radio in radios]


def positions_at(models, time):
    np = array.numpy
    if np is None:
        return [m.x for m in models], [m.y for m in models]
    starts = np.asarray([m.start_time for m in models])
    elapsed = np.maximum(0.0, time - starts)
    xs = np.asarray([m.x for m in models]) + 2.0 * elapsed
    ys = np.asarray([m.y for m in models]) + 0.5 * elapsed
    return xs.tolist(), ys.tolist()


def insert_batch(index, items, xs, ys):
    for item, x, y in zip(items, xs, ys):
        index.place(item, (math.floor(x / 4.0), math.floor(y / 4.0)))
