"""Fixture: order-sensitive reduction feeding a parity root (VEC005).

numpy's pairwise summation associates differently from the sequential
scalar reference, so the two would disagree in the last bits.
"""

import numpy as np


def delivery_probabilities(gains):
    return np.sum(gains) / len(gains)
