"""Hypothesis strategies shared by the test modules."""

import math

import numpy as np
from hypothesis import strategies as st

from gkpsq.operators import preset_grid, transform_grid


def _reshaped_q0(r, th1, th2, shift):
    def rot(t):
        return np.array([[math.cos(t), math.sin(t)], [-math.sin(t), math.cos(t)]])

    A = rot(th1) @ np.diag([math.exp(r), math.exp(-r)]) @ rot(th2)
    return transform_grid(preset_grid("q0"), A, shift)


# GKP-valid grids: q0 under a rotation-squeeze-rotation and a displacement.
reshaped_grids = st.builds(
    _reshaped_q0,
    st.floats(-0.5, 0.5),
    st.floats(0.0, 2.0 * math.pi),
    st.floats(0.0, 2.0 * math.pi),
    st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
)
