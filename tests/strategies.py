"""Hypothesis strategies shared by the test modules."""

import math

import numpy as np
from hypothesis import strategies as st

from gkpsq.operators import preset_grid, transform_grid


def _rotation_squeeze_rotation(r, th1, th2):
    def rot(t):
        return np.array([[math.cos(t), math.sin(t)], [-math.sin(t), math.cos(t)]])

    return rot(th1) @ np.diag([math.exp(r), math.exp(-r)]) @ rot(th2)


# Symplectic 2x2 maps: a rotation, a squeeze and a rotation.
symplectic_maps = st.builds(
    _rotation_squeeze_rotation,
    st.floats(-0.5, 0.5),
    st.floats(0.0, 2.0 * math.pi),
    st.floats(0.0, 2.0 * math.pi),
)

# GKP-valid grids: q0 under a symplectic map and a displacement.
reshaped_grids = st.builds(
    lambda A, shift: transform_grid(preset_grid("q0"), A, shift),
    symplectic_maps,
    st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
)
