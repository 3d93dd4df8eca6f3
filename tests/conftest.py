import os

# One BLAS thread, as bench/run.py runs, before numpy loads: a threaded
# product's bits follow where its threads split it, and the bit-identity
# tests compare routes that split differently.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
