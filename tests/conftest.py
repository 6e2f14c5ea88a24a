import os
import sys

# BLAS threads are pinned before numpy is first imported: with more threads
# than idle cores the suite's small matrices measure the scheduler, and the
# figure-scale tests take several times as long
if "numpy" in sys.modules:
    raise RuntimeError("numpy was imported before tests/conftest.py could pin the "
                       "BLAS threads; run the suite without the plugin that imports it")
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402

sys.path.insert(0, str(Path(__file__).parent))  # make oracles importable


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
