import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from nmk import DensityState, layout, tensor

# CLI tests run ``python -m nmk`` in subprocesses; let them import this
# checkout's package too.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


def peak_before_raising(call, error) -> int:
    """The tracemalloc peak, in bytes, of ``call()``, which must raise
    ``error``."""
    tracemalloc.start()
    try:
        with pytest.raises(error):
            call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def bell_pair(a="A", b="B"):
    m = np.zeros((4, 4), dtype=complex)
    for i in (0, 3):
        for j in (0, 3):
            m[i, j] = 0.5
    return DensityState(layout((a, 2, "alice"), (b, 2, "bob")), m)


def eve_zero(label="E", dim=2):
    m = np.zeros((dim, dim), dtype=complex)
    m[0, 0] = 1.0
    return DensityState(layout((label, dim, "eve")), m)


def ghz_diag():
    m = np.zeros((8, 8), dtype=complex)
    m[0, 0] = 0.5
    m[7, 7] = 0.5
    return DensityState(layout(("A", 2, "alice"), ("B", 2, "bob"), ("E", 2, "eve")), m)


def floor_spectrum_state():
    """A rank-2 state on A, B, E = 2, 2, 2 whose six other eigenvalues sit at
    -1e-9, inside the validation floor: the two kept ones sum to 1 + 6e-9."""
    vals = np.array([0.5 + 3e-9] * 2 + [-1e-9] * 6)
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
    m = (q * vals) @ q.conj().T
    return DensityState(
        layout(("A", 2, "alice"), ("B", 2, "bob"), ("E", 2, "eve")), (m + m.conj().T) / 2
    )


def classical_corr(a="A", b="B"):
    return DensityState(
        layout((a, 2, "alice"), (b, 2, "bob")), np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
    )


@pytest.fixture
def bell_e0():
    return tensor(bell_pair(), eve_zero())


@pytest.fixture
def classical_corr_e0():
    return tensor(classical_corr(), eve_zero())


@pytest.fixture
def ghz():
    return ghz_diag()
