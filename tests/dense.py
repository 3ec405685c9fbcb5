"""Dense views of the statevector oracle's sparse states, for tests that
check it against dense numpy references."""

import numpy as np


def dense(state: dict[int, complex], n: int) -> np.ndarray:
    """The sparse state on ``n`` wires as an array with one axis per wire;
    axis i holds bit i of the basis bitmask."""
    psi = np.zeros(2 ** n, dtype=complex)
    for k, a in state.items():
        psi[k] = a
    return psi.reshape((2,) * n).transpose()


def sparse(psi: np.ndarray) -> dict[int, complex]:
    """The inverse of :func:`dense`: every nonzero amplitude by bitmask."""
    return {k: complex(a) for k, a in enumerate(psi.transpose().reshape(-1)) if a != 0}
