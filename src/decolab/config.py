"""Numeric tolerances and desk-scale resource caps.

Everything here is a plain value; nothing reads global state except
:func:`max_qubits`, which honors the ``DECOLAB_MAX_QUBITS`` environment
variable (default 10, hard ceiling 12 = one dense 4096x4096 state).
"""

from __future__ import annotations

import os

MAX_QUBITS_ENV = "DECOLAB_MAX_QUBITS"
DEFAULT_MAX_QUBITS = 10
HARD_MAX_QUBITS = 12

#: subset enumeration may visit every one of 2**10 reduced states per level
ENUMERATION_CAP = 10

#: |trace - 1| beyond this after a channel application is treated as a bug, not drift
TRACE_RENORM_LIMIT = 1e-6

#: OpenBLAS threads set at import unless the environment names a count
BLAS_THREADS = 1
BLAS_THREADS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

#: validation tolerances for states and channels; they assume double precision
#: and at most ~10^3 arithmetic layers, which keeps drift well below each one
HERM_TOL = 1e-9
KRAUS_TOL = 1e-9
UNITARY_TOL = 1e-9


class ResourceLimitError(RuntimeError):
    """A desk-scale cap (qubit count, Kraus terms, enumeration size) was exceeded."""


def max_qubits() -> int:
    """Widest register any state or circuit may use.

    ``DECOLAB_MAX_QUBITS`` overrides the default of 10; values above the
    hard maximum of 12 are clamped, values below 1 rejected.
    """
    raw = os.environ.get(MAX_QUBITS_ENV)
    if raw is None:
        return DEFAULT_MAX_QUBITS
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{MAX_QUBITS_ENV} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ValueError(f"{MAX_QUBITS_ENV} must be >= 1, got {value}")
    return min(value, HARD_MAX_QUBITS)
