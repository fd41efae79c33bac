"""Dense linear algebra for qubit registers.

States are density matrices (Hermitian, PSD, trace 1); qubit 0 is the most
significant tensor factor, so basis index ``b`` encodes the bit string
``b_0 b_1 ... b_{n-1}`` read left to right.  A state is its ``4**n`` real
Pauli coefficients ``c_P = tr(P rho)``, one leg per qubit indexed ``(I, X,
Y, Z)``, qubit 0 leading; a given matrix is converted to them once, and
eigensolves take matrices built from them.  All functions are pure and all
values are treated as immutable (buffers are write-locked).
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
from typing import Iterable, Sequence

import numpy as np

from .config import BLAS_THREADS, BLAS_THREADS_ENV, HERM_TOL, TRACE_RENORM_LIMIT

__all__ = [
    "DensityMatrix",
    "check_subset",
    "haar_unitary",
    "leg_products",
    "limit_blas_threads",
    "partial_trace",
    "pauli_coefficients",
    "pauli_matrices",
    "random_density",
    "random_pure_state",
    "trace_distance",
]

def _as_square(m: np.ndarray, what: str = "matrix") -> np.ndarray:
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{what} must be square, got shape {m.shape}")
    return m


def _qubits_for_dim(dim: int) -> int:
    n = int(dim).bit_length() - 1
    if dim <= 0 or 2**n != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    return n


def _locked(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class DensityMatrix:
    """An ``n``-qubit mixed state: Hermitian, PSD, trace-1 matrix of dim ``2**n``.

    The zero-qubit state is the 1x1 matrix ``[[1]]`` (a scalar register),
    which is what fan-in-0 preparation gates consume.  A state holds one
    field, converted one way: a given matrix until the first read of
    :attr:`pauli` replaces it with the coefficients, which a state made by
    the simulator, :meth:`maximally_mixed` or :func:`partial_trace` holds
    from the start.  A read of the field sees one form, in any thread.
    """

    def __init__(self, qubits: int, mat: np.ndarray) -> None:
        m = _as_square(mat, "state matrix")
        if qubits < 0 or m.shape[0] != 2**qubits:
            raise ValueError(
                f"state with {qubits} qubits needs dim {2**max(qubits, 0)}, got {m.shape[0]}"
            )
        self._qubits, self._form = qubits, _locked(m.copy())

    def __repr__(self) -> str:  # matrices are noise in tracebacks
        return f"DensityMatrix(qubits={self.qubits})"

    @classmethod
    def _from_pauli(cls, qubits: int, coeffs: np.ndarray) -> "DensityMatrix":
        """Write-lock fresh real coefficients that the caller never writes again."""
        state = object.__new__(cls)
        state._qubits, state._form = qubits, _locked(coeffs)
        return state

    @property
    def qubits(self) -> int:
        return self._qubits

    @property
    def mat(self) -> np.ndarray:
        """The density matrix, write-locked: the given one while held, else
        one built afresh from the coefficients, kept nowhere, exactly Hermitian."""
        form = self._form
        return form if form.ndim == 2 else _locked(pauli_matrices(form))

    @property
    def pauli(self) -> np.ndarray:
        """The ``4**n`` real coefficients ``c_P = tr(P rho)``, write-locked.

        A given matrix is checked here, where it enters coefficient form,
        converted, divided by ``c_I`` (so ``c_I`` is exactly 1) and replaced.
        A non-finite entry anywhere raises ``ArithmeticError``: the products
        by 0 in the conversion carry it into ``c_I`` as NaN.  An
        anti-Hermitian part beyond ``HERM_TOL`` raises ``ValueError``, and a
        trace further than ``TRACE_RENORM_LIMIT`` from 1 raises ``ArithmeticError``.
        """
        m = self._form
        if m.ndim == 1:
            return m
        with np.errstate(invalid="ignore", over="ignore"):  # non-finite entries raise below
            # one temporary and its moduli; a NaN residual passes to the trace check
            anti = np.conjugate(m.T, out=np.empty(m.shape, dtype=np.complex128))
            anti -= m
            residual = float(np.abs(anti).max())
            del anti
            c = pauli_coefficients(m)
        trace = float(c[0])
        if not math.isfinite(trace):
            raise ArithmeticError(f"state has a non-finite entry (trace drifted to {trace!r})")
        if residual > HERM_TOL:
            raise ValueError(f"state matrix is not Hermitian (residual {residual:.3e})")
        if not abs(trace - 1.0) <= TRACE_RENORM_LIMIT:
            raise ArithmeticError(f"state trace drifted to {trace!r}; refusing to renormalize")
        c /= c[0]
        self._form = c = _locked(c)
        return c

    @classmethod
    def basis_state(cls, qubits: int, index: int) -> "DensityMatrix":
        """|index><index| on the computational basis, index read as the bit string."""
        dim = 2**qubits
        if not 0 <= index < dim:
            raise ValueError(f"basis index {index} out of range for {qubits} qubits")
        m = np.zeros((dim, dim), dtype=np.complex128)
        m[index, index] = 1.0
        return cls(qubits, m)

    @classmethod
    def pure(cls, amplitudes: Sequence[complex]) -> "DensityMatrix":
        v = np.asarray(amplitudes, dtype=np.complex128).reshape(-1)
        norm = np.linalg.norm(v)
        if norm == 0:
            raise ValueError("zero vector is not a state")
        v = v / norm
        return cls(_qubits_for_dim(v.size), np.outer(v, v.conj()))

    @classmethod
    def maximally_mixed(cls, qubits: int) -> "DensityMatrix":
        """``I / 2**qubits``: the coefficients ``e_0``."""
        return cls._from_pauli(qubits, np.eye(1, 4**qubits)[0])


def check_subset(indices: Iterable[int], qubits: int) -> tuple[int, ...]:
    """Validate a qubit subset: strictly increasing, all in ``range(qubits)``."""
    idx = tuple(int(i) for i in indices)
    for a, b in zip(idx, idx[1:]):
        if a >= b:
            raise ValueError(f"subset {idx} must be strictly increasing")
    if idx and (idx[0] < 0 or idx[-1] >= qubits):
        raise ValueError(f"subset {idx} out of range for {qubits} qubits")
    return idx


#: one leg from its entries ``m[r, c]``, ``rc = 00, 01, 10, 11``, to ``(I,
#: X, Y, Z)`` and back, real: ``Y = i [[0, -1], [1, 0]]`` leaves its ``i``
#: to :func:`_y_signs`; ``tr(P m)`` reads ``P[c, r]``, ``m`` takes ``P[r, c]/2``
_LEG_TO_PAULI = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, 1, -1, 0], [1, 0, 0, -1]], dtype=float)
_LEG_TO_MATRIX = np.array([[1, 0, 0, 1], [0, 1, -1, 0], [0, 1, 1, 0], [1, 0, 0, -1]]) / 2


@functools.cache
def _y_signs(qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """By the number ``m`` of ``Y`` legs of each Pauli string on ``qubits``
    legs: ``(Re + Im)(i**m) / 2`` (the half :func:`pauli_matrices` symmetrizes
    with) and ``(Re - Im)(i**m)``, exact in ``float32``; kept per leg count."""
    ys = functools.reduce(np.add.outer, [np.array([0, 0, 1, 0], np.int8)] * qubits, np.int8(0))
    ys = np.reshape(ys % 4, -1)
    to_matrix, to_pauli = np.array([[0.5, 0.5, -0.5, -0.5], [1, -1, -1, 1]], dtype=np.float32)
    return _locked(to_matrix[ys]), _locked(to_pauli[ys])


def leg_products(x: np.ndarray, ops: Iterable[np.ndarray]) -> np.ndarray:
    """Apply each ``op`` to the trailing leg of ``x`` and move its output leg
    to the front, one matrix product each: after ops on the last ``k`` legs,
    their outputs lead in the order the legs had."""
    for op in ops:
        x = np.matmul(op, x.reshape(-1, op.shape[1]).T)
    return x


def pauli_coefficients(mat: np.ndarray) -> np.ndarray:
    """The real ``c_P = tr(P m)`` of a Hermitian ``2**n x 2**n`` matrix.

    With ``m = A + iB``, ``A`` symmetric and ``B`` antisymmetric, a string
    with an even number of ``Y`` legs reads only ``A`` and one with an odd
    number only ``B``: so the real ``A + B``, each qubit's row and column bit
    paired into one leg, takes one real product per leg and a sign.
    """
    n = _qubits_for_dim(len(mat))
    t = np.reshape(mat, (2,) * (2 * n)).transpose([a for q in range(n) for a in (q, n + q)])
    return leg_products(t.real + t.imag, [_LEG_TO_PAULI] * n).reshape(-1) * _y_signs(n)[1]


def pauli_matrices(coeffs: np.ndarray) -> np.ndarray:
    """The fresh matrices ``sum_P c_P P / 2**n`` of a stack ``(..., 4**n)`` of
    real coefficients, shaped ``(..., 2**n, 2**n)``.

    Real legs build ``H / 2`` for ``H = A + B`` (see
    :func:`pauli_coefficients`), and ``A``, ``B`` are twice its symmetric and
    antisymmetric parts: entry ``[c, r]`` is the same sum as ``[r, c]`` and
    the negated difference, so each matrix is exactly Hermitian, and a block
    of ``H`` that is exactly zero stays so.
    """
    *stack, size = np.shape(coeffs)
    n = _qubits_for_dim(size) // 2
    h = leg_products(coeffs * _y_signs(n)[0], [_LEG_TO_MATRIX] * n)  # the stack trails
    rows_cols = [2 * n, *range(0, 2 * n, 2), *range(1, 2 * n, 2)]
    h = h.reshape((2,) * (2 * n) + (-1,)).transpose(rows_cols).reshape(*stack, 2**n, 2**n)
    out = np.empty(h.shape, dtype=np.complex128)
    np.add(h, np.swapaxes(h, -1, -2), out=out.real)
    np.subtract(h, np.swapaxes(h, -1, -2), out=out.imag)
    return out


def partial_trace(rho: DensityMatrix, keep: Iterable[int]) -> DensityMatrix:
    """Reduced state on ``keep``, tracing out every other qubit: the
    coefficients with ``I`` on every traced leg, one slice.

    The result's qubit ``j`` is the input's ``keep[j]``; ``keep`` must be
    strictly increasing.  Keeping everything returns the state unchanged and
    keeping nothing yields the scalar state.
    """
    keep_idx = check_subset(keep, rho.qubits)
    if len(keep_idx) == rho.qubits:
        return rho
    legs = tuple(slice(None) if q in keep_idx else 0 for q in range(rho.qubits))
    coeffs = rho.pauli.reshape((4,) * rho.qubits)[legs].flatten()
    return DensityMatrix._from_pauli(len(keep_idx), coeffs)


#: a classical leg's ``I`` and ``Z`` entries to its ``|0>`` and ``|1>`` blocks
_CLASSICAL_LEG = np.array([[1.0, 1.0], [1.0, -1.0]]) / 2


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Half the trace norm of ``rho - sigma``: the best distinguishing advantage.

    Read from the coefficients of the difference.  A qubit with no nonzero
    ``X`` or ``Y`` entry on its leg (exactly, no tolerance), such as one both
    states hold measured or freshly prepared, is classical: the difference
    is block-diagonal in its bit.  The classical legs' ``I`` and ``Z``
    entries give the coefficients of one block per classical bit string; the
    all-zero blocks (a refreshed qubit's ``|1>`` half) are dropped, and the
    rest are solved in one batch, or are the eigenvalues themselves when no
    qubit is quantum.  Blocks built from real coefficients are exactly
    Hermitian.  A non-finite coefficient raises ``ArithmeticError``.
    """
    if rho.qubits != sigma.qubits:
        raise ValueError(
            f"qubit count mismatch: {rho.qubits} vs {sigma.qubits}"
        )
    n = rho.qubits
    delta = (rho.pauli - sigma.pauli).reshape((4,) * n)
    coupled = delta != 0
    classical = [q for q in range(n) if not coupled[(slice(None),) * q + (slice(1, 3),)].any()]
    quantum = [q for q in range(n) if q not in classical]
    iz = delta.transpose(quantum + classical)[(...,) + (slice(None, None, 3),) * len(classical)]
    blocks = leg_products(iz, [_CLASSICAL_LEG] * len(classical)).reshape(2 ** len(classical), -1)
    del delta, coupled, iz  # before the blocks' matrices
    blocks = blocks[blocks.any(axis=1)]
    if not np.isfinite(blocks).all():
        raise ArithmeticError("state difference has a non-finite coefficient")
    ev = np.linalg.eigvalsh(pauli_matrices(blocks)) if quantum else blocks
    return 0.5 * float(np.abs(ev).sum())


def haar_unitary(qubits: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random unitary: QR of a complex Gaussian with phases fixed."""
    dim = 2**qubits
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(a)
    d = np.diagonal(r)
    phases = np.where(np.abs(d) > 0, d / np.abs(d), 1.0)
    return q * phases


def random_pure_state(qubits: int, rng: np.random.Generator) -> DensityMatrix:
    dim = 2**qubits
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return DensityMatrix.pure(v)


def random_density(qubits: int, rng: np.random.Generator) -> DensityMatrix:
    """Full-rank random mixed state: normalized Wishart matrix M M^dagger / tr."""
    dim = 2**qubits
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = m @ m.conj().T
    return DensityMatrix(qubits, rho / np.trace(rho).real)


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _named_blas_threads() -> int:
    """The start-up BLAS threads: the first positive count a set variable
    names (else every usable CPU), or ``BLAS_THREADS``, set below, if none is."""
    if not any(name in os.environ for name in BLAS_THREADS_ENV):
        return BLAS_THREADS
    named = [os.environ.get(name, "").strip() for name in BLAS_THREADS_ENV]
    return next((int(n) for n in named if n.isdigit() and int(n) > 0), _usable_cpus())


#: the BLAS threads an eigensolve may start, which a distance report divides
#: the usable CPUs by: the start-up count, then :func:`limit_blas_threads`'s
_blas_threads = _named_blas_threads()


def limit_blas_threads(threads: int) -> int:
    """Set every OpenBLAS in this process to ``threads`` threads and record
    that count; return how many libraries were found (0 for another BLAS, or
    without ``/proc/self/maps``).

    The products here are small gates against long rows, and spin-waiting
    BLAS threads halve throughput whenever another process holds a core.
    """
    global _blas_threads
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    _blas_threads = threads
    names = [f"{p}openblas_set_num_threads{s}" for p in ("", "scipy_") for s in ("", "64_")]
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split(maxsplit=5)[5].strip() for line in fh if "openblas" in line}
        libs = [ctypes.CDLL(path) for path in sorted(paths)]
    except OSError:  # no /proc, or a mapped library since deleted
        return 0
    setters = [getattr(lib, n) for lib in libs for n in names if hasattr(lib, n)]
    for setter in setters:
        setter.argtypes, setter.restype = [ctypes.c_int], None
        setter(threads)
    return len(setters)


if not any(name in os.environ for name in BLAS_THREADS_ENV):
    limit_blas_threads(BLAS_THREADS)
