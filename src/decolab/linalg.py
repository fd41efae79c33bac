"""Dense linear algebra for qubit registers.

States are density matrices (Hermitian, PSD, trace 1); qubit 0 is the most
significant tensor factor, so basis index ``b`` encodes the bit string
``b_0 b_1 ... b_{n-1}`` read left to right.  The simulator holds a state as
its ``4**n`` real Pauli coefficients ``c_P = tr(P rho)``, one leg per qubit
indexed ``(I, X, Y, Z)``, qubit 0 leading, and the analysis reads matrices;
this module owns both layouts and the conversions.  All functions are pure
and all values are treated as immutable (buffers are write-locked).
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
    "batched_partial_trace",
    "check_subset",
    "haar_unitary",
    "hermitian_eigenvalues",
    "leg_products",
    "limit_blas_threads",
    "partial_trace",
    "pauli_coefficients",
    "pauli_matrices",
    "random_density",
    "random_pure_state",
    "trace_distance",
]

#: smallest matrix that ``hermitian_eigenvalues`` splits over classical
#: qubits; below it the scan and the block bookkeeping cost more than one
#: whole ``eigvalsh`` (on verdict differences of mixed circuits, one BLAS
#: thread, the split took 1.4x the whole solve's time at 32 x 32 and 0.82x
#: at 64 x 64)
_SPLIT_MIN_DIM = 64


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
    form: a state given as a matrix converts it on each read of
    :attr:`pauli`, and one the simulator made keeps its coefficients until
    the first read of :attr:`mat` replaces them with the matrix.
    """

    def __init__(self, qubits: int, mat: np.ndarray) -> None:
        m = _as_square(mat, "state matrix")
        if qubits < 0 or m.shape[0] != 2**qubits:
            raise ValueError(
                f"state with {qubits} qubits needs dim {2**max(qubits, 0)}, got {m.shape[0]}"
            )
        self._qubits, self._mat, self._pauli = qubits, _locked(m.copy()), None

    def __repr__(self) -> str:  # matrices are noise in tracebacks
        return f"DensityMatrix(qubits={self.qubits})"

    @classmethod
    def _adopt(cls, qubits: int, buf: np.ndarray) -> "DensityMatrix":
        """Write-lock a buffer its caller just allocated and never writes again."""
        if buf.dtype != np.complex128 or buf.shape != (2**qubits,) * 2 or not buf.flags.owndata:
            raise ValueError(f"cannot adopt a {buf.dtype} {buf.shape} buffer as {qubits} qubits")
        state = object.__new__(cls)
        state._qubits, state._mat, state._pauli = qubits, _locked(buf), None
        return state

    @classmethod
    def _from_pauli(cls, qubits: int, coeffs: np.ndarray) -> "DensityMatrix":
        """Adopt fresh real coefficients, as :meth:`_adopt` a matrix."""
        state = object.__new__(cls)
        state._qubits, state._mat, state._pauli = qubits, None, _locked(coeffs)
        return state

    @property
    def qubits(self) -> int:
        return self._qubits

    @property
    def mat(self) -> np.ndarray:
        """The density matrix, write-locked.  Built from real coefficients,
        it is exactly Hermitian: ``m == m.conj().T`` bitwise."""
        c, m = self._pauli, self._mat  # in this order: ``_mat`` is set before ``_pauli`` clears
        if m is None:
            m = self._mat = _locked(pauli_matrices(c))
            self._pauli = None
        return m

    @property
    def pauli(self) -> np.ndarray:
        """The ``4**n`` real coefficients ``c_P = tr(P rho)``, write-locked.

        A matrix is converted and divided by ``c_I``, so ``c_I`` is exactly
        1; a trace further than ``TRACE_RENORM_LIMIT`` from 1 raises
        ``ArithmeticError`` instead, as does a non-finite entry anywhere: the
        products by 0 in the conversion carry it into ``c_I`` as NaN.
        """
        if (c := self._pauli) is not None:  # read once: another thread may clear it
            return c
        with np.errstate(invalid="ignore", over="ignore"):  # non-finite entries raise below
            c = pauli_coefficients(self._mat)
        trace = float(c[0])
        if not abs(trace - 1.0) <= TRACE_RENORM_LIMIT:  # a NaN trace fails this too
            raise ArithmeticError(f"state trace drifted to {trace!r}; refusing to renormalize")
        c /= c[0]
        return _locked(c)

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
        dim = 2**qubits
        mat = np.eye(dim, dtype=np.complex128)
        mat /= dim
        return cls._adopt(qubits, mat)


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


@functools.lru_cache(maxsize=2)
def _y_signs(qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """By the number ``m`` of ``Y`` legs of each Pauli string on ``qubits``
    legs: ``(Re + Im)(i**m) / 2`` (the half :func:`pauli_matrices`
    symmetrizes with) and ``(Re - Im)(i**m)``, exact in ``float32``."""
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
    """The fresh matrix ``sum_P c_P P / 2**n`` of ``4**n`` real coefficients.

    Real legs build ``H / 2`` for ``H = A + B`` (see
    :func:`pauli_coefficients`), and ``A``, ``B`` are twice its symmetric and
    antisymmetric parts: entry ``[c, r]`` is the same sum as ``[r, c]`` and
    the negated difference, so the matrix is exactly Hermitian, and a block
    of ``H`` that is exactly zero stays so.
    """
    n = _qubits_for_dim(len(coeffs)) // 2
    h = leg_products(coeffs * _y_signs(n)[0], [_LEG_TO_MATRIX] * n).reshape((2,) * (2 * n))
    h = h.transpose([*range(0, 2 * n, 2), *range(1, 2 * n, 2)]).reshape(2**n, 2**n)  # rows, columns
    out = np.empty(h.shape, dtype=np.complex128)
    np.add(h, h.T, out=out.real)
    np.subtract(h, h.T, out=out.imag)
    return out


def batched_partial_trace(stack: np.ndarray, qubits: int, keep: tuple[int, ...]) -> np.ndarray:
    """Partial trace of a ``(states, 2**qubits, 2**qubits)`` stack down to the
    strictly increasing ``keep``, as one tied-index ``einsum``."""
    t = stack.reshape((stack.shape[0],) + (2,) * (2 * qubits))
    row = [1 + q for q in range(qubits)]
    col = [1 + qubits + q for q in range(qubits)]
    for q in range(qubits):
        if q not in keep:
            col[q] = row[q]  # tie row/col index => sum the diagonal
    out = [0] + [row[q] for q in keep] + [col[q] for q in keep]
    red = np.einsum(t, [0] + row + col, out)
    d = 2 ** len(keep)
    return red.reshape(stack.shape[0], d, d)


def partial_trace(rho: DensityMatrix, keep: Iterable[int]) -> DensityMatrix:
    """Reduced state on ``keep``, tracing out every other qubit.

    The result's qubit ``j`` is the input's ``keep[j]``; ``keep`` must be
    strictly increasing.  Keeping everything returns the state unchanged and
    keeping nothing yields the scalar state.
    """
    keep_idx = check_subset(keep, rho.qubits)
    if len(keep_idx) == rho.qubits:
        return rho
    red = batched_partial_trace(rho.mat[None], rho.qubits, keep_idx)[0]
    return DensityMatrix(len(keep_idx), red)


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, ascending.

    Rejects inputs whose anti-Hermitian part exceeds ``HERM_TOL``; the solve
    itself runs on the symmetrized matrix.  Raises ``ArithmeticError`` on a
    non-finite entry (its residual is not finite) and
    ``numpy.linalg.LinAlgError`` if the solver fails to converge.

    A ``2**n``-dimensional matrix of at least ``_SPLIT_MIN_DIM`` rows is
    split over its classical qubits, those in which both off-diagonal blocks
    are exactly zero (a measured or a freshly prepared qubit): it is then
    permutation-similar to one diagonal block per classical bit string, and
    the blocks are solved instead of the whole matrix.  The split is exact;
    a smaller matrix, or one with no classical qubit, goes to ``eigvalsh``
    whole.
    """
    m = _as_square(m)
    residual = 0.0
    if m.size:
        # one temporary, row-major like m, and its moduli
        anti = np.conjugate(m.T, out=np.empty(m.shape, dtype=np.complex128))
        anti -= m
        residual = float(np.abs(anti).max())
        del anti  # before any temporary of the split
    if not math.isfinite(residual):  # NaN > HERM_TOL is False: it would pass the check below
        raise ArithmeticError("matrix has a non-finite entry")
    if residual > HERM_TOL:
        raise ValueError(f"matrix is not Hermitian (residual {residual:.3e})")
    # an exactly Hermitian m is bitwise its own Hermitian part
    h = m if residual == 0.0 else (m + m.conj().T) / 2
    dim = h.shape[0]
    n = dim.bit_length() - 1
    classical = _classical_qubits(h, n) if dim == 2**n and dim >= _SPLIT_MIN_DIM else []
    if not classical:
        return np.linalg.eigvalsh(h)
    return _split_eigenvalues(h, n, classical)


def _classical_qubits(h: np.ndarray, n: int) -> list[int]:
    """The qubits in which ``h`` has no off-diagonal block: exactly zero, no
    tolerance.  ``h`` is exactly Hermitian, so its ``[1, 0]`` block in a
    qubit is the adjoint of its ``[0, 1]`` block and testing one tests both.

    The entries ``h[i, i ^ bit]`` lie in those blocks; one gather of them
    rules out most quantum qubits at ``O(n 2**n)`` before any block scan."""
    bits = 1 << np.arange(n - 1, -1, -1)  # qubit q is bit n - 1 - q of an index
    rows = np.arange(2**n)[:, None]
    maybe = ~(h[rows, rows ^ bits] != 0).any(axis=0)
    classical = []
    for q in np.flatnonzero(maybe).tolist():
        blocks = h.reshape(2**q, 2, 2 ** (n - 1 - q), 2**q, 2, 2 ** (n - 1 - q))
        if not blocks[:, 0, :, :, 1, :].any():
            classical.append(q)
    return classical


def _split_eigenvalues(h: np.ndarray, n: int, classical: list[int]) -> np.ndarray:
    """Eigenvalues of ``h`` from its ``2**m`` diagonal blocks over ``m``
    classical qubits, ascending.

    A permutation of the basis puts the classical bits first, which makes
    ``h`` block-diagonal with one block per classical bit string; the
    spectrum is the union of the blocks' spectra.  The blocks are read
    through one strided view of ``h``, never a permuted copy of it; blocks
    with no off-diagonal entry give their diagonal, the rest go to one
    batched ``eigvalsh``.
    """
    quantum = [q for q in range(n) if q not in classical]
    row, col = h.strides
    step = [2 ** (n - 1 - q) for q in range(n)]
    blocks = np.lib.stride_tricks.as_strided(
        h,
        shape=(2,) * (len(classical) + 2 * len(quantum)),
        strides=[step[q] * (row + col) for q in classical]
        + [step[q] * row for q in quantum]
        + [step[q] * col for q in quantum],
        writeable=False,
    )
    side = 2 ** len(quantum)
    # a view unless a classical qubit sits between quantum ones: then one
    # gather of 2**-m of the matrix
    blocks = blocks.reshape(2 ** len(classical), side, side)
    coupled = blocks != 0
    coupled[:, np.arange(side), np.arange(side)] = False
    solve = coupled.any(axis=(1, 2))
    if solve.all():
        ev = np.linalg.eigvalsh(blocks)
    else:
        ev = np.diagonal(blocks, axis1=1, axis2=2).real.copy()
        if solve.any():
            ev[solve] = np.linalg.eigvalsh(blocks[solve])
    return np.sort(ev, axis=None)


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Half the trace norm of ``rho - sigma``: the best distinguishing advantage.

    The eigensolve splits over the qubits in which ``rho - sigma`` has no
    off-diagonal block, such as a qubit both states hold measured or freshly
    prepared, as :func:`hermitian_eigenvalues` describes.
    """
    if rho.qubits != sigma.qubits:
        raise ValueError(
            f"qubit count mismatch: {rho.qubits} vs {sigma.qubits}"
        )
    ev = hermitian_eigenvalues(rho.mat - sigma.mat)
    return 0.5 * float(np.sum(np.abs(ev)))


def _check_perm(perm: Sequence[int]) -> tuple[int, ...]:
    p = tuple(int(x) for x in perm)
    if sorted(p) != list(range(len(p))):
        raise ValueError(f"{p} is not a permutation of 0..{len(p) - 1}")
    return p


def permute_matrix(mat: np.ndarray, perm: Sequence[int]) -> np.ndarray:
    """Conjugate by the qubit permutation unitary, as one fresh strided copy."""
    p = list(_check_perm(perm))
    n = len(p)
    t = np.asarray(mat).reshape((2,) * (2 * n)).transpose(p + [n + q for q in p])
    return t.copy().reshape(np.shape(mat))


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
