"""Dense complex linear algebra for qubit registers.

States are density matrices (Hermitian, PSD, trace 1) stored dense; qubit 0
is the most significant tensor factor, so basis index ``b`` encodes the bit
string ``b_0 b_1 ... b_{n-1}`` read left to right.  All functions are pure
and all values are treated as immutable (matrix buffers are write-locked).
"""

from __future__ import annotations

import ctypes
import math
import os
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .config import BLAS_THREADS, BLAS_THREADS_ENV, HERM_TOL, TRACE_RENORM_LIMIT

__all__ = [
    "DensityMatrix",
    "batched_partial_trace",
    "check_subset",
    "haar_unitary",
    "hermitian_eigenvalues",
    "limit_blas_threads",
    "partial_trace",
    "random_density",
    "random_pure_state",
    "settle",
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


def _frozen(m: np.ndarray) -> np.ndarray:
    out = np.array(m, dtype=np.complex128)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, repr=False)
class DensityMatrix:
    """An ``n``-qubit mixed state: Hermitian, PSD, trace-1 matrix of dim ``2**n``.

    The zero-qubit state is the 1x1 matrix ``[[1]]`` (a scalar register),
    which is what fan-in-0 preparation gates consume.
    """

    qubits: int
    mat: np.ndarray

    def __post_init__(self) -> None:
        m = _as_square(self.mat, "state matrix")
        if self.qubits < 0 or m.shape[0] != 2**self.qubits:
            raise ValueError(
                f"state with {self.qubits} qubits needs dim {2**max(self.qubits, 0)}, "
                f"got {m.shape[0]}"
            )
        object.__setattr__(self, "mat", _frozen(m))

    def __repr__(self) -> str:  # matrices are noise in tracebacks
        return f"DensityMatrix(qubits={self.qubits})"

    @classmethod
    def _adopt(cls, qubits: int, buf: np.ndarray) -> "DensityMatrix":
        """Write-lock a buffer its caller just allocated and never writes again."""
        if buf.dtype != np.complex128 or buf.shape != (2**qubits,) * 2 or not buf.flags.owndata:
            raise ValueError(f"cannot adopt a {buf.dtype} {buf.shape} buffer as {qubits} qubits")
        buf.setflags(write=False)
        state = object.__new__(cls)
        vars(state).update(qubits=qubits, mat=buf)  # frozen: bypass __setattr__
        return state

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


def settle(mat: np.ndarray) -> np.ndarray:
    """Damp floating-point drift after a channel application.

    Re-symmetrizes to the Hermitian part and renormalizes the trace, but only
    if the drift is small (|trace - 1| <= 1e-6); larger drift or a non-finite
    trace signals a real bug and raises instead of being masked.  Returns a
    fresh array.
    """
    m = np.asarray(mat, dtype=np.complex128)
    tr = float(np.trace(m).real)  # the Hermitian part has the same real diagonal
    if not abs(tr - 1.0) <= TRACE_RENORM_LIMIT:  # a NaN trace fails this too
        raise ArithmeticError(f"state trace drifted to {tr!r}; refusing to renormalize")
    # a fresh buffer, never np.ascontiguousarray(m.T): that may be a view of m
    out = np.conjugate(m.T, out=np.empty(m.shape, dtype=np.complex128))
    out += m
    out *= 0.5
    out /= tr
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
