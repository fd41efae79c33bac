"""Reference implementations that only the tests use: explicit matrices the
library's strided kernels are checked against."""

from typing import Sequence

import numpy as np

from decolab.linalg import DensityMatrix, permute_matrix, tensor


def tensor_all(mats: Sequence[np.ndarray]) -> np.ndarray:
    if not mats:
        return np.ones((1, 1), dtype=np.complex128)
    out = np.asarray(mats[0], dtype=np.complex128)
    for m in mats[1:]:
        out = tensor(out, m)
    return out


def permutation_unitary(perm: Sequence[int]) -> np.ndarray:
    """Explicit unitary ``P`` with ``P rho P^dagger = permute_qubits(rho, perm)``,
    built as the basis-index gather ``new j = old perm[j]``."""
    p = tuple(int(x) for x in perm)
    if sorted(p) != list(range(len(p))):
        raise ValueError(f"{p} is not a permutation of 0..{len(p) - 1}")
    n = len(p)
    ar = np.arange(1 << n)
    src = np.zeros(1 << n, dtype=np.intp)
    for j, q in enumerate(p):
        src |= ((ar >> (n - 1 - j)) & 1) << (n - 1 - q)
    u = np.zeros((1 << n, 1 << n), dtype=np.complex128)
    u[ar, src] = 1.0
    return u


def permute_qubits(rho: DensityMatrix, perm: Sequence[int]) -> DensityMatrix:
    """Relabel qubits so the result's qubit ``j`` is the input's ``perm[j]``."""
    if len(perm) != rho.qubits:
        raise ValueError("permutation length must equal the qubit count")
    return DensityMatrix(rho.qubits, permute_matrix(rho.mat, perm))
