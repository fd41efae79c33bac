"""Reference implementations that only the tests use: explicit matrices the
library's strided kernels are checked against, the full subset enumeration
its pruned one is checked against, and the serial level loop its threaded
report is checked against."""

import itertools
from typing import Sequence

import numpy as np

from decolab.analysis import MaxProfile, _batched_reduce, max_profile
from decolab.circuit import Circuit, run_noisy
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


def full_enumeration_profiles(states: Sequence[DensityMatrix]) -> np.ndarray:
    """``pairwise_profiles`` by visiting every subset for every pair, sizes
    ascending: one eigensolve per pair and non-empty subset."""
    if not states:
        return np.zeros((0, 1))
    qubits = states[0].qubits
    iu, ju = np.triu_indices(len(states), 1)
    per_size = np.zeros((iu.size, qubits + 1))
    if iu.size == 0:
        return per_size
    stack = np.stack([s.mat for s in states])
    for size in range(1, qubits + 1):
        for keep in itertools.combinations(range(qubits), size):
            red = _batched_reduce(stack, qubits, keep)
            ev = np.linalg.eigvalsh(red[iu] - red[ju])
            np.maximum(per_size[:, size], 0.5 * np.abs(ev).sum(axis=-1), out=per_size[:, size])
    return np.maximum.accumulate(per_size, axis=1)


def serial_level_profiles(
    circuit: Circuit,
    eta: float,
    probes: Sequence[DensityMatrix],
    extra_noise_round: bool = False,
) -> list[MaxProfile]:
    """``max_profile`` of every level of ``distance_report``'s trajectories,
    one level after another in the calling thread."""
    trajectories = [run_noisy(circuit, eta, p, extra_noise_round=extra_noise_round) for p in probes]
    return [
        max_profile([t.levels[level] for t in trajectories]) for level in range(circuit.depth + 1)
    ]
