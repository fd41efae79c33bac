"""Quantum operations in Kraus form and the depolarizing noise model.

A channel maps ``in_qubits`` to ``out_qubits`` via ``rho -> sum_j K_j rho
K_j^dagger`` with ``sum_j K_j^dagger K_j = I``; Kraus operators are stored
as ``2**out x 2**in`` matrices.  Fan-in-0 preparations and fan-out-0
trace-outs are ordinary channels here, so registers may grow and shrink.

Depolarization itself is applied in its affine form
``(1-eta) rho + eta tr(rho) I/dim`` one qubit at a time, which preserves the
trace exactly and never inflates a Kraus set: a noise round updates one
copy of the state in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import UNITARY_TOL
from .linalg import DensityMatrix, _qubits_for_dim

__all__ = [
    "GATES",
    "QuantumChannel",
    "channel_from_unitary",
    "channel_validate",
    "depolarize_all",
    "random_channel",
]


@dataclass(frozen=True, repr=False)
class QuantumChannel:
    """A CPTP map given by its Kraus operators.

    Complete positivity is automatic in this representation; the one thing
    worth checking numerically is trace preservation, see
    :func:`channel_validate`.
    """

    in_qubits: int
    out_qubits: int
    kraus: tuple[np.ndarray, ...]
    label: str = ""

    def __post_init__(self) -> None:
        if not self.kraus:
            raise ValueError("a channel needs at least one Kraus operator")
        rows, cols = 2**self.out_qubits, 2**self.in_qubits
        ops = []
        for op in self.kraus:
            arr = np.asarray(op, dtype=np.complex128)
            if arr.shape != (rows, cols):
                raise ValueError(
                    f"Kraus operator shape {arr.shape} != ({rows}, {cols})"
                )
            arr = arr.copy()
            arr.setflags(write=False)
            ops.append(arr)
        object.__setattr__(self, "kraus", tuple(ops))

    def __repr__(self) -> str:
        name = self.label or "channel"
        return (
            f"QuantumChannel({name!r}, in={self.in_qubits}, out={self.out_qubits}, "
            f"terms={len(self.kraus)})"
        )


def channel_from_unitary(u: np.ndarray, label: str = "") -> QuantumChannel:
    """Wrap a unitary as the single-Kraus channel ``rho -> U rho U^dagger``."""
    u = np.asarray(u, dtype=np.complex128)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"unitary must be square, got {u.shape}")
    n = _qubits_for_dim(u.shape[0])
    if not np.isfinite(u).all():  # a NaN residual would pass the check below
        raise ValueError("unitary has a non-finite entry")
    residual = float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))
    if residual > UNITARY_TOL:
        raise ValueError(f"matrix is not unitary (residual {residual:.3e})")
    return QuantumChannel(n, n, (u,), label=label)


_KET0 = np.array([[1.0], [0.0]], dtype=np.complex128)
_KET1 = np.array([[0.0], [1.0]], dtype=np.complex128)
_KETP = np.array([[1.0], [1.0]], dtype=np.complex128) / math.sqrt(2)

_PREP_STATES = {"PREP0": _KET0, "PREP1": _KET1, "PREP_PLUS": _KETP}


def channel_validate(t: QuantumChannel) -> float:
    """Kraus completeness residual: the largest entry of ``sum K^dagger K - I``.

    A non-finite Kraus entry raises ``ArithmeticError``: its residual is not
    finite, and NaN would pass any comparison with a tolerance.
    """
    dim_in = 2**t.in_qubits
    acc = np.zeros((dim_in, dim_in), dtype=np.complex128)
    with np.errstate(invalid="ignore"):  # a non-finite residual raises below
        for k in t.kraus:
            acc += k.conj().T @ k
        residual = float(np.max(np.abs(acc - np.eye(dim_in))))
    if not math.isfinite(residual):
        raise ArithmeticError(f"channel {t.label or '?'} has a non-finite Kraus entry")
    return residual


def depolarize_all(rho: DensityMatrix, eta: float) -> DensityMatrix:
    """One noise round: independent depolarization of every qubit, in place
    on one copy of the input.  Single-qubit depolarizers on distinct qubits
    commute, so the sweep order is irrelevant (and property-tested).

    Qubit ``q`` is depolarized on the view ``(2**q, 2, 2**(n-q-1))`` of rows
    and columns: every entry scales by ``1 - eta`` and the diagonal blocks of
    ``q`` gain ``eta/2`` times their sum.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    buf = rho.mat.copy()
    for q in range(rho.qubits):
        v = buf.reshape((2**q, 2, 2 ** (rho.qubits - q - 1)) * 2)
        d0, d1 = v[:, 0, :, :, 0, :], v[:, 1, :, :, 1, :]
        fresh = d0 + d1
        fresh *= eta / 2.0
        buf *= 1.0 - eta
        d0 += fresh
        d1 += fresh
    return DensityMatrix._adopt(rho.qubits, buf)


def random_channel(
    in_qubits: int,
    out_qubits: int,
    terms: int,
    rng: np.random.Generator,
) -> QuantumChannel:
    """Random CPTP map via a Haar-ish Stinespring isometry.

    Needs ``terms * 2**out_qubits >= 2**in_qubits`` so the isometry exists.
    """
    din, dout = 2**in_qubits, 2**out_qubits
    if terms * dout < din:
        raise ValueError("not enough Kraus terms for an isometry of this shape")
    a = rng.standard_normal((terms * dout, din)) + 1j * rng.standard_normal(
        (terms * dout, din)
    )
    q, _ = np.linalg.qr(a)
    kraus = tuple(q[j * dout : (j + 1) * dout, :] for j in range(terms))
    return QuantumChannel(in_qubits, out_qubits, kraus, label="RANDOM")


_PAULI = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}

_H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2)
_S = np.diag([1.0, 1j]).astype(np.complex128)
_T = np.diag([1.0, np.exp(1j * math.pi / 4)]).astype(np.complex128)

# two-qubit gates with qubit 0 as the more significant (left) factor
_CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=np.complex128
)
_CZ = np.diag([1.0, 1.0, 1.0, -1.0]).astype(np.complex128)
_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=np.complex128
)
_TOFFOLI = np.eye(8, dtype=np.complex128)
_TOFFOLI[[6, 7], :] = _TOFFOLI[[7, 6], :]


def _library() -> dict[str, QuantumChannel]:
    lib = {
        name: channel_from_unitary(_PAULI[name], label=name) for name in "IXYZ"
    }
    lib["H"] = channel_from_unitary(_H, label="H")
    lib["S"] = channel_from_unitary(_S, label="S")
    lib["T"] = channel_from_unitary(_T, label="T")
    lib["CNOT"] = channel_from_unitary(_CNOT, label="CNOT")
    lib["CZ"] = channel_from_unitary(_CZ, label="CZ")
    lib["SWAP"] = channel_from_unitary(_SWAP, label="SWAP")
    lib["TOFFOLI"] = channel_from_unitary(_TOFFOLI, label="TOFFOLI")
    # fan-in-0 gates adjoining one fresh qubit in a named pure state
    for name, ket in _PREP_STATES.items():
        lib[name] = QuantumChannel(0, 1, (ket,), label=name)
    # trace-out discards its qubit; measurement-as-a-gate keeps the register
    # but kills the coherences, so everything stays inside the channel picture
    lib["TRACEOUT"] = QuantumChannel(
        1, 0, (_KET0.conj().T, _KET1.conj().T), label="TRACEOUT"
    )
    lib["DEPHASE"] = QuantumChannel(
        1, 1, (_KET0 @ _KET0.conj().T, _KET1 @ _KET1.conj().T), label="DEPHASE"
    )
    return lib


#: named gate library; keys are the exact, case-sensitive circuit-file names
GATES: dict[str, QuantumChannel] = _library()
