"""Reference implementations that only the tests use: states from bare
matrices, the density-matrix validator and the capped Kronecker product,
the matrix partial trace, qubit permutation and trace distance that the
library's coefficient slices are checked against, explicit matrices the
library's strided kernels are checked against, assembled channels, the
one-qubit affine depolarizer, the Kraus-sum channel application and the
Pauli-form depolarizer its kernels and affine noise round are checked
against, the full subset enumeration its pruned one is checked against,
the serial level loop its threaded report is checked against, the padded
circuit and the schedule with a noise round at each end that its run is
checked against, circuits of the benchmark's gate mix with the dense
worthlessness verdicts the block-split trace distances are checked against,
the one-step recursion bounds the profiles are checked against, and a
trajectory writer."""

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from decolab.analysis import MaxProfile, max_profile
from decolab.channels import GATES, QuantumChannel, depolarize_all
from decolab.circuit import (
    Circuit,
    CircuitLayer,
    Trajectory,
    apply_layer,
    format_complex,
    parse_circuit,
    run_noisy,
)
from decolab.config import HARD_MAX_QUBITS, HERM_TOL, ResourceLimitError
from decolab.linalg import (
    DensityMatrix,
    _as_square,
    _qubits_for_dim,
    haar_unitary,
)

#: assembled channels refuse to materialize more Kraus terms than this
KRAUS_TERM_CAP = 256

#: state tolerances of :func:`validate_density`, beside ``HERM_TOL``
TRACE_TOL = 1e-9
PSD_TOL = 1e-8


def from_matrix(mat: np.ndarray) -> DensityMatrix:
    """A state from its matrix, the qubit count read off the dimension."""
    m = np.asarray(mat, dtype=np.complex128)
    return DensityMatrix(_qubits_for_dim(m.shape[0]), m)


@dataclass(frozen=True)
class ValidationReport:
    """Violated invariants with their measured residuals; empty means valid."""

    violations: tuple[tuple[str, float], ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def residual(self, name: str) -> float | None:
        for key, value in self.violations:
            if key == name:
                return value
        return None


def hermitian_part(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().T) / 2


def validate_density(m: np.ndarray) -> ValidationReport:
    """Check the density-matrix invariants; violations come back as data.

    Residuals: ``hermitian`` is the largest entry of ``m - m^dagger``,
    ``trace`` is ``|tr(m) - 1|``, ``psd`` is how far the lowest eigenvalue
    dips below zero.  A non-finite entry raises ``ArithmeticError``: its
    residual is not finite, and NaN would pass every comparison below.
    """
    m = _as_square(m, "density matrix candidate")
    violations: list[tuple[str, float]] = []
    with np.errstate(invalid="ignore"):  # a non-finite residual raises below
        herm_res = float(np.max(np.abs(m - m.conj().T)))
    if not math.isfinite(herm_res):
        raise ArithmeticError("density matrix candidate has a non-finite entry")
    if herm_res > HERM_TOL:
        violations.append(("hermitian", herm_res))
    trace_res = float(abs(np.trace(m) - 1.0))
    if trace_res > TRACE_TOL:
        violations.append(("trace", trace_res))
    min_eig = float(np.linalg.eigvalsh(hermitian_part(m))[0])
    if min_eig < -PSD_TOL:
        violations.append(("psd", -min_eig))
    return ValidationReport(tuple(violations))


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the desk-scale dimension cap enforced.

    The left factor owns the more significant qubits.
    """
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    out_rows = a.shape[0] * b.shape[0]
    out_cols = (a.shape[1] if a.ndim == 2 else 1) * (b.shape[1] if b.ndim == 2 else 1)
    cap = 2**HARD_MAX_QUBITS
    if max(out_rows, out_cols) > cap:
        raise ResourceLimitError(
            f"tensor result {out_rows}x{out_cols} exceeds the {cap} dimension cap"
        )
    return np.kron(a, b)


def tensor_all(mats: Sequence[np.ndarray]) -> np.ndarray:
    if not mats:
        return np.ones((1, 1), dtype=np.complex128)
    out = np.asarray(mats[0], dtype=np.complex128)
    for m in mats[1:]:
        out = tensor(out, m)
    return out


def dense_partial_trace(mat: np.ndarray, keep: Sequence[int]) -> np.ndarray:
    """The matrix partial trace onto the strictly increasing ``keep``, one
    traced qubit at a time, the last first."""
    n = _qubits_for_dim(len(mat))
    t = np.asarray(mat).reshape((2,) * (2 * n))
    for q in reversed(range(n)):
        if q not in keep:
            t = np.trace(t, axis1=q, axis2=q + t.ndim // 2)
    return t.reshape(2 ** len(keep), 2 ** len(keep))


def dense_trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Half the trace norm of ``rho - sigma`` by one ``eigvalsh`` of the
    whole matrix difference."""
    return 0.5 * float(np.abs(np.linalg.eigvalsh(rho.mat - sigma.mat)).sum())


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


def permutation_unitary(perm: Sequence[int]) -> np.ndarray:
    """Explicit unitary ``P`` with ``P rho P^dagger = permute_qubits(rho, perm)``,
    built as the basis-index gather ``new j = old perm[j]``."""
    p = _check_perm(perm)
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
    mats = [s.mat for s in states]
    for size in range(1, qubits + 1):
        for keep in itertools.combinations(range(qubits), size):
            red = np.stack([dense_partial_trace(m, keep) for m in mats])
            ev = np.linalg.eigvalsh(red[iu] - red[ju])
            np.maximum(per_size[:, size], 0.5 * np.abs(ev).sum(axis=-1), out=per_size[:, size])
    return np.maximum.accumulate(per_size, axis=1)


def serial_level_profiles(
    circuit: Circuit, eta: float, probes: Sequence[DensityMatrix]
) -> list[MaxProfile]:
    """``max_profile`` of every level of ``distance_report``'s trajectories,
    one level after another in the calling thread."""
    trajectories = [run_noisy(circuit, eta, p) for p in probes]
    return [
        max_profile([t.levels[level] for t in trajectories]) for level in range(circuit.depth + 1)
    ]


def padded(circuit: Circuit) -> Circuit:
    """``circuit`` with an empty ``layer`` block, as the parser builds it
    (identity wires), before its first layer and after its last."""

    def empty(width: int) -> CircuitLayer:
        return parse_circuit(f"k 1\nwidth {width}\nlayer\n").layers[0]

    layers = (empty(circuit.in_width), *circuit.layers, empty(circuit.widths[-1]))
    return Circuit(circuit.k, circuit.in_width, layers)


def extra_round_levels(
    circuit: Circuit, eta: float, rho0: DensityMatrix
) -> tuple[DensityMatrix, ...]:
    """The levels of the schedule with a noise round before every layer and
    one after the last (none at depth 0): the one ``run_noisy`` gives on
    :func:`padded` circuits, where this level ``L < depth`` is the padded
    level ``L + 1`` and the final level is the padded level ``depth + 2``."""
    levels = [rho0]
    for layer in circuit.layers:
        levels.append(apply_layer(layer, depolarize_all(levels[-1], eta)))
    if circuit.depth:
        levels[-1] = depolarize_all(levels[-1], eta)
    return tuple(levels)


def mixed_circuit(
    rng: np.random.Generator, width: int, depth: int, last: Sequence[str] = ()
) -> Circuit:
    """A width-preserving ``k = 2`` circuit of the benchmark's mix: Haar
    unitaries on one or two qubits, ``DEPHASE``, and ``TRACEOUT``/``PREP0``
    refresh pairs.

    With ``last`` (kinds among ``"DEPHASE"`` and ``"REFRESH"``), the final
    layer measures or refreshes a random non-empty set of qubits, the kinds
    taken in turn, and puts unitaries on the rest; every qubit it measures
    or refreshes is classical in the outputs.
    """
    lines = ["k 2", f"width {width}"]

    def place(kind: str, wires: list[int]) -> None:
        names = ",".join(str(q) for q in wires)
        if kind == "DEPHASE":
            lines.append(f"gate DEPHASE [{names}] -> [{names}]")
        elif kind == "REFRESH":
            lines.append(f"gate TRACEOUT [{names}] -> []")
            lines.append(f"gate PREP0 [] -> [{names}]")
        else:
            entries = " ".join(format_complex(z) for z in haar_unitary(len(wires), rng).flat)
            lines.append(f"unitary {entries} [{names}] -> [{names}]")

    for layer in range(depth):
        lines.append("layer")
        remaining = [int(q) for q in rng.permutation(width)]
        final = layer == depth - 1 and bool(last)
        if final:
            classical = remaining[: int(rng.integers(1, width + 1))]
            remaining = remaining[len(classical) :]
            for i, q in enumerate(classical):
                place(last[i % len(last)], [q])
        while remaining:
            size = int(rng.integers(1, min(2, len(remaining)) + 1))
            block, remaining = sorted(remaining[:size]), remaining[size:]
            kind = rng.random() if size == 1 and not final else 0.0
            place("UNITARY" if kind < 0.4 else "DEPHASE" if kind < 0.7 else "REFRESH", block)
    return parse_circuit("\n".join(lines) + "\n")


def dense_verdicts(
    circuit: Circuit, eta: float, probes: Sequence[DensityMatrix]
) -> tuple[float, float]:
    """The largest output distance over probe pairs and the largest from the
    maximally mixed state, each pair by one ``eigvalsh`` of the whole
    difference: the values ``practically_worthless`` and ``worthless``
    return."""
    finals = [run_noisy(circuit, eta, p).levels[-1] for p in probes]
    mixed = from_matrix(np.eye(2 ** finals[0].qubits) / 2 ** finals[0].qubits)
    pairs = itertools.combinations(finals, 2)
    pairwise = max((dense_trace_distance(a, b) for a, b in pairs), default=0.0)
    return pairwise, max(dense_trace_distance(f, mixed) for f in finals)


def identity_channel(qubits: int) -> QuantumChannel:
    return QuantumChannel(
        qubits, qubits, (np.eye(2**qubits, dtype=np.complex128),), label="I" * max(qubits, 1)
    )


def channel_apply(t: QuantumChannel, rho: DensityMatrix) -> DensityMatrix:
    """Apply the channel to a whole register (``rho.qubits == t.in_qubits``)
    as the explicit Kraus sum ``sum K rho K^dagger``."""
    if rho.qubits != t.in_qubits:
        raise ValueError(
            f"channel expects {t.in_qubits} qubits, state has {rho.qubits}"
        )
    dim_out = 2**t.out_qubits
    out = np.zeros((dim_out, dim_out), dtype=np.complex128)
    for k in t.kraus:
        out += k @ rho.mat @ k.conj().T
    return DensityMatrix(t.out_qubits, hermitian_part(out))


def channel_tensor(parts: Sequence[QuantumChannel], label: str = "") -> QuantumChannel:
    """Combine channels acting on disjoint registers into one channel.

    The Kraus set is every tensor combination of the parts' operators, so the
    term count multiplies; assemblies beyond :data:`KRAUS_TERM_CAP` terms or
    ``HARD_MAX_QUBITS`` qubits are refused.
    """
    if not parts:
        raise ValueError("channel_tensor needs at least one part")
    terms = math.prod(len(p.kraus) for p in parts)
    if terms > KRAUS_TERM_CAP:
        raise ResourceLimitError(
            f"assembled channel would need {terms} Kraus terms (cap {KRAUS_TERM_CAP})"
        )
    in_qubits = sum(p.in_qubits for p in parts)
    out_qubits = sum(p.out_qubits for p in parts)
    if max(in_qubits, out_qubits) > HARD_MAX_QUBITS:
        raise ResourceLimitError(
            f"assembled channel spans {max(in_qubits, out_qubits)} qubits "
            f"(cap {HARD_MAX_QUBITS})"
        )
    kraus = [tensor_all(combo) for combo in itertools.product(*(p.kraus for p in parts))]
    return QuantumChannel(in_qubits, out_qubits, tuple(kraus), label=label)


def depolarize_qubit(rho: DensityMatrix, q: int, eta: float) -> DensityMatrix:
    """Depolarize one qubit: with probability ``eta`` replace it by I/2.

    The affine form ``(1-eta) rho + eta (tr_q rho) (x) I/2``, assembled from
    the partial trace and a Kronecker product with the fresh factor moved
    back to position ``q``, independent of the library's in-place kernel.
    """
    if not 0 <= q < rho.qubits:
        raise ValueError(f"qubit {q} out of range for {rho.qubits}-qubit state")
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    n = rho.qubits
    rest = dense_partial_trace(rho.mat, [p for p in range(n) if p != q])
    fresh = permute_matrix(np.kron(rest, np.eye(2) / 2), [*range(q), n - 1, *range(q, n - 1)])
    return DensityMatrix(n, (1.0 - eta) * rho.mat + eta * fresh)


def depolarizing_kraus_channel(eta: float) -> QuantumChannel:
    """Single-qubit depolarizer in four-operator Pauli form, the independent
    route to the affine ``depolarize_qubit``."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    i, x, y, z = (GATES[name].kraus[0] for name in "IXYZ")
    weak = math.sqrt(eta / 4.0)
    return QuantumChannel(
        1, 1, (math.sqrt(1.0 - 3.0 * eta / 4.0) * i, weak * x, weak * y, weak * z),
        label=f"DEPOL({eta})",
    )


def recursion_step_bound(
    prev_profile: Sequence[float], k: int, eta: float, n: int
) -> float:
    """One noisy step: mix the previous level's profile binomially.

    Evaluates ``sum_m C(kn, m) eta^(kn-m) (1-eta)^m d_m`` where ``d_m`` is the
    previous level's distance profile, saturated at full register size.
    """
    last = len(prev_profile) - 1
    kn = k * n
    total = 0.0
    for m in range(kn + 1):
        w = math.comb(kn, m) * eta ** (kn - m) * (1.0 - eta) ** m
        if w:
            total += w * prev_profile[min(m, last)]
    return total


def gate_only_step_bound(prev_profile: Sequence[float], k: int, n: int) -> float:
    """One noiseless step: ``n`` output qubits depend on at most ``kn`` inputs."""
    last = len(prev_profile) - 1
    return prev_profile[min(k * n, last)]


def export_trajectory(traj: Trajectory, csv_path: str, states_path: str | None = None) -> None:
    """Write the per-level summary CSV (columns ``level,n_i``) and, optionally,
    one line per level with the state's row-major entries in full-precision
    ``a+bi`` form."""
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("level,n_i\n")
        for i, level in enumerate(traj.levels):
            fh.write(f"{i},{level.qubits}\n")
    if states_path is not None:
        with open(states_path, "w", encoding="utf-8", newline="\n") as fh:
            for level in traj.levels:
                fh.write(" ".join(format_complex(z) for z in level.mat.flat))
                fh.write("\n")
