"""Layered circuits over partition-respecting gates, plus a text format.

A circuit is a chain of layers; layer ``i`` maps an ``n_i``-qubit register to
an ``n_{i+1}``-qubit one.  Within a layer the gate input sets partition
``[n_i]`` exactly and the output sets partition ``[n_{i+1}]`` exactly, so a
layer is one big tensor product of channels.  Noisy execution interlaces a
round of per-qubit depolarization strictly *between* layers: the first layer
acts on the pristine input and no noise follows the last layer.

Text format (line oriented, ``#`` comments)::

    k 2
    width 2
    layer
    gate H [0] -> [0]
    layer width 3
    gate PREP0 [] -> [2]
    gate CNOT [0,1] -> [0,1]
    layer
    unitary 1+0i 0+0i 0+0i 1+0i [1] -> [1]

The header declares the maximum fan-in ``k`` and the input width ``n_0``.
``layer`` opens a block (output width defaults to the current width); each
gate names a library channel or spells out a unitary row-major with ``a+bi``
entries.  Qubits left unmentioned in a width-preserving layer get implicit
identity wires; width-changing layers must account for every index
explicitly.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .channels import GATES, QuantumChannel, channel_from_unitary, depolarize_all
from .config import ResourceLimitError, max_qubits
from .linalg import DensityMatrix, haar_unitary, permute_matrix, settle

__all__ = [
    "Circuit",
    "CircuitError",
    "CircuitParseError",
    "CircuitLayer",
    "PlacedGate",
    "Trajectory",
    "apply_layer",
    "format_complex",
    "parse_circuit",
    "parse_circuit_file",
    "random_circuit",
    "run_noisy",
    "serialize_circuit",
]


class CircuitError(ValueError):
    """A structural problem with a circuit (bad partition, widths, fan-in)."""


class CircuitParseError(CircuitError):
    """Malformed circuit text; carries the 1-based source line."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True, eq=False)
class PlacedGate:
    """A channel wired to explicit input and output qubit indices."""

    channel: QuantumChannel
    inputs: tuple[int, ...]
    outputs: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "inputs", tuple(int(i) for i in self.inputs))
        object.__setattr__(self, "outputs", tuple(int(i) for i in self.outputs))
        if len(self.inputs) != self.channel.in_qubits:
            raise CircuitError(
                f"gate {self.channel.label or '?'} takes {self.channel.in_qubits} "
                f"qubits but is wired to inputs {self.inputs}"
            )
        if len(self.outputs) != self.channel.out_qubits:
            raise CircuitError(
                f"gate {self.channel.label or '?'} emits {self.channel.out_qubits} "
                f"qubits but is wired to outputs {self.outputs}"
            )


def _check_partition(sets: Iterable[tuple[int, ...]], width: int, what: str) -> None:
    """Strictly increasing index lists that cover ``range(width)`` once."""
    seen: set[int] = set()
    for s in sets:
        if any(a >= b for a, b in zip(s, s[1:])):
            raise CircuitError(f"{what} subset {s} must be strictly increasing")
        for q in s:
            if not 0 <= q < width:
                raise CircuitError(f"{what} index {q} out of range for width {width}")
            if q in seen:
                raise CircuitError(f"{what} qubit {q} is claimed by two gates")
            seen.add(q)
    missing = [q for q in range(width) if q not in seen]
    if missing:
        raise CircuitError(f"{what} qubit(s) {missing} are not covered by any gate")


#: largest side of a fused group of single-Kraus gates.  One row matmul
#: over the whole matrix costs about the same for any small factor (width 9,
#: one BLAS thread, x86_64: 0.53 ms for d = 2, 0.62 ms for d = 4, 0.72 ms
#: for d = 8), so merging neighbouring gates into one Kronecker product saves
#: whole passes; d = 16 took 1.04 ms and gained nothing measurable per layer
_FUSE_MAX_SIDE = 8


@dataclass(frozen=True, eq=False)
class _LayerPlan:
    """What :func:`apply_layer` needs of a layer, compiled once.

    ``in_perm`` lists the input qubits in block order and ``out_perm`` is
    the permutation back from the output block order.  ``supers`` holds each
    multi-Kraus gate as ``(din, dout, blocks)``, where ``blocks`` lists per
    output block ``(o, p)`` the nonzero entries ``(a, b, S[o, p, a, b])`` of
    ``S = sum K (x) conj(K)``.  ``groups`` are the single-Kraus gates fused
    into Kronecker products of side at most ``_FUSE_MAX_SIDE``.
    """

    in_perm: tuple[int, ...]
    out_perm: tuple[int, ...]
    supers: tuple[tuple[int, int, tuple], ...]
    groups: tuple[np.ndarray, ...]
    conj_groups: tuple[np.ndarray, ...]


def _superoperator_blocks(kraus: Sequence[np.ndarray]) -> tuple:
    dout, din = kraus[0].shape
    s = sum(np.kron(k, k.conj()) for k in kraus).reshape(dout, dout, din, din)
    return tuple(
        (o, p, tuple((a, b, complex(s[o, p, a, b])) for a, b in np.argwhere(s[o, p]).tolist()))
        for o in range(dout)
        for p in range(dout)
    )


def _compile_layer(layer: CircuitLayer) -> _LayerPlan:
    gates = sorted(
        layer.gates, key=lambda g: (len(g.channel.kraus) == 1, len(g.outputs) - len(g.inputs))
    )
    supers = tuple(
        (2**g.channel.in_qubits, 2**g.channel.out_qubits, _superoperator_blocks(g.channel.kraus))
        for g in gates
        if len(g.channel.kraus) > 1
    )
    groups: list[np.ndarray] = []
    for g in gates[len(supers) :]:
        k = g.channel.kraus[0]
        if groups and max(a * b for a, b in zip(groups[-1].shape, k.shape)) <= _FUSE_MAX_SIDE:
            groups[-1] = np.kron(groups[-1], k)
        else:
            groups.append(k)
    return _LayerPlan(
        in_perm=tuple(q for g in gates for q in g.inputs),
        out_perm=tuple(np.argsort([q for g in gates for q in g.outputs]).tolist()),
        supers=supers,
        groups=tuple(groups),
        conj_groups=tuple(k.conj() for k in groups),
    )


@dataclass(frozen=True, eq=False)
class CircuitLayer:
    in_width: int
    out_width: int
    gates: tuple[PlacedGate, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "gates", tuple(self.gates))
        _check_partition((g.inputs for g in self.gates), self.in_width, "input")
        _check_partition((g.outputs for g in self.gates), self.out_width, "output")

    @cached_property
    def _plan(self) -> _LayerPlan:
        # first use compiles; a frozen dataclass still has a __dict__ to cache in
        return _compile_layer(self)


@dataclass(frozen=True, eq=False)
class Circuit:
    """A depth-``t`` circuit: widths ``n_0 .. n_t`` chained through layers."""

    k: int
    in_width: int
    layers: tuple[CircuitLayer, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "layers", tuple(self.layers))
        if self.k < 1:
            raise CircuitError(f"fan-in bound k must be >= 1, got {self.k}")
        width = self.in_width
        for i, layer in enumerate(self.layers):
            if layer.in_width != width:
                raise CircuitError(
                    f"layer {i} expects width {layer.in_width} but receives {width}"
                )
            for g in layer.gates:
                if g.channel.in_qubits > self.k:
                    raise CircuitError(
                        f"layer {i}: gate {g.channel.label or '?'} has fan-in "
                        f"{g.channel.in_qubits} > declared k={self.k}"
                    )
            width = layer.out_width

    @property
    def widths(self) -> tuple[int, ...]:
        out = [self.in_width]
        for layer in self.layers:
            out.append(layer.out_width)
        return tuple(out)

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def width(self) -> int:
        return max(self.widths)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Per-level states of one run.

    ``levels[i]`` is the register after the first ``i`` layers, recorded
    before the noise round that precedes the next layer; ``levels[0]`` is
    the input and ``levels[-1]`` the final output.
    """

    levels: tuple[DensityMatrix, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "levels", tuple(self.levels))


def _row_side(mat: np.ndarray, ops: Sequence[np.ndarray], pre: int) -> np.ndarray:
    """Left-multiply the row factors after the first ``pre`` rows by ``ops``."""
    for k in ops:
        mat = np.matmul(k, mat.reshape(pre, k.shape[1], -1))
        pre *= k.shape[0]
    return mat.reshape(pre, -1)


def _superoperator_side(
    mat: np.ndarray, blocks: tuple, pre: int, din: int, dout: int
) -> np.ndarray:
    """A channel on the factor after ``pre`` done dims of both rows and
    columns, from its superoperator's nonzero entries: output block
    ``(o, p)`` of the factor is the sum of input blocks ``(a, b)`` scaled by
    ``S[o, p, a, b]``, a block copy or add where the entry is 1."""
    suf = mat.shape[0] // (pre * din)
    src = mat.reshape(pre, din, suf, pre, din, suf)
    buf = np.empty((pre * dout * suf,) * 2, dtype=np.complex128)
    out = buf.reshape(pre, dout, suf, pre, dout, suf)
    for o, p, terms in blocks:
        block = out[:, o, :, :, p, :]
        if not terms:
            block[...] = 0.0
        for i, (a, b, s) in enumerate(terms):
            part = src[:, a, :, :, b, :] if s == 1.0 else s * src[:, a, :, :, b, :]
            if i:
                block += part
            else:
                block[...] = part
    return buf


def _layer_kernel(plan: _LayerPlan, mat: np.ndarray) -> np.ndarray:
    """The layer's channel on a square matrix in block order, transposed.

    The multi-Kraus gates come first in block order, each a
    :func:`_superoperator_side`.  For the fused single-Kraus groups, ``A M``
    is formed as row operations, transposed once, and ``conj(A)`` applied as
    row operations: that is ``Y^T`` for ``Y = A M A^dagger``.
    """
    pre = 1
    for din, dout, blocks in plan.supers:
        mat = _superoperator_side(mat, blocks, pre, din, dout)
        pre *= dout
    mat = _row_side(mat, plan.groups, pre).T.copy()
    return _row_side(mat, plan.conj_groups, pre)


def apply_layer(layer: CircuitLayer, rho: DensityMatrix) -> DensityMatrix:
    """One layer: permute into block order, run the layer's plan, permute back.

    The plan is compiled once per layer, at its first application (see
    ``_compile_layer``).  The layer is a tensor product on disjoint qubits,
    so gate order is free: multi-Kraus gates (``DEPHASE``, ``TRACEOUT``)
    come first in block order, shrinking ones first of all, each applied as
    block copies and adds over its superoperator's nonzero entries; the
    single-Kraus rest runs as one row matmul per fused group, a transposed
    copy and the conjugate groups (:func:`_layer_kernel`).  That leaves the
    transpose of the result, and since :func:`settle` of a transpose is its
    conjugate, one in-place conjugation undoes it at the end.
    """
    if rho.qubits != layer.in_width:
        raise CircuitError(
            f"layer expects {layer.in_width} qubits, state has {rho.qubits}"
        )
    plan = layer._plan
    mat = _layer_kernel(plan, permute_matrix(rho.mat, plan.in_perm))
    mat = settle(permute_matrix(mat, plan.out_perm))
    np.conjugate(mat, out=mat)
    return DensityMatrix._adopt(layer.out_width, mat)


def run_noisy(
    circuit: Circuit,
    eta: float,
    rho0: DensityMatrix,
    extra_noise_round: bool = False,
) -> Trajectory:
    """Execution with a depolarization round between consecutive layers;
    ``eta = 0`` is the noiseless run.

    The first layer sees the input unperturbed and no noise follows the last
    layer; ``extra_noise_round`` adds one round before the first layer and
    one after the last (a sensitivity knob, off by default).  Recorded level
    ``i`` is the state before the noise round feeding layer ``i``.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    if rho0.qubits != circuit.in_width:
        raise CircuitError(
            f"circuit expects {circuit.in_width} input qubits, got {rho0.qubits}"
        )
    levels = [rho0]
    cur = rho0
    for i, layer in enumerate(circuit.layers):
        if i >= 1 or extra_noise_round:
            cur = depolarize_all(cur, eta)
        cur = apply_layer(layer, cur)
        levels.append(cur)
    if extra_noise_round and circuit.depth > 0:
        levels[-1] = depolarize_all(levels[-1], eta)
    return Trajectory(tuple(levels))


def _capped_width(width: int, where: str = "") -> int:
    """``width``, or :class:`ResourceLimitError` above the qubit cap."""
    if width > max_qubits():
        raise ResourceLimitError(f"{where}width {width} exceeds the cap {max_qubits()}")
    return width


def random_circuit(k: int, width: int, depth: int, seed: int) -> Circuit:
    """Seeded random circuit: per layer, a random partition into blocks of
    size <= k, each block carrying a Haar-ish random unitary."""
    if k not in (1, 2, 3):
        raise ValueError(f"random circuits support k in {{1, 2, 3}}, got {k}")
    _capped_width(width)
    rng = np.random.default_rng(seed)
    layers = []
    for _ in range(depth):
        remaining = list(rng.permutation(width))
        gates = []
        while remaining:
            size = int(rng.integers(1, min(k, len(remaining)) + 1))
            block = tuple(sorted(int(q) for q in remaining[:size]))
            remaining = remaining[size:]
            u = haar_unitary(size, rng)
            gates.append(PlacedGate(channel_from_unitary(u, label=f"U{size}"), block, block))
        gates.sort(key=lambda g: g.inputs[0])
        layers.append(CircuitLayer(width, width, tuple(gates)))
    return Circuit(k=k, in_width=width, layers=tuple(layers))


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

_INDEX_RE = re.compile(r"\[([^\]]*)\]\s*->\s*\[([^\]]*)\]\s*$")


def format_complex(z: complex) -> str:
    """Full-precision ``a+bi`` rendering used by circuit files and state dumps.

    Components use the shortest decimal form that round-trips the double
    exactly, so parsing the text reproduces the value bit for bit.
    """
    z = complex(z)
    sign = "-" if math.copysign(1.0, z.imag) < 0 else "+"
    return f"{float(z.real)!r}{sign}{abs(float(z.imag))!r}i"


def _parse_indices(text: str, line: int) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise CircuitParseError(line, f"bad index list [{text}]") from None


def _split_gate_line(rest: str, line: int) -> tuple[str, tuple[int, ...], tuple[int, ...]]:
    m = _INDEX_RE.search(rest)
    if m is None:
        raise CircuitParseError(line, "expected '[in indices] -> [out indices]'")
    head = rest[: m.start()].strip()
    return head, _parse_indices(m.group(1), line), _parse_indices(m.group(2), line)


def _is_count(token: str) -> bool:
    # ASCII only: str.isdigit also holds for digits int() rejects, such as "\u00b2"
    return token.isascii() and token.isdigit()


def _finish_layer(
    in_width: int, out_width: int, line: int, gates: list[PlacedGate]
) -> CircuitLayer:
    # implicit identity wires only when they are unambiguous: the layer
    # keeps its width and the untouched index sets coincide
    used_in = {q for g in gates for q in g.inputs}
    used_out = {q for g in gates for q in g.outputs}
    missing_in = sorted(set(range(in_width)) - used_in)
    missing_out = sorted(set(range(out_width)) - used_out)
    if in_width == out_width and missing_in and missing_in == missing_out:
        for q in missing_in:
            gates.append(PlacedGate(GATES["I"], (q,), (q,)))
    gates.sort(key=lambda g: g.outputs[0] if g.outputs else (g.inputs[0] if g.inputs else -1))
    try:
        return CircuitLayer(in_width, out_width, tuple(gates))
    except CircuitError as exc:
        raise CircuitParseError(line, str(exc)) from None


def _unitary_channel(text: str, m: int) -> QuantumChannel:
    """The ``m``-qubit unitary spelled row-major in ``a+bi`` tokens."""
    entries = []
    for token in text.split():
        try:
            entries.append(complex(token.replace("i", "j")))
        except ValueError:
            raise ValueError(f"bad complex entry {token!r}") from None
    dim = 2**m
    if len(entries) != dim * dim:
        raise ValueError(f"unitary on {m} qubit(s) needs {dim * dim} entries, got {len(entries)}")
    return channel_from_unitary(np.array(entries, dtype=np.complex128).reshape(dim, dim))


def parse_circuit(text: str) -> Circuit:
    """Parse the line-oriented circuit format; see the module docstring."""
    k: int | None = None
    in_width: int | None = None
    width: int | None = None
    layers: list[CircuitLayer] = []
    block: tuple[int, int, int] | None = None  # the open layer's widths and line
    gates: list[PlacedGate] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        tokens = stripped.split()
        keyword = tokens[0]
        if keyword == "k":
            if k is not None:
                raise CircuitParseError(lineno, "duplicate 'k' header")
            if len(tokens) != 2 or not _is_count(tokens[1]):
                raise CircuitParseError(lineno, "expected 'k <int>'")
            k = int(tokens[1])
        elif keyword == "width":
            if in_width is not None:
                raise CircuitParseError(
                    lineno, "misplaced 'width' header (use 'layer width <int>' per layer)"
                )
            if len(tokens) != 2 or not _is_count(tokens[1]):
                raise CircuitParseError(lineno, "expected 'width <int>'")
            in_width = width = _capped_width(int(tokens[1]), f"line {lineno}: ")
        elif keyword == "layer":
            if k is None or width is None:
                raise CircuitParseError(lineno, "'k' and 'width' headers must come first")
            if block is not None:
                layers.append(_finish_layer(*block, gates))
            out_width = width
            if len(tokens) == 3 and tokens[1] == "width" and _is_count(tokens[2]):
                out_width = _capped_width(int(tokens[2]), f"line {lineno}: ")
            elif len(tokens) != 1:
                raise CircuitParseError(lineno, "expected 'layer' or 'layer width <int>'")
            block, gates = (width, out_width, lineno), []
            width = out_width
        elif keyword in ("gate", "unitary"):
            if block is None:
                raise CircuitParseError(lineno, f"'{keyword}' outside of a layer block")
            head, ins, outs = _split_gate_line(stripped[len(keyword) :], lineno)
            if keyword == "gate":
                if head not in GATES:
                    raise CircuitParseError(lineno, f"unknown gate {head!r}")
                name, fan_in = f"gate {head}", GATES[head].in_qubits
            else:
                name, fan_in = "unitary", len(ins)
            if fan_in > k:  # ahead of building a unitary of that size
                raise CircuitParseError(lineno, f"{name} has fan-in {fan_in} > declared k={k}")
            try:
                channel = GATES[head] if keyword == "gate" else _unitary_channel(head, fan_in)
                gates.append(PlacedGate(channel, ins, outs))
            except ValueError as exc:
                raise CircuitParseError(lineno, str(exc)) from None
        else:
            raise CircuitParseError(lineno, f"unrecognized directive {keyword!r}")
    if block is not None:
        layers.append(_finish_layer(*block, gates))
    if k is None or in_width is None:
        raise CircuitParseError(0, "missing 'k' and/or 'width' header")
    try:
        return Circuit(k=k, in_width=in_width, layers=tuple(layers))
    except CircuitError as exc:
        raise CircuitParseError(0, str(exc)) from None


def parse_circuit_file(path: str) -> Circuit:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_circuit(fh.read())


def serialize_circuit(circuit: Circuit) -> str:
    """Canonical text for a circuit; parsing it back reproduces the circuit.

    Library gates print by name; anything else must be a single-Kraus square
    channel and prints as a full-precision ``unitary`` line.
    """
    lines = [f"k {circuit.k}", f"width {circuit.in_width}"]
    for layer in circuit.layers:
        if layer.out_width == layer.in_width:
            lines.append("layer")
        else:
            lines.append(f"layer width {layer.out_width}")
        for g in layer.gates:
            ins = ",".join(str(q) for q in g.inputs)
            outs = ",".join(str(q) for q in g.outputs)
            if g.channel.label in GATES:
                lines.append(f"gate {g.channel.label} [{ins}] -> [{outs}]")
            elif len(g.channel.kraus) == 1 and g.channel.in_qubits == g.channel.out_qubits:
                entries = " ".join(format_complex(z) for z in g.channel.kraus[0].flat)
                lines.append(f"unitary {entries} [{ins}] -> [{outs}]")
            else:
                raise CircuitError(
                    f"channel {g.channel.label!r} has no text form (not a library "
                    "gate or plain unitary)"
                )
    return "\n".join(lines) + "\n"
