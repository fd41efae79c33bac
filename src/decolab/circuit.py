"""Layered circuits over partition-respecting gates, plus a text format.

A circuit is a chain of layers; layer ``i`` maps an ``n_i``-qubit register to
an ``n_{i+1}``-qubit one.  Within a layer the gate input sets partition
``[n_i]`` exactly and the output sets partition ``[n_{i+1}]`` exactly, so a
layer is one big tensor product of channels.  Noisy execution interlaces a
round of per-qubit depolarization strictly *between* layers: the first layer
acts on the pristine input and no noise follows the last layer.  That is the
one schedule; a round before the first layer or after the last is an empty
``layer`` block (identity wires) at that end of the circuit.

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
from typing import Iterable

import numpy as np

from .channels import GATES, QuantumChannel, channel_from_unitary, depolarize_all
from .config import TRACE_RENORM_LIMIT, ResourceLimitError, max_qubits
from .linalg import (
    _LEG_TO_MATRIX,
    _LEG_TO_PAULI,
    DensityMatrix,
    _locked,
    haar_unitary,
    leg_products,
)

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
        for what, wires in (("input", self.inputs), ("output", self.outputs)):
            if any(a >= b for a, b in zip(wires, wires[1:])):
                raise CircuitError(f"{what} subset {wires} must be strictly increasing")
            if wires and wires[0] < 0:
                raise CircuitError(f"{what} index {wires[0]} out of range: indices are >= 0")


def _check_partition(sets: Iterable[tuple[int, ...]], width: int, what: str) -> None:
    """Index lists, each a :class:`PlacedGate`'s, that cover ``range(width)`` once."""
    seen: set[int] = set()
    for s in sets:
        for q in s:
            if q >= width:
                raise CircuitError(f"{what} index {q} out of range for width {width}")
            if q in seen:
                raise CircuitError(f"{what} qubit {q} is claimed by two gates")
            seen.add(q)
    missing = [q for q in range(width) if q not in seen]
    if missing:
        raise CircuitError(f"{what} qubit(s) {missing} are not covered by any gate")


@dataclass(frozen=True, eq=False)
class _LayerPlan:
    """What :func:`apply_layer` needs of a layer, compiled once: the transfer
    matrix of each gate but the exact identities, shrinking gates first and
    growing ones last, and the leg permutations into an order in which each
    gate's legs trail when it runs (the identities' first) and back."""

    in_perm: tuple[int, ...]
    out_perm: tuple[int, ...]
    transfers: tuple[np.ndarray, ...]


def _transfer_matrix(channel: QuantumChannel) -> np.ndarray:
    """``R[i, j] = tr(P_i Phi(Q_j)) / 2**kin`` over the output Paulis ``P_i``
    and the input Paulis ``Q_j``: one leg map per qubit on ``sum_K K (x)
    conj(K)``, which maps row-major matrix entries to their image's.  ``R``
    holds ``4**(kin + kout)`` numbers: no more than a state at the width cap."""
    kin, kout = channel.in_qubits, channel.out_qubits
    _capped_width(kin + kout, f"gate {channel.label or '?'}: fan-in plus fan-out, as a ")
    legs = [a for q in range(kout) for a in (q, kout + q)]
    legs += [2 * kout + a for q in range(kin) for a in (q, kin + q)]
    y = np.array([[1], [1], [1j], [1]])  # the i of Y, left out of linalg's real leg maps
    ops = [_LEG_TO_MATRIX.T * y] * kin + [_LEG_TO_PAULI * y] * kout
    with np.errstate(invalid="ignore", over="ignore"):  # a non-finite R raises in the caller
        s = sum(np.kron(k, k.conj()) for k in channel.kraus).reshape((2,) * 2 * (kin + kout))
        r = leg_products(s.transpose(legs), ops)
    return np.ascontiguousarray(r.real).reshape(4**kout, 4**kin)


def _transfer(channel: QuantumChannel) -> np.ndarray:
    """The channel's transfer matrix, write-locked: built at its first use
    and kept on the channel, so a library gate, such as the parser's ``I``
    wire or ``DEPHASE``, builds it once however often it is placed."""
    cache = vars(channel)  # frozen: cache in __dict__
    if (r := cache.get("_transfer")) is None:
        r = cache["_transfer"] = _locked(_transfer_matrix(channel))
    return r


def _compile_layer(layer: CircuitLayer) -> _LayerPlan:
    """The layer's plan.  A trace-preserving channel's first row is ``e_0``:
    a row off it by more than ``TRACE_RENORM_LIMIT``, or a non-finite entry,
    raises ``ArithmeticError``, and a smaller drift is pinned to ``e_0``, so
    every state's ``c_I`` stays exactly 1."""
    idle, moving = [], []
    for g in sorted(layer.gates, key=lambda g: len(g.outputs) - len(g.inputs)):
        r = _transfer(g.channel)
        if np.array_equal(r, np.eye(len(r))):
            idle.append(g)
            continue
        e0 = np.eye(1, r.shape[1])[0]
        drift = float(np.max(np.abs(r[0] - e0)))
        if not (drift <= TRACE_RENORM_LIMIT and np.isfinite(r).all()):
            label = g.channel.label or "?"
            raise ArithmeticError(f"gate {label}: trace drifted by {drift!r}, not renormalized")
        r = r.copy()  # the channel's own stays as built
        r[0] = e0
        moving.append((g, r))
    blocks = [g for g, _ in reversed(moving)]
    return _LayerPlan(
        in_perm=tuple(q for g in idle + blocks for q in g.inputs),
        out_perm=tuple(np.argsort([q for g in blocks + idle for q in g.outputs]).tolist()),
        transfers=tuple(r for _, r in moving),
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


def apply_layer(layer: CircuitLayer, rho: DensityMatrix) -> DensityMatrix:
    """One layer on the state's Pauli coefficients: one transpose into the
    plan's leg order, one matrix product per transfer matrix, one transpose
    back.  The plan is compiled at the layer's first application.  An exact
    identity gate, such as the parser's implicit ``I`` wire, only moves its
    leg, so a layer of them costs one copy; the result is always fresh.
    """
    if rho.qubits != layer.in_width:
        raise CircuitError(
            f"layer expects {layer.in_width} qubits, state has {rho.qubits}"
        )
    plan = layer._plan
    x = leg_products(rho.pauli.reshape((4,) * rho.qubits).transpose(plan.in_perm), plan.transfers)
    coeffs = x.reshape((4,) * layer.out_width).transpose(plan.out_perm).flatten()
    return DensityMatrix._from_pauli(layer.out_width, coeffs)


def run_noisy(circuit: Circuit, eta: float, rho0: DensityMatrix) -> Trajectory:
    """Execution with a depolarization round between consecutive layers;
    ``eta = 0`` is the noiseless run.

    The first layer sees the input unperturbed and no noise follows the last
    layer.  Recorded level ``i`` is the state before the noise round feeding
    layer ``i``.  An empty ``layer`` (identity wires) at each end puts a
    round before the first real layer and one after the last.
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
        if i:
            cur = depolarize_all(cur, eta)
        cur = apply_layer(layer, cur)
        levels.append(cur)
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
