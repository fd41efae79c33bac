import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import decolab.circuit
from decolab.channels import (
    GATES,
    QuantumChannel,
    channel_from_unitary,
    channel_validate,
    depolarize_all,
    random_channel,
)
from decolab.circuit import (
    Circuit,
    CircuitError,
    CircuitLayer,
    CircuitParseError,
    PlacedGate,
    apply_layer,
    format_complex,
    parse_circuit,
    random_circuit,
    run_noisy,
    serialize_circuit,
)
from decolab.config import KRAUS_TOL, ResourceLimitError
from decolab.linalg import DensityMatrix, haar_unitary, random_density
from oracles import (
    channel_apply,
    channel_tensor,
    depolarize_qubit,
    depolarizing_kraus_channel,
    export_trajectory,
    hermitian_part,
    mixed_circuit,
    permutation_unitary,
    validate_density,
)

BELL_TEXT = """
# prepares a maximally entangled pair from |00>
k 2
width 2
layer
gate H [0] -> [0]
layer
gate CNOT [0,1] -> [0,1]
"""


def wire_circuit(depth: int) -> Circuit:
    return parse_circuit("k 1\nwidth 1\n" + "layer\ngate I [0] -> [0]\n" * depth)


def circuits_equal(a: Circuit, b: Circuit) -> bool:
    if a.k != b.k or a.widths != b.widths or a.depth != b.depth:
        return False
    for la, lb in zip(a.layers, b.layers):
        if len(la.gates) != len(lb.gates):
            return False
        for ga, gb in zip(la.gates, lb.gates):
            if ga.inputs != gb.inputs or ga.outputs != gb.outputs:
                return False
            if len(ga.channel.kraus) != len(gb.channel.kraus):
                return False
            for ka, kb in zip(ga.channel.kraus, gb.channel.kraus):
                if not np.array_equal(ka, kb):
                    return False
    return True


def _inverse(order):
    inverse = [0] * len(order)
    for pos, q in enumerate(order):
        inverse[q] = pos
    return inverse


def _conjugate_by(perm, mat):
    p = permutation_unitary(perm)
    return p @ mat @ p.conj().T


def assembled_layer_oracle(layer: CircuitLayer, rho: DensityMatrix) -> np.ndarray:
    """Materialize the full layer channel and conjugate with explicit
    permutation matrices on both sides."""
    if not layer.gates:
        return rho.mat
    blocked = _conjugate_by([q for g in layer.gates for q in g.inputs], rho.mat)
    block_channel = channel_tensor([g.channel for g in layer.gates])
    moved = channel_apply(block_channel, DensityMatrix(layer.in_width, blocked))
    return _conjugate_by(_inverse([q for g in layer.gates for q in g.outputs]), moved.mat)


def _apply_kraus_block(mat, kraus, pre, din, dout, suf):
    """Apply a channel to the middle factor of a pre (x) in (x) suf register."""
    t = mat.reshape(pre, din, suf, pre, din, suf)
    out = np.zeros((pre, dout, suf, pre, dout, suf), dtype=np.complex128)
    for k in kraus:
        out += np.einsum("ob,abcdef,pe->aocdpf", k, t, k.conj(), optimize=True)
    new_dim = pre * dout * suf
    return out.reshape(new_dim, new_dim)


def kraus_block_apply_layer(layer: CircuitLayer, rho: DensityMatrix) -> DensityMatrix:
    """The simulator's former path: one einsum per gate in layer order."""
    mat = _conjugate_by([q for g in layer.gates for q in g.inputs], rho.mat)
    in_sizes = [g.channel.in_qubits for g in layer.gates]
    out_sizes = [g.channel.out_qubits for g in layer.gates]
    for idx, g in enumerate(layer.gates):
        pre = 2 ** sum(out_sizes[:idx])
        suf = 2 ** sum(in_sizes[idx + 1 :])
        mat = _apply_kraus_block(
            mat, g.channel.kraus, pre, 2 ** in_sizes[idx], 2 ** out_sizes[idx], suf
        )
    mat = _conjugate_by(_inverse([q for g in layer.gates for q in g.outputs]), mat)
    return DensityMatrix(layer.out_width, hermitian_part(mat))


def kraus_block_run_noisy(circuit: Circuit, eta: float, rho0: DensityMatrix) -> list:
    """``run_noisy`` on the former path, noise in four-operator Pauli form."""
    pauli = depolarizing_kraus_channel(eta).kraus
    levels, cur = [rho0], rho0
    for i, layer in enumerate(circuit.layers):
        if i >= 1:
            n, mat = cur.qubits, cur.mat
            for q in range(n):
                mat = _apply_kraus_block(mat, pauli, 2**q, 2, 2, 2 ** (n - q - 1))
            cur = DensityMatrix(n, mat)
        cur = kraus_block_apply_layer(layer, cur)
        levels.append(cur)
    return levels


def random_mixed_layer(
    rng: np.random.Generator, in_width: int, max_out: int = 5
) -> CircuitLayer:
    """Seeded layer of fan-in <= 2 mixing unitaries, DEPHASE, TRACEOUT, random
    two-term channels and preparations; its output width follows from the
    gates drawn, preparations filling it up to at most ``max_out``."""
    remaining = [int(q) for q in rng.permutation(in_width)]
    wired = []
    while remaining:
        size = int(rng.integers(1, min(2, len(remaining)) + 1))
        block, remaining = tuple(sorted(remaining[:size])), remaining[size:]
        kinds = ["U", "CNOT", "R"] if size == 2 else ["U", "I", "DEPHASE", "TRACEOUT", "R"]
        kind = str(rng.choice(kinds))
        if kind == "U":
            channel = channel_from_unitary(haar_unitary(size, rng))
        elif kind == "R":  # complex Kraus operators, unlike the library's
            channel = random_channel(size, size, 2, rng)
        else:
            channel = GATES[kind]
        wired.append((channel, block))
    kept = sum(c.out_qubits for c, _ in wired)
    for _ in range(int(rng.integers(0, max(max_out - kept, 0) + 1))):
        wired.append((GATES[str(rng.choice(["PREP0", "PREP1", "PREP_PLUS"]))], ()))
    out_width = sum(c.out_qubits for c, _ in wired)
    slots = [int(q) for q in rng.permutation(out_width)]
    gates = []
    for channel, block in (wired[i] for i in rng.permutation(len(wired))):
        outs, slots = tuple(sorted(slots[: channel.out_qubits])), slots[channel.out_qubits :]
        gates.append(PlacedGate(channel, block, outs))
    return CircuitLayer(in_width, out_width, tuple(gates))


def layer_with_channels(
    rng: np.random.Generator, in_width: int, channels: list
) -> CircuitLayer:
    """``channels`` on random input qubits, a random unitary on every qubit
    left over, and the outputs on random slots."""
    free = [int(q) for q in rng.permutation(in_width)]
    wired = []
    for channel in channels:
        wired.append((channel, tuple(sorted(free[: channel.in_qubits]))))
        free = free[channel.in_qubits :]
    wired += [(channel_from_unitary(haar_unitary(1, rng)), (q,)) for q in free]
    out_width = sum(c.out_qubits for c, _ in wired)
    slots = [int(q) for q in rng.permutation(out_width)]
    gates = []
    for channel, block in wired:
        outs, slots = tuple(sorted(slots[: channel.out_qubits])), slots[channel.out_qubits :]
        gates.append(PlacedGate(channel, block, outs))
    return CircuitLayer(in_width, out_width, tuple(gates))


def random_mixed_circuit(seed: int, in_width: int, depth: int) -> Circuit:
    rng = np.random.default_rng(seed)
    layers, width = [], in_width
    for _ in range(depth):
        layers.append(random_mixed_layer(rng, width))
        width = layers[-1].out_width
    return Circuit(k=2, in_width=in_width, layers=tuple(layers))


class TestParser:
    def test_minimal_document(self):
        c = parse_circuit("k 2\nwidth 1\nlayer\ngate H [0] -> [0]\n")
        assert c.depth == 1 and c.width == 1 and c.widths == (1, 1)

    def test_implicit_wires_fill_missing_qubits(self):
        c = parse_circuit("k 2\nwidth 3\nlayer\ngate CNOT [0,1] -> [0,1]\n")
        labels = sorted(g.channel.label for g in c.layers[0].gates)
        assert labels == ["CNOT", "I"]
        wires = [g for g in c.layers[0].gates if g.channel.label == "I"]
        assert wires[0].inputs == (2,) and wires[0].outputs == (2,)

    def test_partition_overlap_names_qubit(self):
        text = "k 2\nwidth 2\nlayer\ngate CNOT [0,1] -> [0,1]\ngate I [1] -> [1]\n"
        with pytest.raises(CircuitParseError, match="qubit 1"):
            parse_circuit(text)

    def test_partition_gap_names_qubits(self):
        text = "k 2\nwidth 3\nlayer width 2\ngate CNOT [0,1] -> [0,1]\n"
        with pytest.raises(CircuitParseError, match=r"\[2\]"):
            parse_circuit(text)

    def test_toffoli_rejected_when_k_two(self):
        text = "k 2\nwidth 3\nlayer\ngate TOFFOLI [0,1,2] -> [0,1,2]\n"
        with pytest.raises(CircuitParseError, match="fan-in 3"):
            parse_circuit(text)

    def test_toffoli_allowed_when_k_three(self):
        c = parse_circuit("k 3\nwidth 3\nlayer\ngate TOFFOLI [0,1,2] -> [0,1,2]\n")
        assert c.layers[0].gates[0].channel.label == "TOFFOLI"

    def test_unknown_gate(self):
        with pytest.raises(CircuitParseError, match="unknown gate"):
            parse_circuit("k 2\nwidth 1\nlayer\ngate FOO [0] -> [0]\n")

    def test_errors_carry_line_numbers(self):
        text = "k 2\nwidth 1\nlayer\ngate H [0 -> [0]\n"
        with pytest.raises(CircuitParseError, match="line 4"):
            parse_circuit(text)

    def test_missing_header(self):
        with pytest.raises(CircuitParseError, match="header"):
            parse_circuit("layer\ngate H [0] -> [0]\n")

    def test_gate_outside_layer(self):
        with pytest.raises(CircuitParseError, match="outside"):
            parse_circuit("k 2\nwidth 1\ngate H [0] -> [0]\n")

    def test_width_changing_layers_must_be_explicit(self):
        text = (
            "k 2\nwidth 2\n"
            "layer width 3\n"
            "gate I [0] -> [0]\ngate I [1] -> [1]\ngate PREP0 [] -> [2]\n"
        )
        c = parse_circuit(text)
        assert c.widths == (2, 3)

    def test_unitary_entries(self):
        text = (
            "k 1\nwidth 1\nlayer\n"
            "unitary 0+0i 1+0i 1+0i 0+0i [0] -> [0]\n"
        )
        c = parse_circuit(text)
        out = run_noisy(c, 0.0, DensityMatrix.basis_state(1, 0)).levels[-1]
        assert np.allclose(out.mat, np.diag([0.0, 1.0]), atol=1e-12)

    def test_unitary_entry_count_checked(self):
        with pytest.raises(CircuitParseError, match="entries"):
            parse_circuit("k 1\nwidth 1\nlayer\nunitary 1+0i 0+0i [0] -> [0]\n")

    def test_non_unitary_matrix_rejected(self):
        with pytest.raises(CircuitParseError, match="unitary"):
            parse_circuit("k 1\nwidth 1\nlayer\nunitary 1+0i 0+0i 0+0i 0.5+0i [0] -> [0]\n")

    def test_width_cap_is_resource_error(self, monkeypatch):
        monkeypatch.setenv("DECOLAB_MAX_QUBITS", "2")
        with pytest.raises(ResourceLimitError):
            parse_circuit("k 2\nwidth 3\nlayer\ngate I [0] -> [0]\ngate I [1] -> [1]\ngate I [2] -> [2]\n")

    def test_comments_and_blank_lines_ignored(self):
        c = parse_circuit("# header\n\nk 2\nwidth 1  # one qubit\nlayer\ngate H [0] -> [0]\n")
        assert c.depth == 1


def _entries(dim: int) -> str:
    """The ``dim x dim`` identity as unitary-line entries."""
    return " ".join("1+0i" if r == c else "0+0i" for r in range(dim) for c in range(dim))


#: one broken rule per text, with the source line it must name.  The layer
#: opens on line 3, a good gate sits on line 4, the faulty line is line 5.
#: Rules of one gate line name that line; wires and the partition are checked
#: when the layer closes, so they name the layer's line.
_HEAD = "k 2\nwidth 3\nlayer\ngate I [0] -> [0]\n"
PARSE_ERRORS = [
    ("unknown gate", "gate FOO [1] -> [1]", 5, "unknown gate"),
    ("gate fan-in above k", "gate TOFFOLI [0,1,2] -> [0,1,2]", 5, "fan-in 3 > declared k=2"),
    ("unitary fan-in above k", f"unitary {_entries(8)} [0,1,2] -> [0,1,2]", 5, "fan-in 3"),
    ("wrong entry count", "unitary 1+0i 0+0i [1] -> [1]", 5, "needs 4 entries, got 2"),
    ("non-unitary matrix", "unitary 1+0i 0+0i 0+0i 0.5+0i [1] -> [1]", 5, "not unitary"),
    ("unitary with more outputs", f"unitary {_entries(2)} [1] -> [1,2]", 5, "wired to outputs"),
    ("bad complex entry", "unitary 1+0i x 0+0i 1+0i [1] -> [1]", 5, "bad complex entry"),
    ("gate arity", "gate CNOT [1] -> [1]", 5, "takes 2 qubits"),
    ("non-increasing gate wires", "gate CNOT [2,1] -> [1,2]", 5, "strictly increasing"),
    ("non-increasing unitary wires", f"unitary {_entries(4)} [1,2] -> [2,1]", 5, "strictly"),
    ("out-of-range index", "gate H [3] -> [3]", 3, "out of range"),
    ("negative index", "gate H [-1] -> [1]", 5, "out of range"),
    ("qubit claimed twice", "gate H [0] -> [0]", 3, "claimed by two"),
    ("qubit claimed twice, closed by the next layer", "gate H [0] -> [0]\nlayer", 3, "claimed"),
]


class TestParserErrorLines:
    @pytest.mark.parametrize(
        "line,expected,match",
        [row[1:] for row in PARSE_ERRORS],
        ids=[row[0] for row in PARSE_ERRORS],
    )
    def test_each_rule_names_its_line(self, line, expected, match):
        with pytest.raises(CircuitParseError, match=match) as err:
            parse_circuit(_HEAD + line + "\n")
        assert err.value.line == expected
        assert str(err.value).startswith(f"line {expected}: ")

    def test_uncovered_qubits_name_the_layer_line(self):
        text = "k 2\nwidth 2\nlayer\ngate H [0] -> [0]\nlayer width 3\ngate CNOT [0,1] -> [0,1]\n"
        with pytest.raises(CircuitParseError, match=r"output qubit\(s\) \[2\] are not") as err:
            parse_circuit(text)
        assert err.value.line == 5

    @pytest.mark.parametrize(
        "text,line",
        [
            ("k 2\nwidth 1000000000\nlayer\n", 2),
            ("k 2\nwidth 1\nlayer width 1000000000\ngate PREP0 [] -> [0]\n", 3),
        ],
        ids=["header", "layer"],
    )
    def test_width_above_the_cap_is_a_resource_error(self, text, line):
        with pytest.raises(ResourceLimitError, match=f"^line {line}: width 1000000000 exceeds"):
            parse_circuit(text)


#: valid circuits to mutate: library gates, unitary lines, width changes
_FUZZ_SEEDS = [
    serialize_circuit(random_circuit(2, 3, 2, seed=4)),
    serialize_circuit(random_circuit(3, 4, 1, seed=5)),
    """k 2
width 3
layer width 2
gate TRACEOUT [0] -> []
gate CNOT [1,2] -> [0,1]
layer
gate DEPHASE [1] -> [1]  # a comment
layer width 0
gate TRACEOUT [0] -> []
gate TRACEOUT [1] -> []
layer width 2
gate PREP_PLUS [] -> [0]
gate PREP0 [] -> [1]
layer
unitary 0+0i 1+0i 1+0i 0+0i [1] -> [1]
""",
]
_FUZZ_TOKENS = st.sampled_from(
    ["k", "width", "layer", "gate", "unitary", "->", "[", "]", ",", "#", "\n", " ", "0",
     "1", "-1", "99", "10" * 40, "nan", "inf", "1e309", "H", "CNOT", "TRACEOUT", "PREP0",
     "DEPHASE", "\u00b2", "\u0661", "\uff11", "1+0i", "0+1i", "1_0", "0x1", "\x00"]
)

#: every Unicode digit and number character, which str.isdigit may accept
_NUMERALS = st.characters(categories=("Nd", "No")) | st.sampled_from("0123456789")


def _parse_or_reject(text: str) -> None:
    """Parsing either succeeds or fails with one of the two documented errors."""
    try:
        parse_circuit(text)
    except (CircuitParseError, ResourceLimitError):
        pass


class TestParserFuzz:
    @given(text=st.text(max_size=400))
    @settings(max_examples=300)
    def test_arbitrary_text(self, text):
        _parse_or_reject(text)

    @given(values=st.lists(st.text(_NUMERALS, min_size=1, max_size=3), min_size=3, max_size=3))
    @settings(max_examples=300)
    def test_arbitrary_numerals_in_the_counts(self, values):
        k, width, out = values
        _parse_or_reject(f"k {k}\nwidth {width}\nlayer width {out}\ngate PREP0 [] -> [0]\n")

    @given(
        seed=st.sampled_from(_FUZZ_SEEDS),
        edits=st.lists(
            st.tuples(
                st.sampled_from(
                    ["insert", "replace", "replace word", "delete", "duplicate line", "swap lines"]
                ),
                st.integers(0, 10**6),
                st.integers(0, 10**6),
                st.one_of(_FUZZ_TOKENS, st.text(max_size=4)),
            ),
            min_size=1,
            max_size=6,
        ),
    )
    @settings(max_examples=300)
    def test_mutated_valid_circuits(self, seed, edits):
        text = seed
        for op, a, b, token in edits:
            lines = text.split("\n")
            i, j = a % (len(text) + 1), b % len(lines)
            if op == "insert":
                text = text[:i] + token + text[i:]
            elif op == "replace":
                text = text[:i] + token + text[i + len(token) :]
            elif op == "replace word":
                parts = re.split(r"(\s+)", text)  # words at even positions
                parts[2 * (a % ((len(parts) + 1) // 2))] = token
                text = "".join(parts)
            elif op == "delete":
                text = text[:i] + text[i + 1 + b % 8 :]
            elif op == "duplicate line":
                text = "\n".join(lines[: j + 1] + lines[j:])
            else:
                k = a % len(lines)
                lines[j], lines[k] = lines[k], lines[j]
                text = "\n".join(lines)
        _parse_or_reject(text)

    @pytest.mark.parametrize(
        "text",
        [
            "k \u00b2\nwidth 1\n",
            "k 1\nwidth \u00b2\n",
            "k 1\nwidth 1\nlayer width \u00b2\n",
            "k 1\nwidth 1\nlayer\nunitary nan+0i 0+0i 0+0i 1+0i [0] -> [0]\n",
            "k 1\nwidth 1\nlayer\nunitary 1+0i 0+0i 0+0i inf+0i [0] -> [0]\n",
        ],
        ids=["k-superscript", "width-superscript", "layer-superscript", "nan", "inf"],
    )
    def test_found_cases_are_parse_errors(self, text):
        with pytest.raises(CircuitParseError):
            parse_circuit(text)

    @pytest.mark.parametrize("entry", ["1e200+0i", "1e155+1e155i", "nan+0i"])
    def test_overflowing_unitary_is_a_parse_error_and_no_warning(self, entry):
        # u^dagger u overflows to an inf or NaN residual; neither may pass
        text = f"k 1\nwidth 1\nlayer\n\nunitary {entry} 0+0i 0+0i 1+0i [0] -> [0]\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CircuitParseError, match="^line 5: matrix is not unitary") as info:
                parse_circuit(text)
        assert info.value.line == 5


class TestSerialization:
    def test_roundtrip_named_gates(self):
        c1 = parse_circuit(BELL_TEXT)
        text = serialize_circuit(c1)
        c2 = parse_circuit(text)
        assert circuits_equal(c1, c2)
        assert serialize_circuit(c2) == text

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=20)
    def test_roundtrip_random_unitary_circuits(self, seed):
        c1 = random_circuit(2, 3, 3, seed)
        text = serialize_circuit(c1)
        c2 = parse_circuit(text)
        assert circuits_equal(c1, c2)
        assert serialize_circuit(c2) == text

    def test_format_complex_roundtrips(self):
        for z in (0.36 + 0j, -1 / 3 - 0.125j, complex(1e-17, -1e300), 0.0 - 0.0j):
            token = format_complex(z)
            assert complex(token.replace("i", "j")) == z


class TestRunIdeal:
    def test_empty_circuit(self, rng):
        rho = random_density(2, rng)
        traj = run_noisy(Circuit(k=2, in_width=2, layers=()), 0.0, rho)
        assert len(traj.levels) == 1 and traj.levels[0] is rho

    def test_double_hadamard_is_identity(self):
        c = parse_circuit("k 1\nwidth 1\nlayer\ngate H [0] -> [0]\nlayer\ngate H [0] -> [0]\n")
        out = run_noisy(c, 0.0, DensityMatrix.basis_state(1, 0)).levels[-1]
        assert np.max(np.abs(out.mat - np.diag([1.0, 0.0]))) < 1e-12

    def test_bell_preparation(self):
        out = run_noisy(parse_circuit(BELL_TEXT), 0.0, DensityMatrix.basis_state(2, 0)).levels[-1]
        expected = DensityMatrix.pure([1, 0, 0, 1]).mat
        assert np.max(np.abs(out.mat - expected)) < 1e-12

    def test_width_mismatch(self, rng):
        with pytest.raises(CircuitError, match="input"):
            run_noisy(parse_circuit(BELL_TEXT), 0.0, random_density(1, rng))


class TestRunNoisy:
    def test_eta_zero_matches_ideal(self, rng):
        c = random_circuit(2, 3, 4, seed=11)
        rho = random_density(3, rng)
        ideal = [rho]
        for layer in c.layers:
            ideal.append(apply_layer(layer, ideal[-1]))
        noisy = run_noisy(c, 0.0, rho)
        assert len(noisy.levels) == len(ideal)
        for a, b in zip(ideal, noisy.levels):
            assert np.max(np.abs(a.mat - b.mat)) < 1e-12

    @pytest.mark.parametrize("eta", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("depth", [2, 5, 11])
    def test_identity_wire_decay_law(self, eta, depth):
        c = wire_circuit(depth)
        ta = run_noisy(c, eta, DensityMatrix.basis_state(1, 0))
        tb = run_noisy(c, eta, DensityMatrix.basis_state(1, 1))
        from decolab.linalg import trace_distance

        d = trace_distance(ta.levels[-1], tb.levels[-1])
        assert d == pytest.approx((1 - eta) ** (depth - 1), abs=1e-10)

    def test_eta_one_gives_maximally_mixed(self):
        c = random_circuit(2, 3, 3, seed=5)
        out = run_noisy(c, 1.0, DensityMatrix.basis_state(3, 5)).levels[-1]
        assert np.max(np.abs(out.mat - np.eye(8) / 8)) < 1e-10

    def test_levels_record_pre_noise_states(self):
        # level 1 of a depth-2 circuit must be exactly T0(rho): no noise yet
        c = wire_circuit(2)
        traj = run_noisy(c, 0.9, DensityMatrix.basis_state(1, 0))
        assert np.max(np.abs(traj.levels[1].mat - np.diag([1.0, 0.0]))) < 1e-12

    def test_extra_noise_round_flag(self):
        # an extra round before the first layer and after the last:
        # the wire picks up two more decay factors
        depth, eta = 4, 0.5
        c = wire_circuit(depth)
        ta = run_noisy(c, eta, DensityMatrix.basis_state(1, 0), extra_noise_round=True)
        tb = run_noisy(c, eta, DensityMatrix.basis_state(1, 1), extra_noise_round=True)
        from decolab.linalg import trace_distance

        d = trace_distance(ta.levels[-1], tb.levels[-1])
        assert d == pytest.approx((1 - eta) ** (depth + 1), abs=1e-12)

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=15)
    def test_every_level_is_a_valid_state(self, seed):
        rng = np.random.default_rng(seed)
        c = random_circuit(2, 3, 3, seed=seed)
        traj = run_noisy(c, float(rng.uniform(0, 1)), random_density(3, rng))
        for level, state in enumerate(traj.levels):
            assert state.qubits == c.widths[level]
            assert validate_density(state.mat).ok

    def test_bad_eta(self):
        with pytest.raises(ValueError):
            run_noisy(wire_circuit(1), 1.5, DensityMatrix.basis_state(1, 0))


class TestLayerApplication:
    def test_matches_assembled_tensor_with_permutations(self, rng):
        # CNOT straddles qubit 1
        gate_cnot = PlacedGate(GATES["CNOT"], (0, 2), (0, 2))
        gate_h = PlacedGate(GATES["H"], (1,), (1,))
        layer = CircuitLayer(3, 3, (gate_cnot, gate_h))
        rho = random_density(3, rng)
        fast = apply_layer(layer, rho)
        assert np.max(np.abs(fast.mat - assembled_layer_oracle(layer, rho))) < 1e-12

    @pytest.mark.parametrize("width", range(6))
    @pytest.mark.parametrize("seed", range(8))
    def test_random_mixed_layers_match_assembled_tensor(self, width, seed):
        rng = np.random.default_rng(1000 * width + seed)
        layer = random_mixed_layer(rng, width)
        rho = random_density(width, rng)
        fast = apply_layer(layer, rho)
        assert fast.qubits == layer.out_width
        assert np.max(np.abs(fast.mat - assembled_layer_oracle(layer, rho))) < 1e-12

    @pytest.mark.parametrize("width", [1, 3, 5])
    def test_layer_emptying_the_register(self, width, rng):
        layer = CircuitLayer(
            width, 0, tuple(PlacedGate(GATES["TRACEOUT"], (q,), ()) for q in range(width))
        )
        out = apply_layer(layer, random_density(width, rng))
        assert out.qubits == 0 and np.max(np.abs(out.mat - 1.0)) < 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_layer_creating_a_register(self, seed):
        layer = random_mixed_layer(np.random.default_rng(seed), 0)
        scalar = DensityMatrix.basis_state(0, 0)
        fast = apply_layer(layer, scalar)
        assert fast.qubits == layer.out_width > 0
        assert np.max(np.abs(fast.mat - assembled_layer_oracle(layer, scalar))) < 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_run_noisy_matches_former_kraus_block_path(self, seed):
        rng = np.random.default_rng(seed)
        width = int(rng.integers(2, 6))
        circ = random_mixed_circuit(seed, width, depth=4)
        eta = float(rng.uniform(0.1, 0.9))
        rho = random_density(width, rng)
        fast = run_noisy(circ, eta, rho).levels
        slow = kraus_block_run_noisy(circ, eta, rho)
        assert [s.qubits for s in fast] == list(circ.widths)
        for a, b in zip(fast, slow):
            assert np.max(np.abs(a.mat - b.mat)) < 1e-12

    @pytest.mark.parametrize("width", [6, 7, 8])
    @pytest.mark.parametrize("seed", range(4))
    def test_wide_mixed_layers_match_kraus_block_path(self, width, seed):
        rng = np.random.default_rng(100 * width + seed)
        layer = random_mixed_layer(rng, width, max_out=width + 1)
        rho = random_density(width, rng)
        fast = apply_layer(layer, rho)
        slow = kraus_block_apply_layer(layer, rho)
        assert fast.qubits == slow.qubits == layer.out_width
        assert np.max(np.abs(fast.mat - slow.mat)) < 1e-12

    def test_each_gate_but_the_identities_runs_one_transfer_matrix(self, rng):
        def unitary(qubits):
            return channel_from_unitary(haar_unitary(qubits, rng))

        gates = (
            PlacedGate(unitary(2), (1, 2), (1, 2)),
            PlacedGate(unitary(2), (4, 6), (4, 6)),
            PlacedGate(unitary(1), (0,), (0,)),
            PlacedGate(unitary(1), (3,), (3,)),
            PlacedGate(GATES["DEPHASE"], (5,), (5,)),
            PlacedGate(GATES["PREP_PLUS"], (), (7,)),
            PlacedGate(GATES["PREP0"], (), (8,)),
        )
        layer = CircuitLayer(7, 9, gates)
        rho = random_density(7, rng)
        fast = apply_layer(layer, rho)
        # growing gates run last; every transfer matrix keeps the trace
        transfers = layer._plan.transfers
        assert [r.shape for r in transfers] == [(16, 16)] * 2 + [(4, 4)] * 3 + [(4, 1)] * 2
        assert all(np.array_equal(r[0], np.eye(1, r.shape[1])[0]) for r in transfers)
        assert np.max(np.abs(fast.mat - assembled_layer_oracle(layer, rho))) < 1e-12

    def test_a_gate_wider_than_the_cap_is_a_resource_error(self):
        # its R would hold 4**(6 + 6) numbers, more than a state at the cap of 10
        wires = tuple(range(6))
        layer = CircuitLayer(6, 6, (PlacedGate(channel_from_unitary(np.eye(64)), wires, wires),))
        with pytest.raises(ResourceLimitError, match="fan-in plus fan-out, as a width 12 exceeds the cap 10"):
            apply_layer(layer, DensityMatrix.basis_state(6, 0))

    def test_a_five_qubit_unitary_fits_the_default_cap(self, rng):
        wires = tuple(range(5))
        layer = CircuitLayer(5, 5, (PlacedGate(channel_from_unitary(haar_unitary(5, rng)), wires, wires),))
        rho = random_density(5, rng)
        assert [r.shape for r in layer._plan.transfers] == [(1024, 1024)]
        assert np.max(np.abs(apply_layer(layer, rho).mat - assembled_layer_oracle(layer, rho))) < 1e-12

    def test_implicit_identity_wires_add_no_factor(self, rng):
        c = parse_circuit("k 2\nwidth 6\nlayer\ngate H [1] -> [1]\ngate CNOT [2,4] -> [2,4]\n")
        layer = c.layers[0]
        assert [g.inputs for g in layer.gates if g.channel is GATES["I"]] == [(0,), (3,), (5,)]
        plan = layer._plan
        # the I wires lead the leg order with no matrix; H runs first, on the trailing leg
        assert plan.in_perm == (0, 3, 5, 2, 4, 1)
        assert [r.shape for r in plan.transfers] == [(4, 4), (16, 16)]
        rho = random_density(6, rng)
        assert np.max(np.abs(apply_layer(layer, rho).mat - assembled_layer_oracle(layer, rho))) < 1e-12

    def test_an_empty_layer_block_holds_no_matrix_and_copies_once(self, rng):
        layer = parse_circuit("k 1\nwidth 3\nlayer\n").layers[0]
        assert len(layer.gates) == 3 and layer._plan.transfers == ()
        rho = depolarize_all(random_density(3, rng), 0.2)  # held as coefficients
        out = apply_layer(layer, rho)
        assert np.array_equal(out.pauli, rho.pauli)
        assert not np.shares_memory(out.pauli, rho.pauli)

    @pytest.mark.parametrize("where", ["first", "middle", "last", "all"])
    @pytest.mark.parametrize("width", range(7))
    def test_identity_gates_anywhere_match_the_assembled_tensor(self, width, where):
        """Identity wires, some moving their qubit, first, in the middle or
        last in the gate list, beside unitaries, ``DEPHASE`` and a
        preparation; or a layer of identity wires only."""
        rng = np.random.default_rng(10 * width + len(where))
        qubits = [int(q) for q in rng.permutation(width)]
        cut = width if where == "all" else int(rng.integers(min(width, 1), width + 1))
        identities = [(GATES["I"], (q,)) for q in qubits[:cut]]
        others, rest = [], qubits[cut:]
        while rest:
            size = int(rng.integers(1, min(2, len(rest)) + 1))
            block, rest = tuple(sorted(rest[:size])), rest[size:]
            if size == 1 and rng.random() < 0.3:
                others.append((GATES["DEPHASE"], block))
            else:
                others.append((channel_from_unitary(haar_unitary(size, rng)), block))
        if where != "all":
            others.append((GATES["PREP_PLUS"], ()))
        half = len(others) // 2
        wired = {
            "first": identities + others,
            "middle": others[:half] + identities + others[half:],
            "last": others + identities,
            "all": identities,
        }[where]
        out_width = sum(c.out_qubits for c, _ in wired)
        slots = [int(q) for q in rng.permutation(out_width)]
        gates = []
        for channel, block in wired:
            outs, slots = tuple(sorted(slots[: channel.out_qubits])), slots[channel.out_qubits :]
            gates.append(PlacedGate(channel, block, outs))
        layer = CircuitLayer(width, out_width, tuple(gates))
        # one transfer matrix per gate that is not an identity wire
        assert len(layer._plan.transfers) == len(others)
        rho = random_density(width, rng)
        fast = apply_layer(layer, rho)
        assert fast.qubits == out_width
        assert np.max(np.abs(fast.mat - assembled_layer_oracle(layer, rho))) < 1e-12

    @pytest.mark.parametrize(
        "shapes", [[(1, 2)], [(2, 1)], [(0, 1)], [(1, 2), (2, 1)], [(0, 1), (1, 2)], [(2, 1), (0, 1)]]
    )
    @pytest.mark.parametrize("terms", [2, 3, 4])
    def test_non_square_multi_kraus_channels(self, shapes, terms):
        # with two channels the second one in block order sits after pre > 1 rows
        rng = np.random.default_rng(10 * terms + len(shapes))
        channels = [random_channel(i, o, terms, rng) for i, o in shapes]
        layer = layer_with_channels(rng, 4, channels)
        rho = random_density(4, rng)
        fast = apply_layer(layer, rho)
        assert fast.qubits == layer.out_width
        assert np.max(np.abs(fast.mat - assembled_layer_oracle(layer, rho))) < 1e-12

    def test_width_nine_layer_with_dephase_and_traceout(self, rng):
        def unitary(qubits):
            return channel_from_unitary(haar_unitary(qubits, rng))

        gates = (
            PlacedGate(GATES["DEPHASE"], (0,), (0,)),
            PlacedGate(unitary(2), (1, 2), (1, 2)),
            PlacedGate(unitary(1), (3,), (3,)),
            PlacedGate(GATES["TRACEOUT"], (4,), ()),
            PlacedGate(GATES["PREP0"], (), (4,)),
            PlacedGate(unitary(2), (5, 7), (5, 7)),
            PlacedGate(unitary(1), (6,), (6,)),
            PlacedGate(GATES["DEPHASE"], (8,), (8,)),
        )
        layer = CircuitLayer(9, 9, gates)
        rho = random_density(9, rng)
        fast = apply_layer(layer, rho)
        slow = kraus_block_apply_layer(layer, rho)
        assert np.max(np.abs(fast.mat - slow.mat)) < 1e-12

    def test_plan_is_built_once_and_reruns_are_bitwise_equal(self, monkeypatch, rng):
        built = []
        compile_layer = decolab.circuit._compile_layer

        def counting(layer):
            built.append(layer)
            return compile_layer(layer)

        monkeypatch.setattr(decolab.circuit, "_compile_layer", counting)
        circ = random_mixed_circuit(11, 5, depth=4)
        rho = random_density(5, rng)
        first = run_noisy(circ, 0.3, rho).levels
        second = run_noisy(circ, 0.3, rho).levels
        assert len(first) == len(second) == circ.depth + 1
        for a, b in zip(first, second):
            assert np.array_equal(a.mat, b.mat)
        assert len(built) == circ.depth
        assert all(a is b for a, b in zip(built, circ.layers))

    def test_width_changing_layer(self, rng):
        # trace out qubit 0, keep qubit 1, append a fresh |+>
        layer = CircuitLayer(
            2,
            2,
            (
                PlacedGate(GATES["TRACEOUT"], (0,), ()),
                PlacedGate(GATES["I"], (1,), (0,)),
                PlacedGate(GATES["PREP_PLUS"], (), (1,)),
            ),
        )
        rho = random_density(2, rng)
        out = apply_layer(layer, rho)
        from decolab.linalg import partial_trace

        kept = partial_trace(rho, [1]).mat
        plus = np.full((2, 2), 0.5, dtype=complex)
        assert np.max(np.abs(out.mat - np.kron(kept, plus))) < 1e-12

    def test_gate_wiring_must_match_arity(self):
        with pytest.raises(CircuitError, match="takes"):
            PlacedGate(GATES["CNOT"], (0,), (0,))

    def test_layer_partitions_checked(self):
        with pytest.raises(CircuitError, match="claimed by two"):
            CircuitLayer(
                2,
                2,
                (PlacedGate(GATES["I"], (0,), (0,)), PlacedGate(GATES["CNOT"], (0, 1), (0, 1))),
            )

    def test_circuit_fanin_checked(self):
        layer = CircuitLayer(2, 2, (PlacedGate(GATES["CNOT"], (0, 1), (0, 1)),))
        with pytest.raises(CircuitError, match="fan-in"):
            Circuit(k=1, in_width=2, layers=(layer,))

    def test_layer_width_chaining_checked(self):
        l1 = CircuitLayer(1, 1, (PlacedGate(GATES["I"], (0,), (0,)),))
        l2 = CircuitLayer(2, 2, (PlacedGate(GATES["CNOT"], (0, 1), (0, 1)),))
        with pytest.raises(CircuitError, match="width"):
            Circuit(k=2, in_width=1, layers=(l1, l2))


class TestPauliStatePath:
    """Health of the coefficient path: ``c_I`` stays exactly 1, every matrix
    the simulator builds is exactly Hermitian, and a channel that breaks the
    trace raises instead of being renormalized."""

    @pytest.mark.parametrize("seed", range(4))
    def test_trace_is_exact_and_matrices_hermitian_at_every_level(self, seed):
        rng = np.random.default_rng(seed)
        width = int(rng.integers(2, 6))
        runs = [
            (mixed_circuit(rng, width, 4, ("DEPHASE", "REFRESH")), random_density(width, rng)),
            (random_mixed_circuit(seed, width, depth=4), random_density(width, rng)),
        ]
        for circ, rho in runs:
            levels = run_noisy(circ, 0.3, rho, extra_noise_round=bool(seed % 2)).levels
            assert [level.qubits for level in levels] == list(circ.widths)
            assert all(level.pauli[0] == 1.0 for level in levels)
            for level in levels[1:]:
                assert np.array_equal(level.mat, level.mat.conj().T)

    @pytest.mark.parametrize("kraus", [0.9 * np.eye(2), np.array([[1, 0], [0, np.nan]])])
    def test_a_channel_that_breaks_the_trace_raises_on_first_application(self, kraus, rng):
        layer = CircuitLayer(1, 1, (PlacedGate(QuantumChannel(1, 1, (kraus,)), (0,), (0,)),))
        with pytest.raises(ArithmeticError, match="trace drifted by"):
            apply_layer(layer, random_density(1, rng))

    def test_small_drift_is_pinned_to_an_exact_trace(self, rng):
        nearly = QuantumChannel(1, 1, ((1 + 1e-8) * np.eye(2),))
        layer = CircuitLayer(1, 1, (PlacedGate(nearly, (0,), (0,)),))
        out = apply_layer(layer, random_density(1, rng))
        assert out.pauli[0] == 1.0 and np.trace(out.mat).real == 1.0


class TestBuffers:
    """The simulator updates fresh buffers in place and freezes them without a
    copy; neither may write into an input or let two states share memory."""

    def test_inputs_are_left_unchanged(self, rng):
        rho = random_density(4, rng)
        before = rho.mat.copy()
        layer = random_mixed_layer(np.random.default_rng(5), 4)
        outputs = [
            depolarize_qubit(rho, 2, 0.4),
            depolarize_all(rho, 0.4),
            apply_layer(layer, rho),
        ]
        assert np.array_equal(rho.mat, before) and not rho.mat.flags.writeable
        for out in outputs:
            assert not np.shares_memory(out.mat, rho.mat)

    @pytest.mark.parametrize("extra", [False, True])
    def test_levels_are_locked_and_disjoint(self, rng, extra):
        circ = random_mixed_circuit(3, 4, depth=5)
        traj = run_noisy(circ, 0.3, random_density(4, rng), extra_noise_round=extra)
        for i, level in enumerate(traj.levels):
            assert not level.mat.flags.writeable
            with pytest.raises(ValueError):
                level.mat[0, 0] = 0.0
            for other in traj.levels[i + 1 :]:
                assert not np.shares_memory(level.mat, other.mat)


class TestRandomCircuit:
    def test_deterministic_for_fixed_seed(self):
        a = random_circuit(2, 4, 5, seed=7)
        b = random_circuit(2, 4, 5, seed=7)
        assert circuits_equal(a, b)

    def test_seed_changes_circuit(self):
        a = random_circuit(2, 4, 5, seed=7)
        b = random_circuit(2, 4, 5, seed=8)
        assert not circuits_equal(a, b)

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=20)
    def test_structure_and_gate_validity(self, seed):
        c = random_circuit(2, 4, 3, seed)
        assert c.widths == (4,) * 4
        for layer in c.layers:
            for gate in layer.gates:
                assert gate.channel.in_qubits <= 2
                assert channel_validate(gate.channel) <= KRAUS_TOL

    def test_k_one_circuits_are_single_qubit_layers(self):
        c = random_circuit(1, 3, 4, seed=3)
        for layer in c.layers:
            assert all(g.channel.in_qubits == 1 for g in layer.gates)

    def test_rejects_unsupported_fanin(self):
        with pytest.raises(ValueError):
            random_circuit(4, 3, 2, seed=0)


class TestTrajectoryExport:
    def test_csv_and_state_file(self, tmp_path):
        c = parse_circuit(BELL_TEXT)
        traj = run_noisy(c, 0.3, DensityMatrix.basis_state(2, 0))
        csv_path = tmp_path / "traj.csv"
        states_path = tmp_path / "states.txt"
        export_trajectory(traj, str(csv_path), str(states_path))
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "level,n_i"
        assert lines[1:] == ["0,2", "1,2", "2,2"]
        state_lines = states_path.read_text().splitlines()
        assert len(state_lines) == 3
        first = [complex(tok.replace("i", "j")) for tok in state_lines[0].split()]
        assert np.array_equal(
            np.array(first).reshape(4, 4), traj.levels[0].mat
        )
