import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from decolab.channels import (
    GATES,
    QuantumChannel,
    channel_from_unitary,
    channel_validate,
    depolarize_all,
    random_channel,
)
from decolab.config import KRAUS_TOL, ResourceLimitError
from decolab.linalg import DensityMatrix, random_density, trace_distance

from oracles import (
    channel_apply,
    channel_tensor,
    dense_partial_trace,
    depolarize_qubit,
    depolarizing_kraus_channel,
    identity_channel,
    permute_matrix,
    tensor,
    validate_density,
)

LIBRARY_NAMES = [
    "I", "X", "Y", "Z", "H", "S", "T", "CNOT", "CZ", "SWAP", "TOFFOLI",
    "PREP0", "PREP1", "PREP_PLUS", "TRACEOUT", "DEPHASE",
]


class TestDepolarizeQubit:
    def test_zero_noise_is_identity(self):
        rho = DensityMatrix.basis_state(1, 0)
        assert np.array_equal(depolarize_qubit(rho, 0, 0.0).mat, rho.mat)

    def test_full_noise_gives_maximally_mixed(self):
        rho = DensityMatrix.basis_state(1, 0)
        assert np.allclose(depolarize_qubit(rho, 0, 1.0).mat, np.eye(2) / 2, atol=1e-15)

    def test_half_noise_hand_value(self):
        out = depolarize_qubit(DensityMatrix.basis_state(1, 0), 0, 0.5)
        assert np.allclose(out.mat, np.diag([0.75, 0.25]), atol=1e-15)

    def test_rate_composition_law(self, rng):
        rho = random_density(2, rng)
        a, b = 0.3, 0.45
        twice = depolarize_qubit(depolarize_qubit(rho, 1, a), 1, b)
        once = depolarize_qubit(rho, 1, 1 - (1 - a) * (1 - b))
        assert np.max(np.abs(twice.mat - once.mat)) < 1e-10

    def test_preserves_trace_exactly(self, rng):
        rho = random_density(3, rng)
        out = depolarize_qubit(rho, 2, 0.37)
        assert abs(np.trace(out.mat) - 1.0) < 1e-14

    def test_bad_arguments(self, rng):
        rho = random_density(1, rng)
        with pytest.raises(ValueError):
            depolarize_qubit(rho, 1, 0.5)
        with pytest.raises(ValueError):
            depolarize_qubit(rho, 0, 1.5)

    @given(seed=st.integers(0, 10**6), eta=st.floats(0.0, 1.0))
    def test_matches_pauli_kraus_form(self, seed, eta):
        rng = np.random.default_rng(seed)
        rho = random_density(1, rng)
        affine = depolarize_qubit(rho, 0, eta)
        kraus = channel_apply(depolarizing_kraus_channel(eta), rho)
        assert np.max(np.abs(affine.mat - kraus.mat)) < 1e-10


class TestDepolarizeAll:
    def test_eta_zero(self, rng):
        rho = random_density(2, rng)
        assert np.array_equal(depolarize_all(rho, 0.0).mat, rho.mat)

    def test_eta_one_forgets_everything(self, rng):
        rho = random_density(2, rng)
        assert np.allclose(depolarize_all(rho, 1.0).mat, np.eye(4) / 4, atol=1e-14)

    def test_mixed_state_is_a_fixed_point(self):
        mixed = DensityMatrix.maximally_mixed(3)
        out = depolarize_all(mixed, 0.42)
        assert np.max(np.abs(out.mat - mixed.mat)) < 1e-12

    def test_order_independence(self, rng):
        rho = random_density(3, rng)
        eta = 0.3
        forward = rho
        for q in range(3):
            forward = depolarize_qubit(forward, q, eta)
        backward = rho
        for q in reversed(range(3)):
            backward = depolarize_qubit(backward, q, eta)
        assert np.max(np.abs(forward.mat - backward.mat)) < 1e-10
        assert np.max(np.abs(depolarize_all(rho, eta).mat - forward.mat)) < 1e-10

    def test_bell_state_binomial_expansion(self):
        # brute-force mixture over which qubits survived the noise round
        eta = 0.5
        bell = DensityMatrix.pure([1, 0, 0, 1])
        expected = np.zeros((4, 4), dtype=complex)
        for kept in ([], [0], [1], [0, 1]):
            weight = eta ** (2 - len(kept)) * (1 - eta) ** len(kept)
            reduced = dense_partial_trace(bell.mat, kept)
            pad = 2 - len(kept)
            term = tensor(reduced, np.eye(2**pad) / 2**pad)
            blocks = list(kept) + [q for q in range(2) if q not in kept]
            perm = [blocks.index(j) for j in range(2)]
            expected += weight * permute_matrix(term, perm)
        out = depolarize_all(bell, eta)
        assert np.max(np.abs(out.mat - expected)) < 1e-12


class TestChannelFromUnitary:
    def test_identity_channel(self, rng):
        rho = random_density(1, rng)
        out = channel_apply(channel_from_unitary(np.eye(2, dtype=complex)), rho)
        assert np.max(np.abs(out.mat - rho.mat)) < 1e-12

    def test_hadamard_makes_plus_state(self):
        out = channel_apply(GATES["H"], DensityMatrix.basis_state(1, 0))
        assert np.allclose(out.mat, np.full((2, 2), 0.5), atol=1e-12)

    def test_cnot_flips_target_when_control_set(self):
        out = channel_apply(GATES["CNOT"], DensityMatrix.basis_state(2, 0b10))
        assert np.allclose(out.mat, DensityMatrix.basis_state(2, 0b11).mat, atol=1e-12)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            channel_from_unitary(np.diag([1.0, 0.5]).astype(complex))

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            channel_from_unitary(np.eye(3, dtype=complex))


class TestPrepChannels:
    def test_prep0_on_scalar(self):
        out = channel_apply(GATES["PREP0"], DensityMatrix.basis_state(0, 0))
        assert np.allclose(out.mat, np.diag([1.0, 0.0]), atol=1e-15)

    def test_prep_extends_register(self, rng):
        rho = random_density(2, rng)
        extended = channel_apply(
            channel_tensor([identity_channel(2), GATES["PREP0"]]), rho
        )
        assert extended.qubits == 3
        assert np.allclose(extended.mat, tensor(rho.mat, np.diag([1.0, 0.0])), atol=1e-12)

    def test_prep_plus_is_complete(self):
        assert channel_validate(GATES["PREP_PLUS"]) <= KRAUS_TOL


class TestChannelApply:
    def test_traceout_yields_scalar_one(self, rng):
        out = channel_apply(GATES["TRACEOUT"], random_density(1, rng))
        assert out.qubits == 0
        assert abs(out.mat[0, 0] - 1.0) < 1e-12

    def test_dephase_kills_coherences(self):
        plus = DensityMatrix.pure([1, 1])
        out = channel_apply(GATES["DEPHASE"], plus)
        assert np.allclose(out.mat, np.eye(2) / 2, atol=1e-12)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError, match="expects"):
            channel_apply(GATES["H"], random_density(2, rng))

    @given(seed=st.integers(0, 10**6))
    def test_preserves_trace_and_psd(self, seed):
        rng = np.random.default_rng(seed)
        channel = random_channel(2, 2, 3, rng)
        out = channel_apply(channel, random_density(2, rng))
        assert validate_density(out.mat).ok


class TestChannelValidate:
    def test_identity_is_valid(self):
        assert channel_validate(identity_channel(1)) == 0.0

    def test_scaled_identity_fails_completeness(self):
        broken = QuantumChannel(1, 1, (0.5 * np.eye(2, dtype=complex),))
        assert channel_validate(broken) == pytest.approx(0.75, abs=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_kraus_entry_raises(self, bad):
        k = np.eye(2, dtype=complex)
        k[0, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # and no numpy warning first
            with pytest.raises(ArithmeticError, match="non-finite"):
                channel_validate(QuantumChannel(1, 1, (k,), label="BAD"))

    def test_every_library_gate_is_valid(self):
        assert sorted(GATES) == sorted(LIBRARY_NAMES)
        for name in LIBRARY_NAMES:
            assert channel_validate(GATES[name]) <= KRAUS_TOL, name


class TestChannelTensor:
    def test_identity_parts(self, rng):
        combined = channel_tensor([identity_channel(1), identity_channel(1)])
        rho = random_density(2, rng)
        assert np.max(np.abs(channel_apply(combined, rho).mat - rho.mat)) < 1e-12

    def test_h_tensor_x_on_00(self):
        combined = channel_tensor([GATES["H"], GATES["X"]])
        out = channel_apply(combined, DensityMatrix.basis_state(2, 0))
        plus = np.full((2, 2), 0.5, dtype=complex)
        one = np.diag([0.0, 1.0]).astype(complex)
        assert np.allclose(out.mat, tensor(plus, one), atol=1e-12)

    def test_prep_then_identity_prepends_qubit(self, rng):
        rho = random_density(1, rng)
        combined = channel_tensor([GATES["PREP0"], identity_channel(1)])
        out = channel_apply(combined, rho)
        assert np.allclose(out.mat, tensor(np.diag([1.0, 0.0]), rho.mat), atol=1e-12)

    def test_kraus_term_cap(self):
        # 4**5 = 1024 Kraus combinations > 256
        noisy = depolarizing_kraus_channel(0.5)
        with pytest.raises(ResourceLimitError, match="Kraus"):
            channel_tensor([noisy] * 5)

    def test_width_cap(self):
        with pytest.raises(ResourceLimitError):
            channel_tensor([identity_channel(7), identity_channel(7)])


class TestContractivity:
    def test_library_channels_contract_trace_distance(self, rng):
        for gate in GATES.values():
            for _ in range(200):
                rho = random_density(gate.in_qubits, rng)
                sigma = random_density(gate.in_qubits, rng)
                before = trace_distance(rho, sigma)
                after = trace_distance(
                    channel_apply(gate, rho), channel_apply(gate, sigma)
                )
                assert after <= before + 1e-9, gate.label

    @given(seed=st.integers(0, 10**6))
    def test_random_channels_contract(self, seed):
        rng = np.random.default_rng(seed)
        channel = random_channel(2, 1, 4, rng)
        rho, sigma = random_density(2, rng), random_density(2, rng)
        before = trace_distance(rho, sigma)
        after = trace_distance(channel_apply(channel, rho), channel_apply(channel, sigma))
        assert after <= before + 1e-9


class TestChannelConstruction:
    def test_needs_kraus_operators(self):
        with pytest.raises(ValueError, match="at least one"):
            QuantumChannel(1, 1, ())

    def test_shape_checked(self):
        with pytest.raises(ValueError, match="shape"):
            QuantumChannel(1, 1, (np.eye(4, dtype=complex),))

    def test_kraus_are_write_locked(self):
        with pytest.raises(ValueError):
            GATES["H"].kraus[0][0, 0] = 2.0
