import itertools
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import decolab
from decolab.channels import depolarize_all
from decolab.circuit import parse_circuit, run_noisy
from decolab.config import BLAS_THREADS_ENV, ResourceLimitError
from decolab.linalg import (
    DensityMatrix,
    _qubits_for_dim,
    check_subset,
    haar_unitary,
    limit_blas_threads,
    partial_trace,
    pauli_coefficients,
    pauli_matrices,
    random_density,
    trace_distance,
)
from oracles import (
    dense_partial_trace,
    dense_trace_distance,
    from_matrix,
    hermitian_part,
    mixed_circuit,
    permutation_unitary,
    permute_matrix,
    permute_qubits,
    tensor,
    tensor_all,
    validate_density,
)

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)


def _state(mat) -> DensityMatrix:
    return from_matrix(np.asarray(mat, dtype=complex))


def _rand_state(rng, qubits) -> DensityMatrix:
    return random_density(qubits, rng)


class TestTensor:
    def test_identity_case(self):
        assert np.array_equal(tensor(I2, I2), np.eye(4))

    def test_basis_projectors(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        b = np.diag([0.0, 1.0]).astype(complex)
        assert np.array_equal(tensor(a, b), np.diag([0.0, 1.0, 0.0, 0.0]))

    def test_xx_conjugation_flips_00_to_11(self):
        xx = tensor(X, X)
        rho00 = np.zeros((4, 4), dtype=complex)
        rho00[0, 0] = 1.0
        rho11 = np.zeros((4, 4), dtype=complex)
        rho11[3, 3] = 1.0
        assert np.allclose(xx @ rho00 @ xx.conj().T, rho11)

    def test_dimension_cap(self):
        big = np.eye(2**7, dtype=complex)
        with pytest.raises(ResourceLimitError):
            tensor(big, big)

    def test_tensor_all_empty_is_scalar(self):
        assert tensor_all([]).shape == (1, 1)


class TestPartialTrace:
    def test_keep_everything_is_identity(self, rng):
        rho = _rand_state(rng, 2)
        assert np.array_equal(partial_trace(rho, [0, 1]).mat, rho.mat)

    def test_bell_reduces_to_maximally_mixed(self):
        bell = DensityMatrix.pure([1, 0, 0, 1])
        red = partial_trace(bell, [0])
        assert np.allclose(red.mat, I2 / 2, atol=1e-12)

    def test_product_state_recovers_factor(self, rng):
        for _ in range(20):
            a, b = _rand_state(rng, 1), _rand_state(rng, 1)
            prod = DensityMatrix(2, tensor(a.mat, b.mat))
            assert np.allclose(partial_trace(prod, [0]).mat, a.mat, atol=1e-10)
            assert np.allclose(partial_trace(prod, [1]).mat, b.mat, atol=1e-10)

    def test_tensor_then_trace_roundtrip(self, rng):
        rho, sigma = _rand_state(rng, 2), _rand_state(rng, 1)
        prod = DensityMatrix(3, tensor(rho.mat, sigma.mat))
        back = partial_trace(prod, [0, 1])
        assert np.max(np.abs(back.mat - rho.mat)) < 1e-10

    def test_keep_order_is_register_order(self, rng):
        # qubit 0 of a 3-qubit register stays the leading factor of keep=[0, 2]
        a, b, c = (_rand_state(rng, 1) for _ in range(3))
        prod = DensityMatrix(3, tensor_all([a.mat, b.mat, c.mat]))
        red = partial_trace(prod, [0, 2])
        assert np.allclose(red.mat, tensor(a.mat, c.mat), atol=1e-10)

    def test_empty_keep_gives_scalar(self, rng):
        red = partial_trace(_rand_state(rng, 2), [])
        assert red.qubits == 0
        assert red.mat.shape == (1, 1)
        assert abs(red.mat[0, 0] - 1.0) < 1e-12

    @given(seed=st.integers(0, 10**6))
    def test_preserves_trace_and_psd(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_density(3, rng)
        red = partial_trace(rho, sorted(rng.choice(3, size=2, replace=False).tolist()))
        assert abs(np.trace(red.mat) - 1.0) < 1e-9
        assert np.linalg.eigvalsh(red.mat)[0] > -1e-8

    @pytest.mark.parametrize("qubits", range(6))
    def test_matches_the_matrix_partial_trace(self, qubits, rng):
        rho = _rand_state(rng, qubits)
        for size in range(qubits + 1):
            for keep in itertools.combinations(range(qubits), size):
                red = partial_trace(rho, keep)
                assert red.qubits == size
                assert np.max(np.abs(red.mat - dense_partial_trace(rho.mat, keep))) < 1e-15

    def test_reads_a_slice_of_the_coefficients(self, rng):
        rho = depolarize_all(_rand_state(rng, 3), 0.2)  # held as coefficients
        red = partial_trace(rho, [0, 2])
        assert np.array_equal(red.pauli, rho.pauli.reshape(4, 4, 4)[:, 0, :].reshape(-1))
        assert not np.shares_memory(red.pauli, rho.pauli) and not red.pauli.flags.writeable

    def test_out_of_range_rejected(self, rng):
        with pytest.raises(ValueError):
            partial_trace(_rand_state(rng, 2), [0, 2])

    def test_subset_must_increase(self):
        with pytest.raises(ValueError):
            check_subset([1, 0], 2)


def _recorded_eigvalsh(monkeypatch) -> tuple[list, object]:
    """Record every matrix ``eigvalsh`` solves; return the record and the
    unrecorded ``eigvalsh``."""
    seen = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: seen.append(m) or eigvalsh(m))
    return seen, eigvalsh


def _classical_state(mat: np.ndarray, qubit: int, refreshed: bool = False) -> DensityMatrix:
    """The state of ``mat`` with ``qubit`` measured, or, ``refreshed``, set to
    ``|0>``: its off-diagonal blocks zeroed, and its ``|1>`` half too."""
    m = np.array(mat)
    n = _qubits_for_dim(len(m))
    t = m.reshape(2**qubit, 2, 2 ** (n - 1 - qubit), 2**qubit, 2, 2 ** (n - 1 - qubit))
    t[:, 0, :, :, 1, :] = t[:, 1, :, :, 0, :] = 0
    if refreshed:
        t[:, 1, :, :, 1, :] = 0
        m /= np.trace(m).real
    return DensityMatrix(n, m)


class TestHermitianEigenvalues:
    """The spectrum behind ``trace_distance``: Hermitian blocks built from the
    coefficients of a state difference."""

    def test_pauli_x(self):
        # |+><+| - |-><-| is X, whose eigenvalues are -1 and 1
        plus, minus = DensityMatrix.pure([1, 1]), DensityMatrix.pure([1, -1])
        assert trace_distance(plus, minus) == pytest.approx(1.0, abs=1e-15)

    def test_pauli_y(self):
        # a qubit coupled by Y entries alone is not classical
        plus_i, minus_i = DensityMatrix.pure([1, 1j]), DensityMatrix.pure([1, -1j])
        assert trace_distance(plus_i, minus_i) == pytest.approx(1.0, abs=1e-15)

    def test_unitary_invariance(self, rng):
        a, b = _rand_state(rng, 2), _rand_state(rng, 2)
        u = haar_unitary(2, rng)
        turned = [_state(u @ s.mat @ u.conj().T) for s in (a, b)]
        assert abs(trace_distance(a, b) - trace_distance(*turned)) < 1e-12

    def test_reconstruction_sums(self, rng, monkeypatch):
        # the blocks' spectra, taken together, have the trace and the squared
        # norm of the whole difference
        a, b = (_classical_state(_rand_state(rng, 4).mat, 1) for _ in range(2))
        seen, eigvalsh = _recorded_eigvalsh(monkeypatch)
        trace_distance(a, b)
        assert [m.shape for m in seen] == [(2, 8, 8)]
        ev = eigvalsh(seen[0])
        diff = a.mat - b.mat
        assert abs(ev.sum() - np.trace(diff).real) < 1e-12
        assert abs((ev**2).sum() - np.trace(diff @ diff).real) < 1e-12

    def test_rejects_non_hermitian(self):
        lopsided = _state([[0.5, 0.25], [0.0, 0.5]])
        with pytest.raises(ValueError, match="Hermitian"):
            trace_distance(lopsided, DensityMatrix.maximally_mixed(1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1)])
    def test_non_finite_entry_is_a_numerical_failure(self, bad, where):
        m = np.eye(2, dtype=complex) / 2
        m[where] = m[where[::-1]] = bad
        with pytest.raises(ArithmeticError, match="non-finite"):
            trace_distance(_state(m), DensityMatrix.maximally_mixed(1))

    def test_exactly_hermitian_input_is_solved_as_given(self, rng, monkeypatch):
        # no classical qubit: one solve of the whole difference, whose matrix,
        # built from real coefficients, is exactly Hermitian with no residual pass
        a, b = _rand_state(rng, 3), _rand_state(rng, 3)
        seen, eigvalsh = _recorded_eigvalsh(monkeypatch)
        d = trace_distance(a, b)
        [m] = seen
        assert m.shape == (1, 8, 8) and np.array_equal(m, np.swapaxes(m, 1, 2).conj())
        assert d == 0.5 * float(np.abs(eigvalsh(m)).sum())
        assert abs(d - dense_trace_distance(a, b)) < 1e-12

    def test_nearly_hermitian_input_is_symmetrized(self, rng):
        h = np.array(_rand_state(rng, 3).mat)
        h[0, 1] += 1e-12
        other = _rand_state(rng, 3)
        d = trace_distance(_state(h), other)
        assert abs(d - dense_trace_distance(_state(hermitian_part(h)), other)) < 1e-12

    def test_residual_check_holds_one_temporary(self, rng):
        state = _rand_state(rng, 7)
        tracemalloc.start()
        try:
            state.pauli
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # m^H - m and its real moduli, freed before the conversion: 1.5
        # matrices; a check that held m^H, m - m^H and |m - m^H| took 2.5
        assert peak < 2 * state.mat.nbytes


def _output_pairs(last, width) -> list[tuple[DensityMatrix, DensityMatrix]]:
    """Pairs of three noisy outputs of a circuit whose last layer measures or
    refreshes qubits, and each output with the maximally mixed state."""
    rng = np.random.default_rng(width)
    circ = mixed_circuit(rng, width, 3, last)
    finals = [run_noisy(circ, 0.3, random_density(width, rng)).levels[-1] for _ in range(3)]
    mixed = DensityMatrix.maximally_mixed(width)
    return list(itertools.combinations(finals, 2)) + [(f, mixed) for f in finals]


class TestClassicalSplit:
    @pytest.mark.parametrize("width", range(1, 8))
    @pytest.mark.parametrize("last", [("DEPHASE",), ("REFRESH",), ("DEPHASE", "REFRESH")])
    def test_split_matches_the_whole_solve(self, last, width, monkeypatch):
        pairs = _output_pairs(last, width)
        seen, _ = _recorded_eigvalsh(monkeypatch)
        split = [trace_distance(a, b) for a, b in pairs]  # before .mat converts any state
        # the measured and refreshed qubits are classical in every difference
        assert all(m.shape[-1] < 2**width for m in seen)
        whole = [dense_trace_distance(a, b) for a, b in pairs]
        assert np.max(np.abs(np.subtract(split, whole))) <= 1e-12

    @pytest.mark.parametrize("width", [2, 6, 7])  # widths whose last layer keeps a quantum qubit
    def test_a_refreshed_qubits_zero_half_is_never_solved(self, width, monkeypatch):
        # the output pairs: against the maximally mixed state, a refreshed
        # qubit's |1> half is not zero
        pairs = _output_pairs(("REFRESH",), width)[:3]
        seen, _ = _recorded_eigvalsh(monkeypatch)
        for a, b in pairs:
            trace_distance(a, b)
        # every refreshed qubit is |0> in both states: only their all-|0> block is left
        assert seen and all(m.shape[0] == 1 and m.any() for m in seen)

    @pytest.mark.parametrize("width", range(8))
    def test_diagonal_states_need_no_solve(self, width, rng, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: pytest.fail("solved a diagonal"))
        p, q = rng.dirichlet(np.ones(2**width), size=2)
        d = trace_distance(DensityMatrix(width, np.diag(p)), DensityMatrix(width, np.diag(q)))
        assert d == pytest.approx(0.5 * np.abs(p - q).sum(), abs=1e-14)

    def test_blocks_are_merged_ascending(self, rng, monkeypatch):
        # qubit 0 is classical; its |1> block's coupling is away from its
        # first row and column.  The blocks' spectra, merged and sorted
        # ascending, are the whole difference's.
        low = np.diag([0.5, 0.25, 0.125, 0.125]).astype(complex)
        low[1, 2] = low[2, 1] = 0.1
        high = _rand_state(rng, 2).mat
        rho = _state(np.kron(np.diag([0.5, 0.0]), high) + np.kron(np.diag([0.0, 0.5]), low))
        sigma = DensityMatrix.maximally_mixed(3)
        seen, eigvalsh = _recorded_eigvalsh(monkeypatch)
        d = trace_distance(rho, sigma)
        assert [m.shape for m in seen] == [(2, 4, 4)]
        merged = np.sort(eigvalsh(seen[0]), axis=None)
        assert np.max(np.abs(merged - eigvalsh(rho.mat - sigma.mat))) <= 1e-12
        assert d == pytest.approx(0.5 * np.abs(merged).sum(), abs=1e-15)

    @pytest.mark.parametrize("flips", [1, 2])
    def test_a_tiny_coupling_keeps_the_whole_solve(self, flips, monkeypatch):
        # every qubit coupled, by far less than any tolerance, between indices
        # that differ in at least ``flips`` bits: each leg has X entries
        x = np.arange(64)[:, None] ^ np.arange(64)
        tiny = 1e-200 * (sum((x >> b) & 1 for b in range(6)) >= flips)
        flat = np.eye(64) / 64
        seen, _ = _recorded_eigvalsh(monkeypatch)
        d = trace_distance(_state(flat + tiny), _state(flat))
        assert [m.shape for m in seen] == [(1, 64, 64)]
        assert d > 0

    @pytest.mark.parametrize(
        "h",
        [
            [[0.5, 0.25j], [-0.25j, 0.5]],
            np.full((4, 4), 0.25),
            (np.eye(8) + np.full((8, 8), 1.0)) / 16,
        ],
    )
    def test_sizes_that_do_not_split_are_solved_whole(self, h, monkeypatch):
        # no qubit is classical against the maximally mixed state, at any
        # size: one solve of the whole difference
        rho = _state(h)
        seen, _ = _recorded_eigvalsh(monkeypatch)
        d = trace_distance(rho, DensityMatrix.maximally_mixed(rho.qubits))
        assert [m.shape for m in seen] == [(1,) + rho.mat.shape]
        assert abs(d - dense_trace_distance(rho, DensityMatrix.maximally_mixed(rho.qubits))) < 1e-15

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", [[(1, 2), (2, 1)], [(1, 2)]])
    def test_a_non_finite_coupling_is_never_zero(self, bad, where):
        # qubit 0 would be classical but for its off-diagonal block
        h = np.diag([0.5, 0.25, 0.125, 0.125]).astype(complex)
        for entry in where:
            h[entry] = bad
        mixed = DensityMatrix.maximally_mixed(2)
        with pytest.raises(ArithmeticError, match="non-finite"):
            trace_distance(_state(h), mixed)
        # held as coefficients: an X entry of qubit 0
        c = np.array(mixed.pauli)
        c[4] = bad
        with pytest.raises(ArithmeticError, match="non-finite"):
            trace_distance(DensityMatrix._from_pauli(2, c), mixed)

    @pytest.mark.parametrize("entry", [(2, 1), (0, 1)])
    def test_a_non_hermitian_matrix_is_refused(self, entry):
        # (2, 1): qubit 0's [1, 0] block without its [0, 1] adjoint;
        # (0, 1): a one-sided entry inside a block of the classical qubit 0
        h = np.diag([0.5, 0.25, 0.125, 0.125]).astype(complex)
        h[entry] = 0.1
        with pytest.raises(ValueError, match="Hermitian"):
            trace_distance(_state(h), DensityMatrix.maximally_mixed(2))

    @pytest.mark.parametrize("qubit", [0, 3, 6])
    @pytest.mark.parametrize("refreshed", [False, True])
    def test_split_holds_no_more_than_the_residual_check(self, qubit, refreshed, rng, monkeypatch):
        # one classical qubit of seven; in the middle, its blocks need a
        # gather; refreshed, its |1> half is zero and needs no solve
        given = [_classical_state(_rand_state(rng, 7).mat, qubit, refreshed) for _ in range(2)]
        # given as a matrix and not yet read: its first read converts it
        fresh = DensityMatrix(7, given[0].mat)
        matrix_bytes = fresh.mat.nbytes
        # held as coefficients, as the simulator holds its states
        held = [DensityMatrix._from_pauli(7, s.pauli.copy()) for s in given]
        trace_distance(*held)  # builds the cached sign table of the blocks' width
        seen, _ = _recorded_eigvalsh(monkeypatch)
        peaks = []
        for run in (lambda: fresh.pauli, lambda: trace_distance(*held)):
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert [m.shape for m in seen] == [(1 if refreshed else 2, 64, 64)]
        # measured: the residual check and conversion of a state given as a
        # matrix peak at 1.51 matrices, the split of two states held as
        # coefficients at 0.82-1.26
        check, split = peaks
        assert split < min(check, 1.3 * matrix_bytes)


def _wire_circuit(qubits: int):
    return parse_circuit(f"k 1\nwidth {qubits}\nlayer\n")


#: every way a state given as a matrix enters coefficient form
_ENTRY_POINTS = {
    "trace_distance": lambda s: trace_distance(s, DensityMatrix.maximally_mixed(s.qubits)),
    "partial_trace": lambda s: partial_trace(s, [0]),
    "run_noisy": lambda s: run_noisy(_wire_circuit(s.qubits), 0.3, s),
}


class TestStateContracts:
    @pytest.mark.parametrize("entry", _ENTRY_POINTS)
    def test_a_non_hermitian_state_is_refused(self, entry):
        m = np.eye(4, dtype=complex) / 4
        m[0, 3] = 1e-6  # beyond HERM_TOL, with no adjoint entry
        with pytest.raises(ValueError, match="not Hermitian"):
            _ENTRY_POINTS[entry](_state(m))

    @pytest.mark.parametrize("entry", _ENTRY_POINTS)
    def test_a_nan_state_is_a_numerical_failure(self, entry):
        m = np.eye(4, dtype=complex) / 4
        m[1, 2] = m[2, 1] = np.nan
        with pytest.raises(ArithmeticError, match="non-finite entry"):
            _ENTRY_POINTS[entry](_state(m))


class TestTraceDistance:
    def test_identical_states(self, rng):
        rho = _rand_state(rng, 2)
        assert trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure_states(self):
        assert trace_distance(
            DensityMatrix.basis_state(1, 0), DensityMatrix.basis_state(1, 1)
        ) == pytest.approx(1.0, abs=1e-12)

    def test_pure_vs_mixed_is_half(self):
        d = trace_distance(DensityMatrix.basis_state(1, 0), DensityMatrix.maximally_mixed(1))
        assert d == pytest.approx(0.5, abs=1e-12)

    def test_symmetric(self, rng):
        a, b = _rand_state(rng, 2), _rand_state(rng, 2)
        assert trace_distance(a, b) == pytest.approx(trace_distance(b, a), abs=1e-12)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError, match="mismatch"):
            trace_distance(_rand_state(rng, 1), _rand_state(rng, 2))

    @given(seed=st.integers(0, 10**6), p=st.floats(0.0, 1.0))
    def test_mixing_is_contractive(self, seed, p):
        rng = np.random.default_rng(seed)
        rho, sigma, tau = (random_density(2, rng) for _ in range(3))
        mixed_a = DensityMatrix(2, p * rho.mat + (1 - p) * sigma.mat)
        mixed_b = DensityMatrix(2, p * tau.mat + (1 - p) * sigma.mat)
        assert trace_distance(mixed_a, mixed_b) <= p * trace_distance(rho, tau) + 1e-9

    @given(seed=st.integers(0, 10**6), terms=st.integers(2, 5))
    def test_mixing_n_terms(self, seed, terms):
        rng = np.random.default_rng(seed)
        weights = rng.dirichlet(np.ones(terms))
        rhos = [random_density(1, rng) for _ in range(terms)]
        sigmas = [random_density(1, rng) for _ in range(terms)]
        mix_r = DensityMatrix(1, sum(w * r.mat for w, r in zip(weights, rhos)))
        mix_s = DensityMatrix(1, sum(w * s.mat for w, s in zip(weights, sigmas)))
        bound = sum(w * trace_distance(r, s) for w, r, s in zip(weights, rhos, sigmas))
        assert trace_distance(mix_r, mix_s) <= bound + 1e-9

    @given(seed=st.integers(0, 10**6))
    def test_triangle_inequality(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (random_density(2, rng) for _ in range(3))
        assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-9


class TestValidateDensity:
    def test_maximally_mixed_is_valid(self):
        assert validate_density(I2 / 2).ok

    def test_trace_violation(self):
        report = validate_density(np.diag([0.6, 0.6]).astype(complex))
        assert not report.ok
        assert report.residual("trace") == pytest.approx(0.2, abs=1e-12)
        assert report.residual("psd") is None

    def test_psd_violation(self):
        report = validate_density(np.array([[0.5, 0.6], [0.6, 0.5]], dtype=complex))
        assert report.residual("psd") == pytest.approx(0.1, abs=1e-12)
        assert report.residual("trace") is None

    def test_hermiticity_violation(self):
        report = validate_density(np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex))
        assert report.residual("hermitian") == pytest.approx(0.1, abs=1e-12)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            validate_density(np.zeros((2, 3), dtype=complex))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", [(0, 1), (1, 1)])
    def test_non_finite_entry_raises(self, bad, where):
        m = np.full((2, 2), 0.5, dtype=complex)
        m[where] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # and no numpy warning first
            with pytest.raises(ArithmeticError, match="non-finite"):
                validate_density(m)


class TestDensityMatrix:
    def test_dimension_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            from_matrix(np.eye(3, dtype=complex) / 3)

    def test_qubit_count_checked(self):
        with pytest.raises(ValueError):
            DensityMatrix(2, I2)

    def test_matrices_are_write_locked(self):
        rho = DensityMatrix.basis_state(1, 0)
        with pytest.raises(ValueError):
            rho.mat[0, 0] = 0.0

    @pytest.mark.parametrize("qubits", range(8))
    def test_maximally_mixed_is_exactly_identity_over_d(self, qubits):
        state = DensityMatrix.maximally_mixed(qubits)
        assert np.array_equal(state.pauli, np.eye(1, 4**qubits)[0])
        m = state.mat
        assert np.array_equal(m, np.eye(2**qubits) / 2**qubits) and not m.flags.writeable

    def test_pauli_renormalizes_small_trace_drift(self, rng):
        m = _rand_state(rng, 3).mat * (1 + 1e-9)
        c = DensityMatrix(3, m).pauli
        assert c[0] == 1.0 and not c.flags.writeable
        assert np.max(np.abs(c - pauli_coefficients(m) / (1 + 1e-9))) < 1e-15

    @pytest.mark.parametrize("qubits", range(1, 10))
    def test_matrix_from_coefficients_is_exactly_hermitian(self, qubits, rng):
        c = _rand_state(rng, qubits).pauli
        m = DensityMatrix._from_pauli(qubits, c.copy()).mat
        assert np.array_equal(m, m.conj().T) and not m.flags.writeable

    def test_width_is_read_only(self):
        with pytest.raises(AttributeError):
            DensityMatrix.basis_state(1, 0).qubits = 2

    def test_threads_reading_a_given_matrix_see_one_form(self, rng):
        m = _rand_state(rng, 4).mat
        reference = DensityMatrix(4, m).pauli
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                for _ in range(20):
                    state = DensityMatrix(4, m)
                    reads = list(pool.map(lambda i: state.mat if i % 2 else state.pauli, range(8)))
                    # converting the same matrix twice gives bitwise-equal coefficients
                    assert all(np.array_equal(c, reference) for c in reads[::2])
                    # the given matrix, or one built from the coefficients after a conversion
                    assert all(np.max(np.abs(r - m)) <= 1e-15 for r in reads[1::2])
                    # it ends up holding coefficients that one of the reads returned
                    assert any(state.pauli is c for c in reads[::2])
        finally:
            sys.setswitchinterval(interval)

    def test_reading_the_matrix_keeps_the_coefficients(self, rng):
        state = DensityMatrix._from_pauli(3, _rand_state(rng, 3).pauli.copy())
        c, m = state.pauli, state.mat
        assert state.pauli is c and state.mat is not m and np.array_equal(state.mat, m)

    def test_a_given_matrix_is_converted_once(self, rng, monkeypatch):
        convert, calls = decolab.linalg.pauli_coefficients, []
        monkeypatch.setattr(
            decolab.linalg, "pauli_coefficients", lambda m: calls.append(m.shape) or convert(m)
        )
        rho = _rand_state(rng, 3)
        partial_trace(rho, [0, 2])
        trace_distance(rho, DensityMatrix.maximally_mixed(3))
        decolab.analysis.check_noise_action(rho, (0, 1), 0.3)
        assert calls == [(8, 8)]

    def test_pauli_refuses_large_trace_drift(self):
        with pytest.raises(ArithmeticError, match="drifted to 1.2"):
            DensityMatrix(1, np.diag([0.7, 0.5]).astype(complex)).pauli

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_pauli_refuses_a_non_finite_trace(self, bad):
        with pytest.raises(ArithmeticError, match="drifted"):
            DensityMatrix(1, np.diag([bad, 0.5]).astype(complex)).pauli

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_pauli_refuses_a_non_finite_off_diagonal_entry(self, bad):
        m = np.full((2, 2), 0.5, dtype=complex)
        m[0, 1] = m[1, 0] = bad
        with pytest.raises(ArithmeticError, match="drifted to nan"):
            DensityMatrix(1, m).pauli


_PAULIS = [I2, X, np.array([[0, -1j], [1j, 0]]), np.diag([1.0 + 0j, -1.0])]


def _pauli_string(index: tuple[int, ...]) -> np.ndarray:
    return tensor_all([_PAULIS[i] for i in index]) if index else np.ones((1, 1), complex)


class TestPauliLayout:
    @pytest.mark.parametrize("qubits", range(5))
    def test_coefficients_are_traces_against_pauli_strings(self, qubits, rng):
        m = _rand_state(rng, qubits).mat
        strings = [_pauli_string(p) for p in itertools.product(range(4), repeat=qubits)]
        expected = [np.trace(p @ m).real for p in strings]
        assert np.max(np.abs(pauli_coefficients(m) - expected)) < 1e-14
        rebuilt = sum(c * p for c, p in zip(expected, strings)) / 2**qubits
        assert np.max(np.abs(pauli_matrices(np.array(expected)) - rebuilt)) < 1e-15

    def test_qubit_zero_is_the_leading_leg(self):
        # |0><0| (x) |+><+|: c_P = 1 for P in {II, IX, ZI, ZX}
        m = np.kron(np.diag([1.0, 0.0]), np.full((2, 2), 0.5)).astype(complex)
        c = pauli_coefficients(m)
        assert np.flatnonzero(np.abs(c) > 1e-15).tolist() == [0, 1, 12, 13]

    @pytest.mark.parametrize("qubits", range(7))
    def test_round_trip(self, qubits, rng):
        m = _rand_state(rng, qubits).mat
        c = pauli_coefficients(m)
        assert c.shape == (4**qubits,) and c.dtype == np.float64
        back = pauli_matrices(c)
        assert back.shape == m.shape and back.flags.c_contiguous
        assert np.max(np.abs(back - m)) < 1e-15


class TestPermutations:
    def test_swap_two_qubits_matches_gather(self, rng):
        rho = _rand_state(rng, 2)
        swapped = permute_qubits(rho, [1, 0])
        p = permutation_unitary([1, 0])
        assert np.allclose(swapped.mat, p @ rho.mat @ p.conj().T, atol=1e-12)

    def test_all_three_qubit_permutations(self, rng):
        import itertools

        rho = _rand_state(rng, 3)
        for perm in itertools.permutations(range(3)):
            gathered = permute_qubits(rho, perm)
            p = permutation_unitary(perm)
            assert np.allclose(gathered.mat, p @ rho.mat @ p.conj().T, atol=1e-12)

    def test_permutation_moves_basis_factors(self, rng):
        a, b, c = (_rand_state(rng, 1) for _ in range(3))
        prod = DensityMatrix(3, tensor_all([a.mat, b.mat, c.mat]))
        rolled = permute_qubits(prod, [2, 0, 1])
        assert np.allclose(rolled.mat, tensor_all([c.mat, a.mat, b.mat]), atol=1e-12)

    def test_rejects_non_permutation(self, rng):
        with pytest.raises(ValueError):
            permute_qubits(_rand_state(rng, 2), [0, 0])

    @pytest.mark.parametrize("qubits", range(6))
    def test_permute_matrix_matches_unitary(self, qubits, rng):
        # non-Hermitian input, so a stray transpose shows
        dim = 2**qubits
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        for _ in range(6):
            perm = [int(q) for q in rng.permutation(qubits)]
            p = permutation_unitary(perm)
            out = permute_matrix(m, perm)
            assert np.array_equal(out, p @ m @ p.conj().T)
            assert not np.shares_memory(out, m)


class TestHaarUnitary:
    def test_unitarity(self, rng):
        for qubits in (1, 2, 3):
            u = haar_unitary(qubits, rng)
            assert np.max(np.abs(u.conj().T @ u - np.eye(2**qubits))) < 1e-12


# prints the thread count of every OpenBLAS loaded once decolab is imported
_THREADS_PROBE = """
import ctypes, json, decolab
names = [f"{p}openblas_get_num_threads{s}" for p in ("", "scipy_") for s in ("", "64_")]
with open("/proc/self/maps") as fh:
    paths = sorted({line.split(maxsplit=5)[5].strip() for line in fh if "openblas" in line})
getters = [next(getattr(lib, n) for n in names if hasattr(lib, n)) for lib in map(ctypes.CDLL, paths)]
for getter in getters:
    getter.argtypes, getter.restype = [], ctypes.c_int
print(json.dumps([getter() for getter in getters]))
"""


def _blas_threads_after_import(**env: str) -> list[int]:
    if not os.path.exists("/proc/self/maps"):
        pytest.skip("no /proc/self/maps to find the BLAS library by")
    child = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS_ENV}
    src = os.path.dirname(os.path.dirname(os.path.abspath(decolab.__file__)))
    child["PYTHONPATH"] = os.pathsep.join(filter(None, [src, child.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _THREADS_PROBE],
        env={**child, **env},
        capture_output=True,
        text=True,
        check=True,
    )
    counts = json.loads(out.stdout)
    if not counts:
        pytest.skip("numpy is not linked against OpenBLAS here")
    return counts


class TestBlasThreads:
    def test_import_sets_one_thread(self):
        counts = _blas_threads_after_import()
        assert counts == [1] * len(counts)

    def test_environment_count_wins(self):
        counts = _blas_threads_after_import(OPENBLAS_NUM_THREADS="2")
        assert counts == [2] * len(counts)

    def test_rejects_zero_threads(self):
        with pytest.raises(ValueError, match="threads"):
            limit_blas_threads(0)
