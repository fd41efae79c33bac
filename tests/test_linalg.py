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
from decolab.circuit import run_noisy
from decolab.config import BLAS_THREADS_ENV, ResourceLimitError
from decolab.linalg import (
    DensityMatrix,
    check_subset,
    haar_unitary,
    hermitian_eigenvalues,
    limit_blas_threads,
    partial_trace,
    pauli_coefficients,
    pauli_matrices,
    permute_matrix,
    random_density,
    trace_distance,
)
from oracles import (
    from_matrix,
    hermitian_part,
    mixed_circuit,
    permutation_unitary,
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


class TestHermitianEigenvalues:
    def test_diagonal_sorted_ascending(self):
        ev = hermitian_eigenvalues(np.diag([3.0, 1.0, 2.0, 0.0]).astype(complex)[:3, :3])
        assert np.allclose(ev, [1.0, 2.0, 3.0])

    def test_pauli_x(self):
        assert np.allclose(hermitian_eigenvalues(X), [-1.0, 1.0])

    def test_unitary_invariance(self, rng):
        h = _rand_state(rng, 2).mat  # hermitian by construction
        u = haar_unitary(2, rng)
        ev1 = hermitian_eigenvalues(h)
        ev2 = hermitian_eigenvalues(u @ h @ u.conj().T)
        assert np.max(np.abs(ev1 - ev2)) < 1e-9

    def test_reconstruction_sums(self, rng):
        m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        h = (m + m.conj().T) / 2
        ev = hermitian_eigenvalues(h)
        assert abs(ev.sum() - np.trace(h).real) < 1e-9
        assert abs((ev**2).sum() - np.trace(h @ h).real) < 1e-8

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1)])
    def test_non_finite_entry_is_a_numerical_failure(self, bad, where):
        m = np.eye(2, dtype=complex) / 2
        m[where] = m[where[::-1]] = bad
        with np.errstate(invalid="ignore"), pytest.raises(ArithmeticError, match="non-finite"):
            hermitian_eigenvalues(m)

    def test_exactly_hermitian_input_is_solved_as_given(self, rng, monkeypatch):
        h = _rand_state(rng, 3).mat
        assert np.array_equal(h, h.conj().T)
        seen, eigvalsh = _recorded_eigvalsh(monkeypatch)
        assert np.array_equal(hermitian_eigenvalues(h), eigvalsh(h))
        assert seen[0] is h

    def test_nearly_hermitian_input_is_symmetrized(self, rng):
        h = np.array(_rand_state(rng, 3).mat)
        h[0, 1] += 1e-12
        assert np.array_equal(hermitian_eigenvalues(h), np.linalg.eigvalsh(hermitian_part(h)))

    def test_residual_check_holds_one_temporary(self, rng):
        h = _rand_state(rng, 7).mat
        tracemalloc.start()
        try:
            hermitian_eigenvalues(h)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # m^H - m and its real moduli; the former check held m^H, m - m^H
        # and |m - m^H|, 2.5 matrices
        assert peak < 2 * h.nbytes


def _output_differences(last, width) -> list[np.ndarray]:
    """Pair differences of three noisy outputs of a circuit whose last layer
    measures or refreshes qubits, and each output minus the maximally mixed
    state."""
    rng = np.random.default_rng(width)
    circ = mixed_circuit(rng, width, 3, last)
    finals = [run_noisy(circ, 0.3, random_density(width, rng)).levels[-1].mat for _ in range(3)]
    mixed = np.eye(2**width) / 2**width
    return [a - b for a, b in itertools.combinations(finals, 2)] + [f - mixed for f in finals]


def test_matrices_below_the_floor_are_solved_whole(monkeypatch):
    small, large = (_output_differences(("DEPHASE",), w)[0] for w in (5, 6))
    seen, eigvalsh = _recorded_eigvalsh(monkeypatch)
    assert np.array_equal(hermitian_eigenvalues(small), eigvalsh(small))
    assert len(seen) == 1 and seen[0] is small
    seen.clear()
    hermitian_eigenvalues(large)
    assert all(m.shape[-1] < large.shape[0] for m in seen)


class TestClassicalSplit:
    @pytest.fixture(autouse=True)
    def split_every_size(self, monkeypatch):
        monkeypatch.setattr(decolab.linalg, "_SPLIT_MIN_DIM", 1)

    @pytest.mark.parametrize("width", range(1, 8))
    @pytest.mark.parametrize("last", [("DEPHASE",), ("REFRESH",), ("DEPHASE", "REFRESH")])
    def test_split_matches_the_whole_solve(self, last, width, monkeypatch):
        seen, eigvalsh = _recorded_eigvalsh(monkeypatch)
        for diff in _output_differences(last, width):
            seen.clear()
            ev = hermitian_eigenvalues(diff)
            assert np.max(np.abs(ev - eigvalsh(diff))) <= 1e-12
            # the measured and refreshed qubits are classical in every difference
            assert all(m.shape[-1] < diff.shape[0] for m in seen)

    @pytest.mark.parametrize("width", range(1, 7))
    def test_diagonal_states_need_no_solve(self, width, rng, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: pytest.fail("solved a diagonal"))
        p, q = rng.dirichlet(np.ones(2**width), size=2)
        d = trace_distance(DensityMatrix(width, np.diag(p)), DensityMatrix(width, np.diag(q)))
        assert d == pytest.approx(0.5 * np.abs(p - q).sum(), abs=1e-14)

    def test_blocks_are_merged_ascending(self, rng):
        # qubit 0 is classical, and its |0> block's spectrum lies above its
        # |1> block's, whose coupling is away from its first row and column
        high = _rand_state(rng, 2).mat + 2 * np.eye(4)
        low = np.diag([0.5, 0.0, 0.0, 0.125]).astype(complex)
        low[1, 2] = low[2, 1] = 0.25
        h = np.kron(np.diag([1.0, 0.0]), high) + np.kron(np.diag([0.0, 1.0]), low)
        ev = hermitian_eigenvalues(h)
        assert np.all(np.diff(ev) >= 0)
        assert np.max(np.abs(ev - np.linalg.eigvalsh(h))) <= 1e-12

    @pytest.mark.parametrize("flips", [1, 2])
    def test_a_tiny_coupling_keeps_the_whole_solve(self, flips, monkeypatch):
        # every qubit coupled, by far less than any tolerance, between indices
        # that differ in at least ``flips`` bits: with 2, no entry h[i, i ^ bit]
        # is nonzero and only the block scan sees the coupling
        x = np.arange(64)[:, None] ^ np.arange(64)
        h = 1e-200 * (sum((x >> b) & 1 for b in range(6)) >= flips).astype(complex)
        seen, eigvalsh = _recorded_eigvalsh(monkeypatch)
        ev = hermitian_eigenvalues(h)
        assert np.array_equal(ev, eigvalsh(h))
        assert len(seen) == 1 and seen[0] is h
        assert 0.5 * np.abs(ev).sum() > 0

    @pytest.mark.parametrize(
        "h",
        [np.diag([0.5, -0.25, 0.0]), [[0.5, 0.25j, 0], [-0.25j, 0.5, 0], [0, 0, -1]], [[0.75]]],
    )
    def test_sizes_that_do_not_split_are_solved_whole(self, h, monkeypatch):
        h = np.array(h, dtype=complex)
        seen, eigvalsh = _recorded_eigvalsh(monkeypatch)
        assert np.array_equal(hermitian_eigenvalues(h), eigvalsh(h))
        assert len(seen) == 1 and seen[0] is h

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", [[(1, 2), (2, 1)], [(1, 2)]])
    def test_a_non_finite_coupling_is_never_zero(self, bad, where):
        # qubit 0 would be classical but for its off-diagonal block
        h = np.diag([0.5, 0.25, 0.125, 0.125]).astype(complex)
        for entry in where:
            h[entry] = bad
        with np.errstate(invalid="ignore"), pytest.raises(ArithmeticError, match="non-finite"):
            hermitian_eigenvalues(h)

    @pytest.mark.parametrize("entry", [(2, 1), (0, 1)])
    def test_a_non_hermitian_matrix_is_refused(self, entry):
        # (2, 1): qubit 0's [1, 0] block without its [0, 1] adjoint;
        # (0, 1): a one-sided entry inside a block of the classical qubit 0
        h = np.diag([0.5, 0.25, 0.125, 0.125]).astype(complex)
        h[entry] = 0.1
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_eigenvalues(h)

    @pytest.mark.parametrize("qubit", [0, 3, 6])
    @pytest.mark.parametrize("refreshed", [False, True])
    def test_split_holds_no_more_than_the_residual_check(self, qubit, refreshed, rng, monkeypatch):
        # one classical qubit of seven; in the middle, its blocks cannot be a
        # view; refreshed, its |1> half is zero and needs no solve
        diff = _rand_state(rng, 7).mat - _rand_state(rng, 7).mat
        t = diff.reshape(2**qubit, 2, 2 ** (6 - qubit), 2**qubit, 2, 2 ** (6 - qubit))
        t[:, 0, :, :, 1, :] = t[:, 1, :, :, 0, :] = 0
        if refreshed:
            t[:, 1, :, :, 1, :] = 0
        seen, _ = _recorded_eigvalsh(monkeypatch)
        tracemalloc.start()
        try:
            hermitian_eigenvalues(diff)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [m.shape for m in seen] == [(1 if refreshed else 2, 64, 64)]
        # the residual check's m^H - m and its moduli, 1.5 matrices, freed
        # before the blocks, which take at most half a matrix
        assert peak < 1.6 * diff.nbytes


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

    def test_adopt_freezes_without_copy_and_checks_the_buffer(self):
        buf = np.eye(4, dtype=complex) / 4
        state = DensityMatrix._adopt(2, buf)
        assert state.mat is buf and not buf.flags.writeable
        with pytest.raises(ValueError):
            DensityMatrix._adopt(1, np.eye(4, dtype=complex) / 4)
        with pytest.raises(ValueError):
            DensityMatrix._adopt(1, (np.eye(4, dtype=complex) / 2)[:2, :2])

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

    def test_threads_reading_one_state_share_its_matrix(self, rng):
        c = _rand_state(rng, 4).pauli
        reference = DensityMatrix._from_pauli(4, c.copy()).mat
        with ThreadPoolExecutor(4) as pool:
            for _ in range(20):
                state = DensityMatrix._from_pauli(4, c.copy())
                reads = list(pool.map(lambda i: state.mat if i % 2 else state.pauli, range(8)))
                assert all(np.array_equal(m, reference) for m in reads[1::2])
                # a read after another thread converted goes back through the matrix
                assert all(np.max(np.abs(p - c)) < 1e-15 for p in reads[::2])

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
