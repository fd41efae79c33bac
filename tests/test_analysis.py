import dataclasses
import gc
import itertools
import math
import os
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decolab.analysis import (
    BELOW_THRESHOLD,
    NEVER_WITHIN_CAP,
    analytic_bound,
    check_noise_action,
    distance_report,
    f_series,
    make_probes,
    max_profile,
    min_worthless_depth,
    noise_rounds_at_level,
    pairwise_profiles,
    practically_worthless,
    theta_and_threshold,
    worthless,
)
from decolab.channels import GATES, channel_from_unitary, channel_validate, random_channel
from decolab.circuit import (
    Circuit,
    CircuitLayer,
    PlacedGate,
    Trajectory,
    parse_circuit,
    random_circuit,
    run_noisy,
)
from decolab.config import UNITARY_TOL, ResourceLimitError
from decolab.linalg import (
    DensityMatrix,
    haar_unitary,
    limit_blas_threads,
    random_density,
    random_pure_state,
    trace_distance,
)

import decolab.analysis
import decolab.circuit
import decolab.linalg
from oracles import (
    dense_verdicts,
    full_enumeration_profiles,
    gate_only_step_bound,
    mixed_circuit,
    recursion_step_bound,
    serial_level_profiles,
)


def wire_circuit(depth: int) -> Circuit:
    return parse_circuit("k 1\nwidth 1\n" + "layer\ngate I [0] -> [0]\n" * depth)


class TestFSeries:
    def test_eta_one_saturates_immediately(self):
        series = f_series(3, 1.0, 4)
        assert series.f == (0.0, 1.0, 1.0, 1.0, 1.0)

    def test_hand_iterated_values_exact(self):
        series = f_series(2, 0.6, 2)
        assert series.f == (0.0, 0.36, 0.553536)

    def test_k_one_closed_form(self):
        eta, t = 0.35, 12
        series = f_series(1, eta, t)
        for i, f in enumerate(series.f):
            assert f == pytest.approx(1 - (1 - eta) ** i, abs=1e-14)

    @given(
        k=st.integers(1, 4),
        eta=st.floats(0.0, 1.0, allow_nan=False),
        t=st.integers(0, 50),
    )
    def test_invariants(self, k, eta, t):
        series = f_series(k, eta, t)
        assert series.f[0] == 0.0
        assert all(0.0 <= f <= 1.0 for f in series.f)
        assert all(a <= b for a, b in zip(series.f, series.f[1:]))
        theta = k * (1 - eta)
        if theta < 1:
            for i, f in enumerate(series.f):
                assert 1 - f <= theta**i + 1e-12

    def test_independent_reiteration(self):
        series = f_series(2, 0.73, 25)
        f = 0.0
        for i in range(26):
            assert series.f[i] == f
            f = (0.73 + 0.27 * f) ** 2

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            f_series(0, 0.5, 3)
        with pytest.raises(ValueError):
            f_series(2, 1.5, 3)
        with pytest.raises(ValueError):
            f_series(2, 0.5, -1)


class TestAnalyticBound:
    def test_zero_rounds_zero_qubits(self):
        assert analytic_bound(f_series(2, 0.6, 3), 0, 0) == 0.0

    def test_zero_rounds_any_qubits(self):
        series = f_series(2, 0.6, 3)
        assert analytic_bound(series, 0, 1) == 1.0
        assert analytic_bound(series, 0, 5) == 1.0

    def test_hand_value(self):
        assert analytic_bound(f_series(2, 0.6, 2), 2, 1) == pytest.approx(
            0.446464, abs=1e-15
        )

    def test_range_checked(self):
        series = f_series(2, 0.6, 2)
        with pytest.raises(ValueError):
            analytic_bound(series, 3, 1)
        with pytest.raises(ValueError):
            analytic_bound(series, 1, -1)


class TestThreshold:
    def test_boundary_is_not_above(self):
        info = theta_and_threshold(2, 0.5)
        assert info.theta == pytest.approx(1.0) and not info.above

    def test_above(self):
        info = theta_and_threshold(2, 0.6)
        assert info.theta == pytest.approx(0.8, abs=1e-12) and info.above

    def test_k_three(self):
        info = theta_and_threshold(3, 0.7)
        assert info.threshold == pytest.approx(2 / 3, abs=1e-12) and info.above

    @pytest.mark.parametrize("eta", [1.5, -0.1, math.nan])
    def test_eta_outside_the_unit_interval(self, eta):
        with pytest.raises(ValueError, match="eta must lie in"):
            theta_and_threshold(2, eta)
        with pytest.raises(ValueError, match="eta must lie in"):
            min_worthless_depth(2, eta, 1, 0.01)


class TestMinWorthlessDepth:
    def test_eta_one_collapses_in_one_layer(self):
        assert min_worthless_depth(2, 1.0, 4, 0.01) == 1

    def test_reference_point(self):
        assert min_worthless_depth(2, 0.75, 1, 0.01) == 7

    def test_matches_independent_iteration(self):
        k, eta, n, eps = 2, 0.75, 1, 0.01
        f, t = 0.0, 0
        while 1 - f > eps / n**2:
            f = (eta + (1 - eta) * f) ** k
            t += 1
        assert min_worthless_depth(k, eta, n, eps) == t == 7

    def test_log_scaling_in_readout_size(self):
        k, eta, eps = 2, 0.75, 0.01
        theta = theta_and_threshold(k, eta).theta
        base = min_worthless_depth(k, eta, 1, eps)
        for n in (4, 16, 64):
            predicted = base + 2 * math.log(n) / math.log(1 / theta)
            measured = min_worthless_depth(k, eta, n, eps)
            assert abs(measured - predicted) <= 2

    def test_monotone_in_n(self):
        depths = [min_worthless_depth(2, 0.8, n, 0.01) for n in (1, 2, 4, 8, 16)]
        assert depths == sorted(depths)

    def test_below_threshold_is_reported_not_raised(self):
        assert min_worthless_depth(2, 0.5, 1, 0.01) == BELOW_THRESHOLD
        assert min_worthless_depth(2, 0.3, 1, 0.01) == BELOW_THRESHOLD

    def test_cap_is_reported(self):
        # barely above threshold with a tiny eps and a tiny cap
        assert min_worthless_depth(2, 0.51, 1, 1e-6, max_depth=10) == NEVER_WITHIN_CAP

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            min_worthless_depth(2, 0.8, 0, 0.01)
        with pytest.raises(ValueError):
            min_worthless_depth(2, 0.8, 1, 0.0)


def _pair_d(a: DensityMatrix, b: DensityMatrix, n: int) -> float:
    """``max_{|A| <= n} D(a|_A, b|_A)``: the pair's profile at ``min(n, qubits)``."""
    return float(pairwise_profiles([a, b])[0][min(n, a.qubits)])


class TestEmpiricalD:
    def test_size_zero_is_exactly_zero(self, rng):
        a, b = random_density(2, rng), random_density(2, rng)
        assert _pair_d(a, b, 0) == 0.0

    def test_orthogonal_single_qubit(self):
        a, b = DensityMatrix.basis_state(1, 0), DensityMatrix.basis_state(1, 1)
        assert _pair_d(a, b, 1) == pytest.approx(1.0, abs=1e-12)

    def test_monotone_and_saturates_at_full_distance(self, rng):
        for _ in range(10):
            a, b = random_density(3, rng), random_density(3, rng)
            profile = pairwise_profiles([a, b])[0]
            assert all(x <= y + 1e-12 for x, y in zip(profile, profile[1:]))
            assert profile[3] == pytest.approx(trace_distance(a, b), abs=1e-10)
            assert _pair_d(a, b, 99) == pytest.approx(profile[3], abs=1e-15)

    def test_matches_bruteforce_enumeration(self, rng):
        from decolab.linalg import partial_trace

        a, b = random_density(3, rng), random_density(3, rng)
        for n in range(4):
            best = 0.0
            for size in range(n + 1):
                for keep in itertools.combinations(range(3), size):
                    if keep:
                        best = max(
                            best,
                            trace_distance(partial_trace(a, keep), partial_trace(b, keep)),
                        )
            assert _pair_d(a, b, n) == pytest.approx(best, abs=1e-12)

    def test_qubit_mismatch(self, rng):
        with pytest.raises(ValueError):
            _pair_d(random_density(1, rng), random_density(2, rng), 1)

    def test_enumeration_cap(self, monkeypatch):
        import decolab.analysis as analysis_mod

        monkeypatch.setattr(analysis_mod, "ENUMERATION_CAP", 2)
        a = DensityMatrix.maximally_mixed(3)
        with pytest.raises(ResourceLimitError):
            _pair_d(a, a, 1)


class TestPairwiseProfiles:
    def test_matches_per_pair_profiles(self, rng):
        states = [random_density(2, rng) for _ in range(5)]
        stacked = pairwise_profiles(states)
        for row, (i, j) in zip(stacked, itertools.combinations(range(5), 2)):
            single = pairwise_profiles([states[i], states[j]])[0]
            assert np.max(np.abs(row - single)) < 1e-12

    def test_single_state_has_no_pairs(self, rng):
        assert pairwise_profiles([random_density(1, rng)]).shape == (0, 2)
        top = max_profile([random_density(3, rng)])
        assert top.eigensolves == 0 and top.profile.tolist() == [0.0] * 4


def _count_eigensolves(monkeypatch) -> list[int]:
    """Patch ``eigvalsh`` to count the matrices it diagonalizes."""
    seen = [0]
    eigvalsh = np.linalg.eigvalsh
    lock = threading.Lock()  # distance_report's levels call it from several threads

    def counting(m):
        with lock:
            seen[0] += int(np.prod(m.shape[:-2]))
        return eigvalsh(m)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return seen


def _count_layers(monkeypatch) -> list[int]:
    """Patch ``apply_layer`` to count the layers applied."""
    applied = [0]
    apply_layer = decolab.circuit.apply_layer

    def counting(layer, rho):
        applied[0] += 1
        return apply_layer(layer, rho)

    monkeypatch.setattr(decolab.circuit, "apply_layer", counting)
    return applied


def _matches_full_enumeration(states) -> int:
    """Both pruned forms against the oracle to 1e-12; the max-only form's
    eigensolve count."""
    want = full_enumeration_profiles(states)
    got = pairwise_profiles(states)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-12
    top = max_profile(states)
    assert np.max(np.abs(top.profile - want.max(axis=0, initial=0.0))) <= 1e-12
    # the max-only form records evaluated distances only, never a bound
    best = decolab.analysis._top_down(states, per_pair=False)[0]
    assert (best <= want + 1e-12).all()
    pairs = math.comb(len(states), 2)
    assert 0 <= top.eigensolves <= pairs * (2 ** states[0].qubits - 1)
    return top.eigensolves


def _ghz(width: int, sign: int) -> DensityMatrix:
    amplitudes = np.zeros(2**width)
    amplitudes[0], amplitudes[-1] = 1.0, sign
    return DensityMatrix.pure(amplitudes)


#: width 3 -> 2 -> 0 -> 2 -> 3: trace-outs, a scalar level and preparations
WIDTH_CHANGING = """k 2
width 3
layer width 2
gate TRACEOUT [0] -> []
gate CNOT [1,2] -> [0,1]
layer
gate H [0] -> [0]
gate DEPHASE [1] -> [1]
layer width 0
gate TRACEOUT [0] -> []
gate TRACEOUT [1] -> []
layer width 2
gate PREP_PLUS [] -> [0]
gate PREP0 [] -> [1]
layer width 3
gate CNOT [0,1] -> [0,1]
gate PREP1 [] -> [2]
"""


def _low_rank_state(width: int, rank: int, rng) -> DensityMatrix:
    """A random mixture of ``rank`` random pure states."""
    weights = rng.uniform(0.2, 1.0, rank)
    mixed = sum(w * random_pure_state(width, rng).mat for w in weights)
    return DensityMatrix(width, mixed / weights.sum())


class TestPureFactor:
    @pytest.mark.parametrize("qubits", [0, 1, 4, 6])
    def test_pure_state_is_certified(self, qubits, rng):
        m = random_pure_state(qubits, rng).mat
        f = decolab.analysis._pure_factor(m)
        assert f.shape == (2**qubits,)
        assert 0.5 * np.sqrt(2**qubits) * np.linalg.norm(m - np.outer(f, f.conj())) <= 1e-13

    @pytest.mark.parametrize("rank", [2, 3])
    def test_higher_rank_gives_up(self, rank, rng):
        assert decolab.analysis._pure_factor(_low_rank_state(4, rank, rng).mat) is None

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (0, 3)])
    def test_non_finite_entry_gives_up(self, bad, where, rng):
        m = np.array(random_pure_state(3, rng).mat)
        m[where] = m[where[::-1]] = bad
        with np.errstate(invalid="ignore"):
            assert decolab.analysis._pure_factor(m) is None

    def test_near_pure_state_fails_the_certificate(self, rng, monkeypatch):
        m = random_pure_state(4, rng).mat
        assert decolab.analysis._pure_factor(0.999999999 * m + 1e-9 * np.eye(16) / 16) is None
        # a zero-diagonal 1e-9 drift leaves the pivot column's diagonal as it is
        drift = np.zeros((16, 16), dtype=complex)
        drift[0, 5] = drift[5, 0] = 1e-9
        assert decolab.analysis._pure_factor(m + drift) is None
        monkeypatch.setattr(decolab.analysis, "_FACTOR_TOL", 1e-8)
        assert decolab.analysis._pure_factor(m + drift).shape == (16,)


def _depolarized(states, eta: float) -> list[DensityMatrix]:
    return [
        DensityMatrix(s.qubits, (1 - eta) * s.mat + eta * np.eye(2**s.qubits) / 2**s.qubits)
        for s in states
    ]


class TestPrunedEnumeration:
    @pytest.mark.parametrize("width", range(8))
    @pytest.mark.parametrize(
        "kind", ["mixed", "pure", "basis", "depolarized-pure", "depolarized-basis"]
    )
    def test_matches_full_enumeration(self, kind, width, rng):
        if kind == "mixed":
            states = [random_density(width, rng) for _ in range(5)]
        elif kind.endswith("pure"):
            states = [random_pure_state(width, rng) for _ in range(5)]
        else:
            # on one qubit, Cauchy-Schwarz is an equality for basis states
            picked = rng.choice(2**width, min(2**width, 8), replace=False)
            states = [DensityMatrix.basis_state(width, int(b)) for b in picked]
        if kind.startswith("depolarized"):
            states = _depolarized(states, 0.3)
        _matches_full_enumeration(states)

    @pytest.mark.parametrize("width", [2, 3, 4])
    def test_pairs_equal_on_every_proper_subset(self, width):
        # Bell Phi+ vs Phi- at width 2, GHZ+ vs GHZ- above
        profile = max_profile([_ghz(width, 1), _ghz(width, -1)]).profile
        assert np.max(np.abs(profile - ([0.0] * width + [1.0]))) <= 1e-12
        _matches_full_enumeration([_ghz(width, 1), _ghz(width, -1), _ghz(width, 1)])

    @pytest.mark.parametrize("width", [1, 3, 5])
    def test_identical_states_stop_at_the_full_register(self, width, rng):
        states = [random_density(width, rng)] * 4
        assert _matches_full_enumeration(states) == math.comb(4, 2)
        assert not pairwise_profiles(states).any()

    def test_acceptance_fixture_first_circuit(self, monkeypatch):
        # criterion 3's first run: k=2, eta=0.6, width 4, depth 12, seed 1000
        circuit = random_circuit(2, 4, 12, 1000)
        trajectories = [run_noisy(circuit, 0.6, p) for p in make_probes("basis", 4)]
        levels = [[t.levels[level] for t in trajectories] for level in range(13)]
        max_only_run = sum(_matches_full_enumeration(states) for states in levels)
        seen = _count_eigensolves(monkeypatch)
        for states in levels:
            pairwise_profiles(states)
        full = 13 * math.comb(16, 2) * (2**4 - 1)
        assert max_only_run < seen[0] < full

    def test_distance_report_through_width_changes(self, monkeypatch):
        circuit = parse_circuit(WIDTH_CHANGING)
        assert circuit.widths == (3, 2, 2, 0, 2, 3)
        probes = make_probes("random:4", 3, seed=9)
        seen = _count_eigensolves(monkeypatch)
        report = distance_report(circuit, 0.3, probes)
        assert report.eigensolves_run == seen[0]
        assert report.eigensolves_full == math.comb(4, 2) * sum(2**w - 1 for w in circuit.widths)
        assert report.eigensolves_run <= report.eigensolves_full
        # the pure input level and the freshly prepared width-2 level are
        # factored; the others are mixed, and width 0 has no subsets
        trajectories = [run_noisy(circuit, 0.3, p) for p in probes]
        assert report.eigensolves_factored == sum(
            max_profile([t.levels[level] for t in trajectories]).factored
            for level in range(circuit.depth + 1)
        )
        assert 0 < report.eigensolves_factored < report.eigensolves_run
        want = [
            (level, n, value)
            for level in range(circuit.depth + 1)
            for n, value in enumerate(
                full_enumeration_profiles([t.levels[level] for t in trajectories]).max(axis=0)
            )
        ]
        assert [(r.level, r.n) for r in report.rows] == [(lv, n) for lv, n, _ in want]
        assert max(abs(r.empirical_d - v) for r, (_, _, v) in zip(report.rows, want)) <= 1e-12

    def test_non_finite_distance_raises_before_it_prunes(self, rng, monkeypatch):
        eigvalsh = np.linalg.eigvalsh

        def nan_below_full_register(m):
            ev = eigvalsh(m)
            return ev if m.shape[-1] == 8 else np.full_like(ev, np.nan)

        monkeypatch.setattr(np.linalg, "eigvalsh", nan_below_full_register)
        states = [random_density(3, rng) for _ in range(3)]
        for enumerate_subsets in (pairwise_profiles, max_profile):
            with pytest.raises(ArithmeticError, match="non-finite"):
                enumerate_subsets(states)

    @pytest.mark.parametrize("width", range(2, 7))
    @pytest.mark.parametrize(
        "ranks", [(1,), (2,), (1, 2, 3)], ids=["rank-1", "rank-2", "mixed-rank"]
    )
    def test_low_rank_levels_are_factored(self, ranks, width, rng):
        states = [_low_rank_state(width, ranks[j % len(ranks)], rng) for j in range(6)]
        _matches_full_enumeration(states)
        # only pure levels are factored, and at width >= 2 the full register shrinks
        assert (max_profile(states).factored > 0) == (ranks == (1,))

    @pytest.mark.parametrize("width", [3, 5])
    def test_near_pure_states_fall_back_to_dense(self, width, rng):
        pure = [random_pure_state(width, rng).mat for _ in range(4)]
        depolarized = [(1 - 1e-9) * m + 1e-9 * np.eye(2**width) / 2**width for m in pure]
        drift = np.zeros((2**width, 2**width), dtype=complex)
        drift[0, -1] = drift[-1, 0] = 1e-9  # invisible to the residual trace
        for mats in (depolarized, [m + drift for m in pure]):
            states = [DensityMatrix(width, m) for m in mats]
            _matches_full_enumeration(states)
            assert max_profile(states).factored == 0

    @pytest.mark.parametrize("where", [(0, 0), (0, 15)])
    def test_a_non_finite_state_is_not_factored(self, where, rng):
        mats = [np.array(random_pure_state(4, rng).mat) for _ in range(3)]
        mats[1][where] = mats[1][where[::-1]] = np.nan
        states = [DensityMatrix(4, m) for m in mats]
        # (0, 15) reaches no reduced state: only the full register, factored
        # for pure states, sees it, and a factor accepted on a NaN
        # certificate would read every distance as finite
        for enumerate_subsets in (pairwise_profiles, max_profile):
            with np.errstate(invalid="ignore"), pytest.raises(
                (ArithmeticError, np.linalg.LinAlgError)
            ):
                enumerate_subsets(states)

    def test_factored_on_pure_levels_only(self):
        circuit = random_circuit(2, 5, 4, seed=11)
        trajectories = [run_noisy(circuit, 0.6, p) for p in make_probes("random:5", 5, seed=12)]
        for level in range(circuit.depth + 1):
            states = [t.levels[level] for t in trajectories]
            top = max_profile(states)
            # the first layer acts before any noise: levels 0 and 1 are pure
            assert (top.factored > 0) == (level <= 1)
            assert top.factored <= top.eigensolves
            _matches_full_enumeration(states)

    def test_difference_batches_are_capped_in_bytes(self, rng):
        # 120 pairs of 64x64 differences: 7.5 MiB a full-size temporary; the
        # uncapped batch built three of them and peaked at ~17 MB
        states = [random_density(6, rng) for _ in range(16)]
        tracemalloc.start()
        try:
            top = max_profile(states)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10e6
        assert np.max(np.abs(top.profile - full_enumeration_profiles(states).max(axis=0))) <= 1e-12


class TestNormPruning:
    """The max-only form skips a pair whose ``sqrt(d) / 2 * ||Delta||_F``
    cannot beat the record."""

    @pytest.mark.parametrize("gap", [1e-4, 1e-6, 1e-8, 1e-10])
    @pytest.mark.parametrize("width", [1, 3, 5])
    def test_near_equal_mixed_states(self, gap, width, rng):
        # the Gram form's cancellation case: norms of 1e-10 out of O(1) entries
        base = random_density(width, rng).mat
        states = [
            DensityMatrix(width, (1 - gap) * base + gap * random_density(width, rng).mat)
            for _ in range(5)
        ]
        _matches_full_enumeration(states)
        assert 0 < max_profile(states).profile[-1] < gap

    def test_spares_eigensolves_on_the_max_only_form_only(self, monkeypatch):
        circuit = random_circuit(2, 6, 4, seed=11)
        trajectories = [run_noisy(circuit, 0.6, p) for p in make_probes("random:8", 6, seed=12)]
        states = [t.levels[3] for t in trajectories]
        seen = _count_eigensolves(monkeypatch)
        pairwise_profiles(states)
        # the per-pair form prunes by the data-processing inequality alone
        assert seen[0] == 876
        seen[0] = 0
        top = max_profile(states)
        # 234 with the data-processing inequality alone
        assert top.eigensolves == seen[0] < 234
        assert top.norm_pruned > 0
        _matches_full_enumeration(states)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_non_finite_entry_is_never_pruned_into_a_distance(self, bad, rng):
        # |000><111| reaches no reduced state: only the full register's
        # Frobenius bound sees it, ahead of any eigensolve
        mats = [np.array(random_density(3, rng).mat) for _ in range(3)]
        mats[1][0, 7] = mats[1][7, 0] = bad
        states = [DensityMatrix._adopt(3, m) for m in mats]
        with np.errstate(invalid="ignore"), pytest.raises(
            ArithmeticError, match="non-finite trace distance"
        ):
            max_profile(states)


def _start_up(monkeypatch) -> None:
    """Record the BLAS threads that the library reads at import from the
    environment as it stands now."""
    monkeypatch.setattr(decolab.linalg, "_blas_threads", decolab.linalg._named_blas_threads())


def _use_cpus(monkeypatch, cpus: int) -> None:
    """Make ``distance_report`` see ``cpus`` usable CPUs and single-threaded BLAS."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    _start_up(monkeypatch)


class TestLevelPool:
    @pytest.mark.parametrize("cpus", [1, 2, 5])
    @pytest.mark.parametrize("extra_noise_round", [False, True])
    @pytest.mark.parametrize("case", ["random", "width-changing"])
    def test_report_equals_the_serial_level_loop(self, case, extra_noise_round, cpus, monkeypatch):
        if case == "random":
            circuit, probes = random_circuit(2, 4, 5, seed=3), make_probes("random:5", 4, seed=4)
        else:
            circuit, probes = parse_circuit(WIDTH_CHANGING), make_probes("random:4", 3, seed=9)
        _use_cpus(monkeypatch, cpus)
        report = distance_report(circuit, 0.4, probes, extra_noise_round=extra_noise_round)
        want = serial_level_profiles(circuit, 0.4, probes, extra_noise_round=extra_noise_round)
        assert report.workers == cpus
        assert report.eigensolves_run == sum(p.eigensolves for p in want)
        assert [(r.level, r.i_width, r.n, r.empirical_d) for r in report.rows] == [
            (level, len(p.profile) - 1, n, float(d))
            for level, p in enumerate(want)
            for n, d in enumerate(p.profile)
        ]

    def test_one_worker_changes_nothing(self, monkeypatch):
        circuit = parse_circuit(WIDTH_CHANGING)
        probes = make_probes("random:4", 3, seed=9)
        pooled = distance_report(circuit, 0.3, probes)
        # the environment named one BLAS thread per usable CPU at start-up:
        # one level at a time
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", str(len(os.sched_getaffinity(0))))
        _start_up(monkeypatch)
        single = distance_report(circuit, 0.3, probes)
        assert single.workers == 1
        assert single == dataclasses.replace(pooled, workers=1)

    @pytest.mark.parametrize(
        "env,workers",
        [
            ({}, 4),
            ({"OPENBLAS_NUM_THREADS": "2"}, 2),
            ({"OMP_NUM_THREADS": "3"}, 1),
            ({"OPENBLAS_NUM_THREADS": "8"}, 1),
            ({"OPENBLAS_NUM_THREADS": "x", "OMP_NUM_THREADS": "2"}, 2),
            ({"OPENBLAS_NUM_THREADS": "0"}, 1),
        ],
    )
    def test_workers_share_the_cpus_with_blas_threads(self, env, workers, monkeypatch):
        _use_cpus(monkeypatch, 4)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        _start_up(monkeypatch)
        assert decolab.analysis._report_workers() == workers

    def test_limited_blas_threads_override_the_start_up_count(self, monkeypatch):
        real = decolab.linalg._blas_threads
        _use_cpus(monkeypatch, 2)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        _start_up(monkeypatch)
        assert decolab.analysis._report_workers() == 1
        try:
            limit_blas_threads(1)
            assert decolab.analysis._report_workers() == 2
        finally:
            limit_blas_threads(real)

    def test_workers_share_the_cpus_with_limited_blas_threads(self, monkeypatch):
        _use_cpus(monkeypatch, 2)
        circuit, probes = random_circuit(2, 3, 3, seed=3), make_probes("random:3", 3, seed=4)
        try:
            limit_blas_threads(2)
            assert distance_report(circuit, 0.4, probes).workers == 1
        finally:
            limit_blas_threads(1)
        assert distance_report(circuit, 0.4, probes).workers == 2


class TestNoiseAction:
    def test_eta_zero_residual_is_exactly_zero(self, rng):
        rho = random_density(3, rng)
        assert check_noise_action(rho, [0, 2], 0.0) == 0.0

    def test_eta_one_collapses_to_mixed(self, rng):
        rho = random_density(3, rng)
        assert check_noise_action(rho, [0, 1, 2], 1.0) < 1e-12

    def test_hundred_random_triples(self, rng):
        for _ in range(100):
            rho = random_density(3, rng)
            size = int(rng.integers(0, 4))
            b = sorted(rng.choice(3, size=size, replace=False).tolist())
            eta = float(rng.uniform(0, 1))
            assert check_noise_action(rho, b, eta) < 1e-10

    def test_entangled_state(self):
        ghz = DensityMatrix.pure([1, 0, 0, 0, 0, 0, 0, 1])
        for b in ([0], [1, 2], [0, 1, 2]):
            assert check_noise_action(ghz, b, 0.7) < 1e-12


def _final_layer(kind: str, rng: np.random.Generator) -> tuple[CircuitLayer, set]:
    """A last layer on 5 qubits of the named mix, and the gates that the
    verdicts must still apply: all but the exactly unitary ones."""

    def haar(qubits):
        return channel_from_unitary(haar_unitary(qubits, rng))

    # within UNITARY_TOL, but with a residual of about 1e-11
    near = channel_from_unitary(haar_unitary(1, rng) * (1 + 5e-12), label="NEAR")
    assert 5e-12 < channel_validate(near) < UNITARY_TOL
    kept, left_out = True, False
    wired = {
        "unitaries": [  # in place and wire-moving
            (haar(2), (0, 2), (0, 2), left_out),
            (haar(1), (1,), (3,), left_out),
            (GATES["CNOT"], (3, 4), (1, 4), left_out),
        ],
        "channels": [
            (random_channel(1, 1, 1, rng), (0,), (0,), left_out),
            (random_channel(1, 1, 2, rng), (1,), (1,), kept),
            (GATES["DEPHASE"], (2,), (2,), kept),
            (near, (3,), (3,), kept),
            (GATES["H"], (4,), (4,), left_out),
        ],
        "refresh": [
            (GATES["TRACEOUT"], (0,), (), kept),
            (GATES["PREP0"], (), (0,), kept),
            (GATES["TRACEOUT"], (4,), (), kept),
            (GATES["PREP_PLUS"], (), (4,), kept),
            (GATES["CNOT"], (1, 3), (1, 3), left_out),
            (haar(1), (2,), (2,), left_out),
        ],
        "shrinking": [  # to 3 qubits
            (GATES["TRACEOUT"], (0,), (), kept),
            (GATES["TRACEOUT"], (4,), (), kept),
            (haar(1), (1,), (0,), left_out),
            (GATES["CNOT"], (2, 3), (1, 2), left_out),
        ],
        "growing": [  # to 6 qubits, through a one-term isometry
            (GATES["H"], (0,), (5,), left_out),
            (random_channel(1, 2, 1, rng), (1,), (0, 1), kept),
            (GATES["PREP_PLUS"], (), (2,), kept),
            (GATES["SWAP"], (2, 3), (3, 4), left_out),
            (GATES["TRACEOUT"], (4,), (), kept),
        ],
    }[kind]
    gates = [PlacedGate(c, i, o) for c, i, o, _ in wired]
    layer = CircuitLayer(5, sum(len(g.outputs) for g in gates), tuple(gates))
    return layer, {g for g, (*_, keep) in zip(gates, wired) if keep}


class TestWorthlessness:
    @pytest.mark.parametrize("depth", [1, 3])
    @pytest.mark.parametrize("kind", ["unitaries", "channels", "refresh", "shrinking", "growing"])
    def test_verdicts_leave_out_the_last_layers_unitaries_exactly(self, kind, depth):
        rng = np.random.default_rng(len(kind) + depth)
        last, kept = _final_layer(kind, rng)
        body = mixed_circuit(rng, 5, depth - 1).layers if depth > 1 else ()
        c = Circuit(k=2, in_width=5, layers=(*body, last))
        probes = make_probes("random:3", 5, depth)
        for given_probes, oracle_probes in ((probes, probes), (None, make_probes("basis", 5))):
            pairwise, mixed = dense_verdicts(c, 0.3, oracle_probes)
            got_pairwise = practically_worthless(c, 0.3, probes=given_probes)[1]
            got_mixed = worthless(c, 0.3, probes=given_probes)[1]
            assert got_pairwise == pytest.approx(pairwise, abs=1e-12)
            assert got_mixed == pytest.approx(mixed, abs=1e-12)
        derived = vars(c)["_verdict_circuit"]
        assert derived.layers[:-1] == c.layers[:-1] and derived.widths == c.widths
        # the near-unitary and every non-unitary gate stay; identity wires
        # from inputs[i] to outputs[i] replace the rest
        wires = [g for g in derived.layers[-1].gates if g not in kept]
        assert kept <= set(derived.layers[-1].gates)
        assert all(g.channel is GATES["I"] for g in wires)
        assert sorted((g.inputs, g.outputs) for g in wires) == sorted(
            ((i,), (o,)) for g in last.gates if g not in kept for i, o in zip(g.inputs, g.outputs)
        )

    def test_depth_zero_verdicts_match_the_full_run(self):
        c = Circuit(k=1, in_width=2, layers=())
        probes = make_probes("random:3", 2, 0)
        for given_probes, oracle_probes in ((probes, probes), (None, make_probes("basis", 2))):
            pairwise, mixed = dense_verdicts(c, 0.3, oracle_probes)
            assert practically_worthless(c, 0.3, probes=given_probes)[1] == pytest.approx(
                pairwise, abs=1e-12
            )
            assert worthless(c, 0.3, probes=given_probes)[1] == pytest.approx(mixed, abs=1e-12)

    def test_depth_zero_circuit_is_not_worthless(self):
        c = Circuit(k=1, in_width=1, layers=())
        flag, dist = practically_worthless(c, 0.9)
        assert not flag and dist == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("depth,expected_flag", [(4, False), (9, True)])
    def test_identity_wire_threshold_depths(self, depth, expected_flag):
        # max pairwise distance is 0.5**(depth-1); eps = 0.01
        flag, dist = practically_worthless(wire_circuit(depth), 0.5)
        assert dist == pytest.approx(0.5 ** (depth - 1), abs=1e-10)
        assert flag is expected_flag

    def test_eta_one_any_circuit_collapses(self):
        c = random_circuit(2, 3, 3, seed=2)
        flag, dist = practically_worthless(c, 1.0)
        assert flag and dist < 1e-10
        flag_w, dist_w = worthless(c, 1.0)
        assert flag_w and dist_w < 1e-10

    def test_depth_zero_distance_to_mixed(self):
        c = Circuit(k=1, in_width=1, layers=())
        _, dist = worthless(c, 0.5, probes=[DensityMatrix.basis_state(1, 0)])
        assert dist == pytest.approx(0.5, abs=1e-12)

    def test_prep_refresh_defeats_worthlessness(self):
        refresh = CircuitLayer(
            2,
            2,
            (
                PlacedGate(GATES["TRACEOUT"], (0,), ()),
                PlacedGate(GATES["TRACEOUT"], (1,), ()),
                PlacedGate(GATES["PREP0"], (), (0,)),
                PlacedGate(GATES["PREP0"], (), (1,)),
            ),
        )
        body = CircuitLayer(
            2, 2, (PlacedGate(GATES["H"], (0,), (0,)), PlacedGate(GATES["H"], (1,), (1,)))
        )
        c = Circuit(k=1, in_width=2, layers=(body, refresh))
        flag, dist = worthless(c, 0.95)
        assert not flag
        assert dist == pytest.approx(1 - 2**-2, abs=1e-10)
        # ... yet all inputs agree, so the pairwise notion does hold
        flag_p, dist_p = practically_worthless(c, 0.95)
        assert flag_p and dist_p < 1e-10

    @pytest.mark.parametrize("width", [5, 7])  # below and above the split's floor
    @pytest.mark.parametrize("last", [(), ("DEPHASE", "REFRESH")])
    @pytest.mark.parametrize("seed", range(4))
    def test_verdicts_match_whole_matrix_solves(self, seed, last, width):
        rng = np.random.default_rng(seed)
        c = mixed_circuit(rng, width, 4, last)
        probes = make_probes("random:3", width, seed)
        pairwise, mixed = dense_verdicts(c, 0.3, probes)
        assert practically_worthless(c, 0.3, probes=probes)[1] == pytest.approx(pairwise, abs=1e-12)
        assert worthless(c, 0.3, probes=probes)[1] == pytest.approx(mixed, abs=1e-12)

    @pytest.mark.parametrize("qubits", [1, 2])
    @pytest.mark.parametrize("verdict", [practically_worthless, worthless])
    def test_nan_final_state_is_a_numerical_failure(self, verdict, qubits, monkeypatch):
        # settle checks only the trace, so NaN off-diagonals get through it
        def poisoned(circuit, eta, rho0, extra_noise_round=False):
            mat = np.array(rho0.mat)
            mat[0, -1] = mat[-1, 0] = np.nan
            return Trajectory((rho0, DensityMatrix(rho0.qubits, mat)))

        monkeypatch.setattr(decolab.analysis, "run_noisy", poisoned)
        with np.errstate(invalid="ignore"), pytest.raises(ArithmeticError, match="non-finite"):
            verdict(wire_circuit(1), 0.5, probes=make_probes("basis", qubits))

    @pytest.mark.parametrize("verdict", [practically_worthless, worthless])
    def test_a_nan_distance_after_the_first_is_not_dropped(self, verdict, monkeypatch):
        distances = iter([0.5, np.nan, 0.25, 0.25, 0.25, 0.25])
        monkeypatch.setattr(decolab.analysis, "trace_distance", lambda a, b: next(distances))
        with pytest.raises(ArithmeticError, match="non-finite"):
            verdict(wire_circuit(2), 0.5, probes=make_probes("random:3", 1))

    @pytest.mark.parametrize("width", [5, 7])
    @pytest.mark.parametrize("seed", range(2))
    def test_second_verdict_reuses_the_first_verdicts_states(self, seed, width, monkeypatch):
        c = mixed_circuit(np.random.default_rng(seed), width, 4, ("DEPHASE", "REFRESH"))
        fresh = mixed_circuit(np.random.default_rng(seed), width, 4, ("DEPHASE", "REFRESH"))
        probes = make_probes("random:3", width, seed)
        layers = _count_layers(monkeypatch)
        pairwise = practically_worthless(c, 0.3, probes=probes)
        assert layers == [3 * 4]
        assert worthless(c, 0.3, probes=probes) == worthless(fresh, 0.3, probes=probes)
        assert layers == [2 * 3 * 4]  # the fresh circuit only
        assert pairwise == practically_worthless(fresh, 0.3, probes=probes)

    def test_equal_probes_hit_and_any_change_reruns(self, monkeypatch):
        c = mixed_circuit(np.random.default_rng(5), 7, 3)
        probes = make_probes("random:3", 7, seed=1)
        other = make_probes("random:1", 7, seed=2)[0]
        layers = _count_layers(monkeypatch)

        def applied(verdict, *args, **kwargs) -> int:
            """Layers the verdict applies on ``c``; its value is a fresh circuit's."""
            before = layers[0]
            value = verdict(c, *args, **kwargs)
            count = layers[0] - before
            assert value == verdict(mixed_circuit(np.random.default_rng(5), 7, 3), *args, **kwargs)
            return count

        assert applied(practically_worthless, 0.3, probes=probes) == 3 * 3
        copies = [DensityMatrix(p.qubits, p.mat.copy()) for p in probes]
        assert applied(worthless, 0.3, probes=copies) == 0
        assert applied(worthless, 0.4, probes=probes) == 3 * 3
        assert applied(worthless, 0.4, probes=probes[:2]) == 2 * 3
        assert applied(worthless, 0.4, probes=[probes[0], other]) == 2 * 3
        assert applied(worthless, 0.4) == 32 * 3  # default probes at width 7 ...
        assert applied(practically_worthless, 0.4) == 0
        assert applied(practically_worthless, 0.4, seed=1) == 32 * 3  # ... are seeded

    def test_memoized_states_are_freed_with_the_circuit(self, monkeypatch):
        finals = []
        real = decolab.analysis.run_noisy

        def recorded(*args, **kwargs):
            trajectory = real(*args, **kwargs)
            finals.append(weakref.ref(trajectory.levels[-1]))
            return trajectory

        monkeypatch.setattr(decolab.analysis, "run_noisy", recorded)
        c = mixed_circuit(np.random.default_rng(3), 5, 3)
        practically_worthless(c, 0.3, probes=make_probes("random:3", 5, seed=3))
        assert len(finals) == 3 and all(ref() is not None for ref in finals)
        del c
        gc.collect()
        assert [ref() for ref in finals] == [None] * 3

    @given(seed=st.integers(0, 10**5))
    @settings(max_examples=10)
    def test_worthless_implies_practically_worthless(self, seed):
        rng = np.random.default_rng(seed)
        c = random_circuit(2, 2, 3, seed=seed)
        eta = float(rng.uniform(0.5, 1.0))
        eps = 0.05
        probes = make_probes("basis", 2)
        flag_w, _ = worthless(c, eta, eps=eps, probes=probes)
        flag_p, dist_p = practically_worthless(c, eta, eps=2 * eps, probes=probes)
        if flag_w:
            assert flag_p, f"pairwise distance {dist_p} exceeded twice the mixed bound"


class TestProbes:
    def test_basis(self):
        probes = make_probes("basis", 2)
        assert len(probes) == 4
        assert np.array_equal(probes[3].mat, DensityMatrix.basis_state(2, 3).mat)

    def test_basis_beyond_limit_rejected(self):
        with pytest.raises(ValueError, match="basis"):
            make_probes("basis", 7)

    def test_pair(self):
        probes = make_probes("pair:1,2", 2)
        assert np.array_equal(probes[0].mat, DensityMatrix.basis_state(2, 1).mat)
        assert np.array_equal(probes[1].mat, DensityMatrix.basis_state(2, 2).mat)

    def test_random_is_seeded(self):
        a = make_probes("random:5", 2, seed=9)
        b = make_probes("random:5", 2, seed=9)
        for x, y in zip(a, b):
            assert np.array_equal(x.mat, y.mat)

    def test_bad_specs(self):
        for spec in ("pairs:1,2", "pair:1", "random:x", "random:0", "nope"):
            with pytest.raises(ValueError):
                make_probes(spec, 2)


class TestDistanceReport:
    def test_wire_report_saturates_bound_exactly(self):
        c = wire_circuit(6)
        eta = 0.5
        report = distance_report(c, eta, make_probes("basis", 1), eps=0.01)
        by_key = {(r.level, r.n): r for r in report.rows}
        for level in range(7):
            rounds = noise_rounds_at_level(level, 6)
            expected = (1 - eta) ** rounds
            row = by_key[(level, 1)]
            assert row.empirical_d == pytest.approx(expected, abs=1e-12)
            assert row.bound == pytest.approx(expected, abs=1e-12)
            assert row.slack >= -1e-12
        assert report.final_max_distance == pytest.approx((1 - eta) ** 5, abs=1e-12)
        assert not report.practically_worthless

    def test_random_circuit_report_has_no_negative_slack(self):
        c = random_circuit(2, 3, 6, seed=13)
        report = distance_report(c, 0.6, make_probes("basis", 3), eps=0.01)
        assert report.min_slack() >= -1e-8

    def test_needs_two_probes(self):
        with pytest.raises(ValueError, match="two probe"):
            distance_report(wire_circuit(1), 0.5, make_probes("basis", 1)[:1])


class TestRecursionSteps:
    def test_noisy_step_weights_sum_to_one(self):
        profile = [0.0, 0.4, 0.7, 0.9]
        value = recursion_step_bound([1.0] * 4, 2, 0.6, 2)
        assert value == pytest.approx(1.0, abs=1e-12)
        assert recursion_step_bound(profile, 2, 1.0, 2) == profile[0]

    def test_gate_only_step_saturates(self):
        profile = [0.0, 0.4, 0.7]
        assert gate_only_step_bound(profile, 2, 1) == profile[2]
        assert gate_only_step_bound(profile, 2, 5) == profile[2]

    def test_noise_rounds_at_level(self):
        assert [noise_rounds_at_level(i, 4) for i in range(5)] == [0, 0, 1, 2, 3]
        assert [
            noise_rounds_at_level(i, 4, extra_noise_round=True) for i in range(5)
        ] == [0, 1, 2, 3, 5]

    def test_one_step_inequality_on_random_circuit(self):
        k, eta = 2, 0.6
        c = random_circuit(k, 3, 5, seed=21)
        from decolab.circuit import run_noisy

        ta = run_noisy(c, eta, DensityMatrix.basis_state(3, 0))
        tb = run_noisy(c, eta, DensityMatrix.basis_state(3, 5))
        profiles = [
            pairwise_profiles([a, b])[0] for a, b in zip(ta.levels, tb.levels)
        ]
        for i in range(c.depth):
            for n in range(4):
                lhs = profiles[i + 1][n]
                if i == 0:
                    rhs = gate_only_step_bound(profiles[0], k, n)
                else:
                    rhs = recursion_step_bound(profiles[i], k, eta, n)
                assert lhs <= rhs + 1e-8
