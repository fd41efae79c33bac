"""Acceptance suite: the headline guarantees, each at its stated tolerance.

Every test prints one ``ACCEPTANCE <id>: PASS/FAIL`` line (run pytest with
``-s`` to see them on success).  The heavyweight circuit sweep behind
criteria 3 and 4 is computed once and shared.

A note on bound alignment used throughout: the noisy execution applies no
noise round before the first layer, so the state recorded at level ``i`` has
absorbed ``max(i - 1, 0)`` rounds, and that is the recursion index its
analytic guarantee uses.  The single-qubit identity wire saturates the
aligned bound exactly, which pins the indexing.
"""

import itertools
import math
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
import pytest

from decolab.analysis import (
    analytic_bound,
    check_noise_action,
    f_series,
    make_probes,
    min_worthless_depth,
    noise_rounds_at_level,
    pairwise_profiles,
    theta_and_threshold,
    worthless,
)
from decolab.channels import random_channel
from decolab.circuit import parse_circuit, random_circuit, run_noisy, serialize_circuit
from decolab.cli import main
from decolab.linalg import DensityMatrix, random_density, trace_distance
from oracles import channel_apply

TOL_NOISE_ACTION = 1e-10
TOL_CONTRACT = 1e-9
TOL_BOUND_SLACK = 1e-8
TOL_DECAY = 1e-10
TOL_WORTHLESS = 1e-10


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion} failed: {detail}"


# ---------------------------------------------------------------------------
# shared heavyweight runs (criteria 3 and 4)
# ---------------------------------------------------------------------------


@dataclass
class SweepRun:
    k: int
    eta: float
    width: int
    depth: int
    seed: int
    profiles: list[np.ndarray]  # per level: (n_pairs, width + 1)


def _run_profiles(params: tuple[int, float, int, int, int]) -> SweepRun:
    k, eta, width, depth, seed = params
    circuit = random_circuit(k, width, depth, seed)
    probes = make_probes("basis", width)
    trajectories = [run_noisy(circuit, eta, p) for p in probes]
    profiles = []
    for level in range(depth + 1):
        states = [t.levels[level] for t in trajectories]
        profiles.append(pairwise_profiles(states))
    return SweepRun(k=k, eta=eta, width=width, depth=depth, seed=seed, profiles=profiles)


@pytest.fixture(scope="module")
def collapse_runs():
    # the runs are independent: one process per usable CPU, since threads
    # gain little here, where the small eigenproblems leave most of the time
    # in Python under the interpreter lock.  map keeps parameter order, and
    # each run is the same single-threaded computation as in one process.
    start = time.perf_counter()
    widths = (4, 5, 6)
    params = [(2, 0.6, widths[i % 3], 12, 1000 + i) for i in range(20)]
    params += [(1, 0.1, widths[i % 3], 12, 2000 + i) for i in range(10)]
    with ProcessPoolExecutor(
        max_workers=len(os.sched_getaffinity(0)), mp_context=multiprocessing.get_context("spawn")
    ) as pool:
        runs = list(pool.map(_run_profiles, params))
    elapsed = time.perf_counter() - start
    return runs, elapsed


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_1_noise_action_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    subsets = [
        list(c)
        for size in range(4)
        for c in itertools.combinations(range(3), size)
    ]
    assert len(subsets) == 8
    worst = 0.0
    for _ in range(100):
        rho = random_density(3, rng)
        for eta in (0.0, 0.3, 0.7, 1.0):
            for b in subsets:
                worst = max(worst, check_noise_action(rho, b, eta))
    elapsed = time.perf_counter() - start
    _report(
        "1 noise-action identity",
        worst <= TOL_NOISE_ACTION and elapsed < 10.0,
        f"max residual {worst:.3e} <= {TOL_NOISE_ACTION}, {elapsed:.1f}s < 10s",
    )


def test_criterion_2_contractivity_and_convexity():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst_contract = 0.0
    for _ in range(200):
        qubits = int(rng.integers(1, 3))
        out_qubits = int(rng.integers(1, qubits + 1))
        min_terms = -(-(2**qubits) // 2**out_qubits)  # isometry needs this many
        channel = random_channel(
            qubits, out_qubits, min_terms + int(rng.integers(0, 4)), rng
        )
        rho, sigma = random_density(qubits, rng), random_density(qubits, rng)
        before = trace_distance(rho, sigma)
        after = trace_distance(
            channel_apply(channel, rho), channel_apply(channel, sigma)
        )
        worst_contract = max(worst_contract, after - before)
    worst_convex = 0.0
    for _ in range(200):
        qubits = int(rng.integers(1, 3))
        terms = int(rng.integers(2, 5))
        weights = rng.dirichlet(np.ones(terms))
        rhos = [random_density(qubits, rng) for _ in range(terms)]
        sigmas = [random_density(qubits, rng) for _ in range(terms)]
        mix_r = DensityMatrix(qubits, sum(w * r.mat for w, r in zip(weights, rhos)))
        mix_s = DensityMatrix(qubits, sum(w * s.mat for w, s in zip(weights, sigmas)))
        rhs = sum(w * trace_distance(r, s) for w, r, s in zip(weights, rhos, sigmas))
        worst_convex = max(worst_convex, trace_distance(mix_r, mix_s) - rhs)
    elapsed = time.perf_counter() - start
    worst = max(worst_contract, worst_convex)
    _report(
        "2 contractivity & convexity",
        worst <= TOL_CONTRACT and elapsed < 30.0,
        f"max violation {worst:.3e} <= {TOL_CONTRACT} "
        f"(contract {worst_contract:.3e}, convex {worst_convex:.3e}), "
        f"{elapsed:.1f}s < 30s",
    )


@pytest.mark.slow
def test_criterion_3_collapse_bound_suite(collapse_runs):
    runs, build_elapsed = collapse_runs
    start = time.perf_counter()
    checks = 0
    worst_excess = -math.inf
    for run in runs:
        series = f_series(run.k, run.eta, run.depth)
        for level, profile in enumerate(run.profiles):
            rounds = noise_rounds_at_level(level, run.depth)
            bounds = np.array(
                [analytic_bound(series, rounds, n) for n in range(run.width + 1)]
            )
            excess = profile - bounds[None, :]
            worst_excess = max(worst_excess, float(excess.max()))
            checks += excess.size
    elapsed = build_elapsed + (time.perf_counter() - start)
    counterexamples = worst_excess > TOL_BOUND_SLACK
    _report(
        "3 collapse-bound suite",
        not counterexamples and elapsed < 600.0,
        f"{checks} (pair, level, n) checks over {len(runs)} circuits, "
        f"worst excess {worst_excess:.3e} <= {TOL_BOUND_SLACK}, "
        f"{elapsed:.1f}s < 600s",
    )


@pytest.mark.slow
def test_criterion_4_one_step_recursion(collapse_runs):
    runs, _ = collapse_runs
    checks = 0
    worst_excess = -math.inf
    for run in runs:
        full = run.width
        for i in range(run.depth):
            prev = run.profiles[i]
            nxt = run.profiles[i + 1]
            for n in range(full + 1):
                if i == 0:
                    rhs = prev[:, min(run.k * n, full)]
                else:
                    kn = run.k * n
                    weights = np.array(
                        [
                            math.comb(kn, m)
                            * run.eta ** (kn - m)
                            * (1 - run.eta) ** m
                            for m in range(kn + 1)
                        ]
                    )
                    cols = np.minimum(np.arange(kn + 1), full)
                    rhs = prev[:, cols] @ weights
                excess = nxt[:, n] - rhs
                worst_excess = max(worst_excess, float(excess.max()))
                checks += excess.size
    _report(
        "4 one-step recursion",
        worst_excess <= TOL_BOUND_SLACK,
        f"{checks} level-to-level checks, worst excess {worst_excess:.3e} "
        f"<= {TOL_BOUND_SLACK} (first step gate-contraction only, later steps "
        f"binomially mixed)",
    )


def test_criterion_5_exact_decay_law():
    worst = 0.0
    for eta in (0.25, 0.5, 0.75):
        for depth in range(2, 13):
            text = "k 1\nwidth 1\n" + "layer\ngate I [0] -> [0]\n" * depth
            circuit = parse_circuit(text)
            ta = run_noisy(circuit, eta, DensityMatrix.basis_state(1, 0))
            tb = run_noisy(circuit, eta, DensityMatrix.basis_state(1, 1))
            measured = trace_distance(ta.levels[-1], tb.levels[-1])
            worst = max(worst, abs(measured - (1 - eta) ** (depth - 1)))
    _report(
        "5 exact decay law",
        worst <= TOL_DECAY,
        f"identity wire D == (1-eta)^(t-1) within {worst:.3e} <= {TOL_DECAY} "
        f"for eta in {{0.25, 0.5, 0.75}}, t in 2..12",
    )


def test_criterion_6_worthless_at_full_noise():
    worst = 0.0
    cases = [(2, 2, 31), (3, 2, 32), (2, 4, 33), (3, 5, 34), (4, 3, 35)]
    for width, depth, seed in cases:
        circuit = random_circuit(2, width, depth, seed)
        flag, dist = worthless(circuit, 1.0, eps=TOL_WORTHLESS,
                               probes=make_probes("basis", width))
        worst = max(worst, dist)
        assert flag
    _report(
        "6 worthless at eta=1",
        worst <= TOL_WORTHLESS,
        f"max distance to the maximally mixed state {worst:.3e} <= "
        f"{TOL_WORTHLESS} over {len(cases)} depth>=2 unitary circuits",
    )


def test_criterion_7_f_series_checks():
    series = f_series(2, 0.6, 2)
    exact = series.f == (0.0, 0.36, 0.553536)

    monotone_ok = True
    theta_ok = True
    for k, eta in ((1, 0.1), (2, 0.6), (2, 0.75), (3, 0.7), (3, 0.9)):
        s = f_series(k, eta, 40)
        monotone_ok &= all(a <= b for a, b in zip(s.f, s.f[1:]))
        info = theta_and_threshold(k, eta)
        if info.theta < 1:
            theta_ok &= all(
                1 - f <= info.theta**i + 1e-12 for i, f in enumerate(s.f)
            )

    # independent re-iteration of the depth search
    f, t = 0.0, 0
    while 1 - f > 0.01:
        f = (0.75 + 0.25 * f) ** 2
        t += 1
    depth_ok = min_worthless_depth(2, 0.75, 1, 0.01) == t == 7

    ok = exact and monotone_ok and theta_ok and depth_ok
    _report(
        "7 f-series analytic checks",
        ok,
        f"exact doubles {series.f} == (0.0, 0.36, 0.553536): {exact}; "
        f"monotone: {monotone_ok}; 1-f_i <= theta^i: {theta_ok}; "
        f"depth(2, 0.75, 1, 0.01) == {t}: {depth_ok}",
    )


def test_criterion_8_depth_log_scaling():
    k, eta, eps = 2, 0.75, 0.01
    theta = theta_and_threshold(k, eta).theta
    base = min_worthless_depth(k, eta, 1, eps)
    worst_dev = 0.0
    depths = {}
    for n in (1, 4, 16, 64):
        measured = min_worthless_depth(k, eta, n, eps)
        predicted = base + 2 * math.log(n) / math.log(1 / theta)
        depths[n] = measured
        worst_dev = max(worst_dev, abs(measured - predicted))
    _report(
        "8 depth log-scaling",
        worst_dev <= 2.0,
        f"depths {depths} vs depth(1) + 2 ln(n)/ln(1/theta), "
        f"max deviation {worst_dev:.2f} <= 2 levels",
    )


def test_criterion_9_byte_identical_outputs(tmp_path):
    circuit_path = tmp_path / "c.qc"
    circuit_path.write_text(serialize_circuit(random_circuit(2, 4, 6, seed=77)))
    identical = True
    commands = [
        ["simulate", "--circuit", str(circuit_path), "--eta", "0.6",
         "--probes", "random:8", "--seed", "5"],
        ["bound", "--k", "2", "--eta", "0.6", "--depth", "12", "--n", "4"],
        ["sweep", "--k", "1,2", "--eta", "0.75,0.9", "--n", "1,4,16"],
    ]
    for idx, args in enumerate(commands):
        out_a = tmp_path / f"a{idx}.csv"
        out_b = tmp_path / f"b{idx}.csv"
        assert main(args + ["--output", str(out_a)]) == 0
        assert main(args + ["--output", str(out_b)]) == 0
        identical &= out_a.read_bytes() == out_b.read_bytes()
    _report(
        "9 determinism",
        identical,
        f"{len(commands)} repeated invocations produced byte-identical CSVs",
    )
