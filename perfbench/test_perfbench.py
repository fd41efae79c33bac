"""Tests of the benchmark itself: failure accounting, span nesting, golden
comparison and the exact count formulas.

    python3 -m pytest perfbench -q
"""

import itertools
import json
import os
import sys
from math import comb

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

run.import_program()

import make_golden  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from decolab import analysis, circuit  # noqa: E402


def _golden(workload: str, seed: int) -> list:
    with open(run.GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)[workload][str(seed)]


def _perturbed(entry, delta):
    if isinstance(entry, dict):
        key = sorted(entry)[0]
        return {**entry, key: _perturbed(entry[key], delta)}
    if isinstance(entry, list):
        return [_perturbed(entry[0], delta)] + entry[1:]
    return entry + delta


def test_golden_reproduced_and_perturbation_counted_as_failed(tmp_path):
    task = workloads.ProfilesBasis(str(tmp_path)).task(0, 0)
    golden = _golden("profiles-basis", 0)[0]
    assert run.run_task(task, golden)[1]
    assert not run.run_task(task, _perturbed(golden, 1e-9))[1]


def test_injected_exception_is_counted_not_fatal():
    def boom():
        raise RuntimeError("injected")

    def make_task(index):
        return workloads.Task(
            label=f"fake{index}",
            run=boom if index == 1 else (lambda: 0),
            check=lambda output: [],
            digest=lambda output: {},
            counts={"analysis.checks": 1},
        )

    results = run.run_cycles(make_task, cycle=3, seconds=0.0, golden=[])
    assert [r.ok for r in results] == [True, False, True]
    metrics, _ = run.end_to_end(results, cycle=3, setup_s=1.0)
    assert metrics["checks_per_s"]["value"] > 0
    assert metrics["task_s"]["value"] == 0.0  # the only cycle holds a failure


def _small_profiles(tmp_path):
    workload = workloads.ProfilesBasis(str(tmp_path))
    workload.shapes = ((2, 4), (3, 8))
    workload.depth = 3
    return workload


def test_child_spans_stay_inside_their_parents(tmp_path):
    workload = _small_profiles(tmp_path)
    originals = {
        (m, a): getattr(sys.modules[m], a) for targets in tracing.WRAPPED.values() for m, a in targets
    }
    tracer = tracing.Tracer()
    with tracer.installed() as missing:
        for index in range(2):
            tracer.task = index
            assert run.run_task(workload.task(0, index), None, tracer)[1]
    assert missing == []
    assert tracer.nesting_violations() == 0
    assert any(s.parent >= 0 for s in tracer.spans)
    for s in tracer.spans:
        if s.parent >= 0:
            parent = tracer.spans[s.parent]
            assert parent.start <= s.start <= s.end <= parent.end
            assert parent.task == s.task
    for (m, a), fn in originals.items():
        assert getattr(sys.modules[m], a) is fn
    summary = tracer.summary(tasks=2)
    assert summary["analysis.pairwise_profiles"]["calls"] == 4  # (3 + 1 levels) per task
    assert summary["circuit.apply_layer"]["calls"] == (4 * 3 + 8 * 3) / 2


def test_nesting_violation_is_detected():
    tracer = tracing.Tracer()
    tracer.spans = [tracing.Span("a", 0.0, 1.0, -1, 0), tracing.Span("b", 0.5, 1.5, 0, 0)]
    assert tracer.nesting_violations() == 1


def _measured(task, monkeypatch):
    """Run ``task`` while counting the eigenproblems and recorded states."""
    seen = {"checks": 0, "eig_d3": 0, "state_bytes": 0, "layers": 0}
    eigvalsh = np.linalg.eigvalsh
    run_noisy = circuit.run_noisy
    apply_layer = circuit.apply_layer

    def counting_eigvalsh(m):
        batch = int(np.prod(m.shape[:-2]))
        seen["checks"] += batch
        seen["eig_d3"] += batch * m.shape[-1] ** 3
        return eigvalsh(m)

    def recording_run_noisy(*args, **kwargs):
        traj = run_noisy(*args, **kwargs)
        seen["state_bytes"] += sum(level.mat.nbytes for level in traj.levels)
        return traj

    def counting_apply_layer(*args, **kwargs):
        seen["layers"] += 1
        return apply_layer(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    monkeypatch.setattr(analysis, "run_noisy", recording_run_noisy)
    monkeypatch.setattr(circuit, "run_noisy", recording_run_noisy)
    monkeypatch.setattr(circuit, "apply_layer", counting_apply_layer)
    assert task.check(task.run()) == []
    return seen


def _assert_counts(task, seen):
    assert task.counts["analysis.checks"] == seen["checks"]
    assert task.counts["analysis.eig_d3_sum"] == seen["eig_d3"]
    assert task.counts["circuit.state_bytes"] == seen["state_bytes"]
    assert task.counts["circuit.layer_applications"] == seen["layers"]


@pytest.mark.parametrize("index", [0, 1])  # widths 2 and 3
def test_profile_counts_match_brute_force(tmp_path, monkeypatch, index):
    workload = _small_profiles(tmp_path)
    width, n_probes = workload.shapes[index]
    task = workload.task(5, index)
    _assert_counts(task, _measured(task, monkeypatch))
    enumerated = sum(
        1
        for _pair in itertools.combinations(range(n_probes), 2)
        for _level in range(workload.depth + 1)
        for size in range(1, width + 1)
        for _subset in itertools.combinations(range(width), size)
    )
    assert task.counts["analysis.checks"] == enumerated


@pytest.mark.parametrize("width", [2, 3])
def test_simulate_counts_match_brute_force(tmp_path, monkeypatch, width):
    workload = workloads.SimulateRandomW7(str(tmp_path))
    workload.width, workload.depth, workload.n_probes = width, 2, 3
    task = workload.task(5, 0)
    _assert_counts(task, _measured(task, monkeypatch))


@pytest.mark.parametrize("width", [2, 3])
def test_verdict_counts_match_brute_force(tmp_path, monkeypatch, width):
    workload = workloads.WorthlessWide(str(tmp_path))
    workload.width, workload.depth, workload.n_probes = width, 3, 4
    task = workload.task(5, 0)
    _assert_counts(task, _measured(task, monkeypatch))
    assert task.counts["analysis.checks"] == comb(4, 2) + 4


def test_mixed_circuits_use_every_gate_kind():
    text = workloads.mixed_circuit_text(np.random.default_rng(1), 2, 9, 4)
    for kind in ("unitary", "gate DEPHASE", "gate TRACEOUT", "gate PREP0"):
        assert kind in text
    assert circuit.parse_circuit(text).widths == (9,) * 5


def test_every_workload_has_golden_outputs_for_the_default_seeds():
    with open(run.GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert set(golden) == set(workloads.WORKLOADS)
    for entries in golden.values():
        assert set(entries) == {str(s) for s in make_golden.DEFAULT_SEEDS}


def test_environment_record_names_blas_and_threads():
    env = run.environment(seed=3, workload="profiles-basis")
    for key in ("python", "numpy", "blas", "lapack", "OPENBLAS_NUM_THREADS",
                "OMP_NUM_THREADS", "cpu_count", "commit", "seed"):  # fmt: skip
        assert key in env
    assert env["seed"] == 3


def test_printed_metrics_match_the_benchmark_definition():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    fake = [run.Result(0, 1.0, True, {"analysis.checks": 1})]
    e2e, _ = run.end_to_end(fake, cycle=1, setup_s=1.0)
    layers = run.per_layer(tracing.Tracer().summary(1), fake, 0.0)
    for printed, declared in ((e2e, spec["end_to_end"]), (layers, spec["per_layer"])):
        assert {n: m["unit"] for n, m in printed.items()} == {
            d["name"]: d["unit"] for d in declared
        }
