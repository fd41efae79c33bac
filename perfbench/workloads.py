"""The benchmark's three workloads, driven through decolab's public API.

Each workload turns ``(seed, task index)`` into one :class:`Task`: the inputs
are generated here and the program only ever sees them.  Tasks repeat in a
fixed cycle that holds one task of every shape and regime, so a run made of
whole cycles always holds the same mix of task sizes, whatever the seed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from decolab import analysis, circuit, cli
from decolab.linalg import haar_unitary

import counts

#: slack on ``empirical <= analytic bound`` (criterion 3's ``TOL_BOUND_SLACK``)
BOUND_SLACK = 1e-8
#: rounding slack on the verdicts' triangle inequality and [0, 1] range
VERDICT_SLACK = 1e-12

# spans each workload must reach; a zero count there is missing coverage
SIMULATOR_SPANS = {
    "circuit.run_noisy",
    "circuit.apply_layer",
    "channels.depolarize_all",
    "linalg.permute_matrix",
    "linalg.settle",
}


@dataclass
class Task:
    label: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]  # invariant violations, empty when correct
    digest: Callable[[object], dict]  # the form stored as a golden output
    counts: dict[str, int]


def _task_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def _profile_problems(profile: np.ndarray, bounds: np.ndarray, where: str) -> list[str]:
    problems = []
    excess = float((profile - bounds[None, :]).max())
    if excess > BOUND_SLACK:
        problems.append(f"{where}: empirical exceeds the analytic bound by {excess:.3e}")
    if profile.shape[1] > 1 and float(np.diff(profile, axis=1).min()) < 0.0:
        problems.append(f"{where}: profile not monotone in n")
    return problems


def _profile_counts(n_probes: int, widths: list[int]) -> dict[str, int]:
    return {
        "analysis.checks": counts.profile_checks(n_probes, widths),
        "analysis.eig_d3_sum": counts.profile_eig_d3(n_probes, widths),
        "circuit.layer_applications": counts.layer_applications(n_probes, len(widths) - 1),
        "circuit.state_bytes": counts.trajectory_state_bytes(n_probes, widths),
    }


def _bounds(k: int, eta: float, depth: int, level: int, width: int) -> np.ndarray:
    series = analysis.f_series(k, eta, depth)
    rounds = analysis.noise_rounds_at_level(level, depth)
    return np.array([analysis.analytic_bound(series, rounds, n) for n in range(width + 1)])


class ProfilesBasis:
    """Per-pair profiles at every level, basis probes: criterion 3/4's shape."""

    name = "profiles-basis"
    depth = 12
    #: (width, number of basis probes): all 16 basis states at width 4, a
    #: seeded 16 of the 32 at width 5 and 8 of the 64 at width 6.  Full basis
    #: sets (496 and 2016 pairs) take ~3 s and ~45 s a circuit, too long for
    #: a steady median within one run.
    shapes = ((4, 16), (5, 16), (6, 8))
    #: (k, eta) above and below the threshold 1 - 1/k
    regimes = ((2, 0.6), (1, 0.1))
    expected_spans = SIMULATOR_SPANS | {"analysis.pairwise_profiles"}

    def __init__(self, workdir: str):
        self.cycle = len(self.shapes) * len(self.regimes)

    def task(self, seed: int, index: int) -> Task:
        width, n_probes = self.shapes[index % len(self.shapes)]
        k, eta = self.regimes[index // len(self.shapes) % len(self.regimes)]
        depth, rng = self.depth, _task_rng(seed, index)
        circ = circuit.random_circuit(k, width, depth, int(rng.integers(2**31)))
        probes = analysis.make_probes("basis", width)
        if n_probes < len(probes):
            picked = np.sort(rng.choice(len(probes), n_probes, replace=False))
            probes = [probes[i] for i in picked]

        def run():
            trajectories = [circuit.run_noisy(circ, eta, p) for p in probes]
            return [
                analysis.pairwise_profiles([t.levels[level] for t in trajectories])
                for level in range(depth + 1)
            ]

        def check(profiles) -> list[str]:
            problems = []
            if len(profiles) != depth + 1:
                return [f"{len(profiles)} levels, expected {depth + 1}"]
            for level, p in enumerate(profiles):
                if p.shape != (counts.pairs(n_probes), width + 1):
                    problems.append(f"level {level}: profile shape {p.shape}")
                    continue
                bounds = _bounds(k, eta, depth, level, width)
                problems += _profile_problems(p, bounds, f"level {level}")
            return problems

        def digest(profiles) -> dict:
            return {
                "max": [p.max(axis=0).tolist() for p in profiles],
                "mean": [p.mean(axis=0).tolist() for p in profiles],
            }

        return Task(
            label=f"k={k} eta={eta} width={width} probes={n_probes}",
            run=run,
            check=check,
            digest=digest,
            counts=_profile_counts(n_probes, list(circ.widths)),
        )


class SimulateRandomW7:
    """``decolab simulate`` in-process on generated width-7 circuit files."""

    name = "simulate-random-w7"
    k = 2
    width = 7
    depth = 6
    #: 8 random probes (28 pairs); 16 probes take ~10 s an invocation
    n_probes = 8
    eta = 0.6
    expected_spans = SIMULATOR_SPANS | {
        "cli.main",
        "circuit.parse_circuit_file",
        "analysis.distance_report",
        "analysis.pairwise_profiles",
    }

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.cycle = 1

    def task(self, seed: int, index: int) -> Task:
        eta, width, depth, n_probes = self.eta, self.width, self.depth, self.n_probes
        rng = _task_rng(seed, index)
        circ = circuit.random_circuit(self.k, width, depth, int(rng.integers(2**31)))
        path = os.path.join(self.workdir, f"sim{index}.qc")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(circuit.serialize_circuit(circ))
        out = os.path.join(self.workdir, f"sim{index}.csv")
        argv = [
            "simulate", "--circuit", path, "--eta", repr(eta),
            "--probes", f"random:{n_probes}", "--seed", str(int(rng.integers(2**31))),
            "--output", out,
        ]  # fmt: skip

        def run():
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            with open(out, encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
            return code, rows

        def check(result) -> list[str]:
            code, rows = result
            if code != 0:
                return [f"simulate exited {code}"]
            if len(rows) != (depth + 1) * (width + 1):
                return [f"{len(rows)} report rows, expected {(depth + 1) * (width + 1)}"]
            problems = []
            for level in range(depth + 1):
                block = rows[level * (width + 1) : (level + 1) * (width + 1)]
                if [(int(r["level"]), int(r["n"])) for r in block] != [
                    (level, n) for n in range(width + 1)
                ]:
                    problems.append(f"level {level}: unexpected (level, n) rows")
                    continue
                emp = np.array([[float(r["empirical_d"]) for r in block]])
                bounds = _bounds(self.k, eta, depth, level, width)
                problems += _profile_problems(emp, bounds, f"level {level}")
            return problems

        def digest(result) -> dict:
            return {"empirical_d": [float(r["empirical_d"]) for r in result[1]]}

        return Task(
            label=f"eta={eta} width={width} probes=random:{n_probes}",
            run=run,
            check=check,
            digest=digest,
            counts=_profile_counts(n_probes, list(circ.widths)),
        )


def mixed_circuit_text(rng: np.random.Generator, k: int, width: int, depth: int) -> str:
    """A width-preserving circuit mixing random unitaries, ``DEPHASE`` and
    ``TRACEOUT``/``PREP0`` refresh pairs, in decolab's text format."""
    lines = [f"k {k}", f"width {width}"]
    for _ in range(depth):
        lines.append("layer")
        remaining = [int(q) for q in rng.permutation(width)]
        while remaining:
            size = int(rng.integers(1, min(k, len(remaining)) + 1))
            block, remaining = sorted(remaining[:size]), remaining[size:]
            wires = ",".join(str(q) for q in block)
            kind = rng.random() if size == 1 else 0.0
            if kind < 0.4:
                u = haar_unitary(size, rng)
                entries = " ".join(circuit.format_complex(z) for z in u.flat)
                lines.append(f"unitary {entries} [{wires}] -> [{wires}]")
            elif kind < 0.7:
                lines.append(f"gate DEPHASE [{wires}] -> [{wires}]")
            else:
                lines.append(f"gate TRACEOUT [{wires}] -> []")
                lines.append(f"gate PREP0 [] -> [{wires}]")
    return "\n".join(lines) + "\n"


class WorthlessWide:
    """Both worthlessness verdicts on wide mixed circuits: simulator-bound."""

    name = "worthless-wide"
    k = 2
    #: width 9 only: one width-10 task takes ~10 s, too few for a steady median
    width = 9
    depth = 4
    n_probes = 3
    eta = 0.3
    expected_spans = SIMULATOR_SPANS | {
        "analysis.practically_worthless",
        "analysis.worthless",
        "linalg.trace_distance",
    }

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.cycle = 1

    def task(self, seed: int, index: int) -> Task:
        width, depth, n_probes = self.width, self.depth, self.n_probes
        rng = _task_rng(seed, index)
        path = os.path.join(self.workdir, f"wide{index}.qc")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(mixed_circuit_text(rng, self.k, width, depth))
        circ = circuit.parse_circuit_file(path)
        probes = analysis.make_probes(f"random:{n_probes}", width, int(rng.integers(2**31)))
        eta, eps = self.eta, analysis.DEFAULT_EPS

        def run():
            pw = analysis.practically_worthless(circ, eta, eps=eps, probes=probes)
            w = analysis.worthless(circ, eta, eps=eps, probes=probes)
            return pw, w

        def check(result) -> list[str]:
            (pw_ok, pw_max), (w_ok, w_max) = result
            problems = []
            # triangle inequality through the maximally mixed state
            if pw_max > 2 * w_max + VERDICT_SLACK:
                problems.append(f"pairwise max {pw_max!r} > 2 x {w_max!r}")
            verdicts = (("practically_worthless", pw_ok, pw_max), ("worthless", w_ok, w_max))
            for name, ok, value in verdicts:
                if not 0.0 <= value <= 1.0 + VERDICT_SLACK:
                    problems.append(f"{name}: distance {value!r} outside [0, 1]")
                if bool(ok) != (value <= eps):
                    problems.append(f"{name}: verdict {ok} disagrees with {value!r} vs eps")
            return problems

        def digest(result) -> dict:
            return {"practically_worthless": result[0][1], "worthless": result[1][1]}

        widths = list(circ.widths)
        return Task(
            label=f"eta={eta} width={width} depth={depth} probes={n_probes}",
            run=run,
            check=check,
            digest=digest,
            counts={
                "analysis.checks": counts.verdict_checks(n_probes),
                "analysis.eig_d3_sum": counts.verdict_eig_d3(n_probes, widths[-1]),
                "circuit.layer_applications": counts.layer_applications(n_probes, depth, runs=2),
                "circuit.state_bytes": counts.trajectory_state_bytes(n_probes, widths, runs=2),
            },
        )


WORKLOADS = {w.name: w for w in (ProfilesBasis, SimulateRandomW7, WorthlessWide)}
