import ast
import glob
import importlib
import inspect
import os
import subprocess
import sys

import pytest

import decolab

MODULES = [
    "decolab",
    "decolab.analysis",
    "decolab.channels",
    "decolab.circuit",
    "decolab.cli",
    "decolab.linalg",
]

#: names the library no longer defines: the ideal run is ``run_noisy`` at
#: ``eta = 0``, a pair's profile is ``pairwise_profiles([a, b])[0]``, a
#: preparation is ``GATES["PREP0"]`` and its kin, the scalar state is
#: ``basis_state(0, 0)``, ``channel_validate`` returns its residual, and the
#: Kraus-sum application, the one-step bounds, the one-qubit depolarizer,
#: the state from a bare matrix, the density-matrix validator, the capped
#: Kronecker product, the Hermitian part and the qubit permutation live in
#: ``tests/oracles.py``; ``settle``'s guards moved into the Pauli-coefficient
#: path (the trace check on each transfer matrix and on each state converted
#: on the way in), and so did the matrix eigenvalue checks and the
#: classical-qubit split, which ``trace_distance`` reads from the
#: coefficients; a fresh matrix is never adopted in place; the subset
#: enumeration slices its reduced states out of the coefficients
REMOVED = [
    "PSD_TOL",
    "TRACE_TOL",
    "ValidationReport",
    "_SPLIT_MIN_DIM",
    "_adopt",
    "_check_perm",
    "_classical_qubits",
    "_depolarized",
    "_json_ready",
    "_log2_dim",
    "_split_eigenvalues",
    "batched_partial_trace",
    "channel_apply",
    "depolarize_qubit",
    "dim",
    "distance_profile",
    "empirical_d",
    "from_matrix",
    "gate_only_step_bound",
    "hermitian_eigenvalues",
    "hermitian_part",
    "permute_matrix",
    "prep_channel",
    "recursion_step_bound",
    "run_ideal",
    "scalar",
    "settle",
    "tensor",
    "validate_density",
]

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _references(pattern: str) -> set[str]:
    """Every name and attribute the matching files use, leaving out
    ``__all__`` lists, imports and the names being defined."""
    used: set[str] = set()

    def visit(node: ast.AST) -> None:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child)

    for path in glob.glob(os.path.join(REPO, pattern)):
        with open(path, encoding="utf-8") as fh:
            visit(ast.parse(fh.read()))
    return used


class TestExports:
    @pytest.mark.parametrize("name", MODULES)
    def test_every_exported_name_resolves(self, name):
        module = importlib.import_module(name)
        assert len(set(module.__all__)) == len(module.__all__)
        assert [n for n in module.__all__ if not hasattr(module, n)] == []

    @pytest.mark.parametrize("name", MODULES)
    def test_every_exported_name_is_used_by_the_product(self, name):
        # used by the library beyond its definition and exports, or by the
        # scripts or the benchmark; a name only the tests use is an oracle
        used = _references("src/decolab/*.py") | _references("scripts/*.py")
        used |= _references("perfbench/*.py")
        module = importlib.import_module(name)
        assert [n for n in module.__all__ if n not in used] == []

    @pytest.mark.parametrize("name", MODULES + ["decolab.config"])
    def test_removed_names_are_gone(self, name):
        module = importlib.import_module(name)
        exported = getattr(module, "__all__", [])
        assert [n for n in REMOVED if n in exported or hasattr(module, n)] == []

    def test_removed_names_are_gone_from_the_state_class(self):
        assert [n for n in REMOVED if hasattr(decolab.DensityMatrix, n)] == []

    @pytest.mark.parametrize(
        "function",
        [
            decolab.circuit.run_noisy,
            decolab.analysis.distance_report,
            decolab.analysis.noise_rounds_at_level,
        ],
        ids=lambda f: f.__name__,
    )
    def test_one_noise_schedule(self, function):
        # a round before the first layer or after the last is an empty layer
        assert "extra_noise_round" not in inspect.signature(function).parameters

    def test_star_import_matches_all(self):
        namespace: dict = {}
        exec("from decolab import *", namespace)
        assert sorted(n for n in namespace if n != "__builtins__") == sorted(decolab.__all__)


class TestScripts:
    @pytest.mark.parametrize(
        "script,args,header",
        [
            (
                "collapse_demo.py",
                ["--width", "2", "--depth", "3"],
                "random circuit: k=2 width=2 depth=3 seed=0",
            ),
            ("depth_scaling.py", ["--sizes", "1,2"], "k=2 eps=0.01 threshold=0.5"),
        ],
    )
    def test_script_runs(self, script, args, header):
        assert _run_script(script, args).splitlines()[0] == header

    def test_depth_scaling_prints_na_below_threshold(self):
        out = _run_script("depth_scaling.py", ["--etas", "0.4,0.6", "--sizes", "1,4"])
        rows = {line.split()[0]: line.split()[2:] for line in out.splitlines() if line.strip()}
        assert rows["0.4"] == ["n/a", "n/a"]
        assert rows["0.6"] == ["18", "30"]
        assert "below-threshold" not in out


def _run_script(script: str, args: list[str]) -> str:
    src = os.path.join(REPO, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, os.path.join(REPO, "scripts", script), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout
