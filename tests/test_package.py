import importlib
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
#: ``eta = 0``, a pair's profile is ``pairwise_profiles([a, b])[0]``, and the
#: Kraus-sum application, the one-step bounds, the one-qubit depolarizer and
#: the state from a bare matrix live in ``tests/oracles.py``
REMOVED = [
    "channel_apply",
    "depolarize_qubit",
    "distance_profile",
    "empirical_d",
    "from_matrix",
    "gate_only_step_bound",
    "recursion_step_bound",
    "run_ideal",
]

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class TestExports:
    @pytest.mark.parametrize("name", MODULES)
    def test_every_exported_name_resolves(self, name):
        module = importlib.import_module(name)
        assert len(set(module.__all__)) == len(module.__all__)
        assert [n for n in module.__all__ if not hasattr(module, n)] == []

    @pytest.mark.parametrize("name", MODULES)
    def test_removed_names_are_gone(self, name):
        module = importlib.import_module(name)
        assert [n for n in REMOVED if n in module.__all__ or hasattr(module, n)] == []

    def test_removed_names_are_gone_from_the_state_class(self):
        assert [n for n in REMOVED if hasattr(decolab.DensityMatrix, n)] == []

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
        assert out.stdout.splitlines()[0] == header
