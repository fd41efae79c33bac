import glob
import json
import math
import os
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import decolab.analysis
import decolab.circuit
import decolab.cli
from decolab.channels import GATES, QuantumChannel, channel_validate
from decolab.circuit import Trajectory, random_circuit, serialize_circuit
from decolab.cli import main
from decolab.linalg import DensityMatrix

BELL = "k 2\nwidth 2\nlayer\ngate H [0] -> [0]\nlayer\ngate CNOT [0,1] -> [0,1]\n"


@pytest.fixture
def bell_path(tmp_path):
    path = tmp_path / "bell.qc"
    path.write_text(BELL)
    return str(path)


@pytest.fixture
def wire11_path(tmp_path):
    path = tmp_path / "wire11.qc"
    path.write_text("k 1\nwidth 1\n" + "layer\ngate I [0] -> [0]\n" * 11)
    return str(path)


def read_csv(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


class TestSimulate:
    def test_bell_at_eta_zero(self, bell_path, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = main(
            [
                "simulate", "--circuit", bell_path, "--eta", "0",
                "--probes", "basis", "--output", str(out),
            ]
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["level", "i_width", "n", "empirical_d", "bound", "slack"]
        final_full = [r for r in rows if r["level"] == "2" and r["n"] == "2"]
        assert float(final_full[0]["empirical_d"]) == pytest.approx(1.0, abs=1e-10)
        summary = capsys.readouterr().out
        assert "final_max_distance=" in summary
        assert "practically_worthless=false" in summary

    def test_wire_decay_flag(self, wire11_path, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = main(
            [
                "simulate", "--circuit", wire11_path, "--eta", "0.5",
                "--probes", "basis", "--output", str(out),
            ]
        )
        assert code == 0
        summary = capsys.readouterr().out
        assert "practically_worthless=true" in summary
        _, rows = read_csv(out)
        final = [r for r in rows if r["level"] == "11" and r["n"] == "1"][0]
        assert float(final["empirical_d"]) == pytest.approx(0.5**10, abs=1e-10)

    def test_random_circuit_report_nonnegative_slack(self, tmp_path):
        path = tmp_path / "rand.qc"
        path.write_text(serialize_circuit(random_circuit(2, 4, 6, seed=3)))
        out = tmp_path / "report.csv"
        code = main(
            [
                "simulate", "--circuit", str(path), "--eta", "0.6",
                "--probes", "basis", "--output", str(out),
            ]
        )
        assert code == 0
        _, rows = read_csv(out)
        assert rows and all(float(r["slack"]) >= -1e-8 for r in rows)

    def test_json_mirrors_csv_columns(self, bell_path, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            [
                "simulate", "--circuit", bell_path, "--eta", "0.3",
                "--probes", "pair:0,3", "--format", "json", "--output", str(out),
            ]
        )
        assert code == 0
        rows = json.loads(out.read_text())
        assert isinstance(rows, list)
        assert set(rows[0]) == {"level", "i_width", "n", "empirical_d", "bound", "slack"}

    def test_parse_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.qc"
        bad.write_text("k 2\nwidth 2\nlayer\ngate NOPE [0] -> [0]\n")
        code = main(["simulate", "--circuit", str(bad), "--eta", "0.5"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["simulate", "--circuit", str(tmp_path / "no.qc"), "--eta", "0"]) == 2

    def test_width_cap_exits_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("DECOLAB_MAX_QUBITS", "2")
        path = tmp_path / "wide.qc"
        path.write_text(
            "k 1\nwidth 3\nlayer\ngate I [0] -> [0]\ngate I [1] -> [1]\ngate I [2] -> [2]\n"
        )
        code = main(["simulate", "--circuit", str(path), "--eta", "0.5"])
        assert code == 3
        assert "resource cap" in capsys.readouterr().err

    def test_gate_wider_than_the_cap_exits_3(self, tmp_path, capsys):
        identity = " ".join("1+0i" if r == c else "0+0i" for r in range(64) for c in range(64))
        path = tmp_path / "wide_gate.qc"
        path.write_text(f"k 6\nwidth 6\nlayer\nunitary {identity} [0,1,2,3,4,5] -> [0,1,2,3,4,5]\n")
        code = main(["simulate", "--circuit", str(path), "--eta", "0.5"])
        assert code == 3
        assert "resource cap: gate ?: fan-in plus fan-out, as a width 12" in capsys.readouterr().err

    def test_trace_drift_exits_4(self, bell_path, tmp_path, monkeypatch, capsys):
        transfer = decolab.circuit._transfer_matrix
        monkeypatch.setattr(decolab.circuit, "_transfer_matrix", lambda ch: 1.5 * transfer(ch))
        code = main(["simulate", "--circuit", bell_path, "--eta", "0.5",
                     "--output", str(tmp_path / "r.csv")])
        assert code == 4
        err = capsys.readouterr().err
        assert "numerical failure" in err and "gate H: trace drifted by" in err

    def test_eigensolver_failure_exits_4(self, bell_path, tmp_path, monkeypatch, capsys):
        def diverged(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", diverged)
        code = main(["simulate", "--circuit", bell_path, "--eta", "0.5",
                     "--output", str(tmp_path / "r.csv")])
        assert code == 4
        assert "numerical failure" in capsys.readouterr().err

    def test_nan_trace_exits_4(self, bell_path, tmp_path, monkeypatch, capsys):
        transfer = decolab.circuit._transfer_matrix

        def poisoned(channel):
            r = transfer(channel)
            r[0, 0] = np.nan
            return r

        monkeypatch.setattr(decolab.circuit, "_transfer_matrix", poisoned)
        code = main(["simulate", "--circuit", bell_path, "--eta", "0.5",
                     "--output", str(tmp_path / "r.csv")])
        assert code == 4
        assert "trace drifted by nan" in capsys.readouterr().err

    @pytest.mark.parametrize("kraus", [0.9 * np.eye(2), np.array([[1, 0], [0, np.nan]])])
    def test_a_channel_that_breaks_the_trace_exits_4(
        self, kraus, bell_path, tmp_path, monkeypatch, capsys
    ):
        broken = QuantumChannel(1, 1, (kraus,), label="H")
        monkeypatch.setitem(decolab.circuit.GATES, "H", broken)
        code = main(["simulate", "--circuit", bell_path, "--eta", "0.5",
                     "--output", str(tmp_path / "r.csv")])
        assert code == 4
        err = capsys.readouterr().err
        assert "numerical failure" in err and "gate H: trace drifted" in err

    def test_non_finite_subset_distance_exits_4(self, bell_path, tmp_path, monkeypatch, capsys):
        eigvalsh = np.linalg.eigvalsh

        def nan_below_full_register(m):
            ev = eigvalsh(m)
            return ev if m.shape[-1] == 4 else np.full_like(ev, np.nan)

        monkeypatch.setattr(np.linalg, "eigvalsh", nan_below_full_register)
        code = main(["simulate", "--circuit", bell_path, "--eta", "0.5",
                     "--output", str(tmp_path / "r.csv")])
        assert code == 4
        assert "non-finite trace distance" in capsys.readouterr().err

    def test_numerical_failure_in_a_late_level_worker_exits_4(
        self, wire11_path, tmp_path, monkeypatch, capsys
    ):
        run_noisy = decolab.analysis.run_noisy

        def nan_final_level(circuit, eta, rho0, extra_noise_round=False):
            levels = list(run_noisy(circuit, eta, rho0, extra_noise_round).levels)
            mat = np.array(levels[-1].mat)
            mat[0, 1] = mat[1, 0] = np.nan
            levels[-1] = DensityMatrix(1, mat)
            return Trajectory(tuple(levels))

        max_profile = decolab.analysis.max_profile
        raised_in = []

        def recording(states):
            try:
                return max_profile(states)
            except ArithmeticError:
                raised_in.append(threading.current_thread())
                raise

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.setattr(decolab.analysis, "run_noisy", nan_final_level)
        monkeypatch.setattr(decolab.analysis, "max_profile", recording)
        with np.errstate(invalid="ignore"):
            code = main(["simulate", "--circuit", wire11_path, "--eta", "0.5",
                         "--output", str(tmp_path / "r.csv")])
        assert code == 4
        assert "non-finite trace distance" in capsys.readouterr().err
        assert len(raised_in) == 1 and raised_in[0] is not threading.main_thread()

    def test_eigensolve_counters_on_stderr_only(self, tmp_path, capsys):
        path = tmp_path / "rand.qc"
        circ = random_circuit(2, 4, 5, seed=8)
        path.write_text(serialize_circuit(circ))
        outputs = []
        for name in ("a.csv", "b.csv"):
            args = ["simulate", "--circuit", str(path), "--eta", "0.6",
                    "--probes", "random:5", "--seed", "2", "--output", str(tmp_path / name)]
            assert main(args) == 0
            captured = capsys.readouterr()
            assert not any(c in captured.out for c in ("eigensolves", "norm_pruned", "factored"))
            outputs.append((tmp_path / name).read_bytes())
        counters = dict(
            item.split("=") for item in captured.err.split("simulate: ")[1].split()
        )
        full = math.comb(5, 2) * sum(2**w - 1 for w in circ.widths)
        assert int(counters["eigensolves_full"]) == full
        assert 0 < int(counters["eigensolves_run"]) <= full
        assert int(counters["workers"]) >= 1
        # depolarized levels: the Frobenius bound skips some of what is left
        assert int(counters["norm_pruned"]) > 0
        # random pure probes: levels 0 and 1 are pure, and factored
        assert 0 < int(counters["factored"]) < int(counters["eigensolves_run"])
        assert captured.err.rstrip().endswith(f"factored={counters['factored']}")
        assert outputs[0] == outputs[1]
        assert b"eigensolves" not in outputs[0] and b"factored" not in outputs[0]

    def test_eta_out_of_range_exits_2(self, bell_path):
        assert main(["simulate", "--circuit", bell_path, "--eta", "1.5"]) == 2

    def test_width_assertion(self, bell_path, tmp_path):
        out = tmp_path / "r.csv"
        assert main(
            ["simulate", "--circuit", bell_path, "--eta", "0", "--width", "3",
             "--output", str(out)]
        ) == 2

    def test_extra_noise_round(self, wire11_path, tmp_path):
        out = tmp_path / "r.csv"
        code = main(
            [
                "simulate", "--circuit", wire11_path, "--eta", "0.5",
                "--probes", "basis", "--extra-noise-round", "--output", str(out),
            ]
        )
        assert code == 0
        _, rows = read_csv(out)
        final = [r for r in rows if r["level"] == "11" and r["n"] == "1"][0]
        assert float(final["empirical_d"]) == pytest.approx(0.5**12, abs=1e-12)


class TestBound:
    def test_eta_one_column(self, tmp_path):
        out = tmp_path / "bound.csv"
        assert main(["bound", "--k", "2", "--eta", "1", "--depth", "3",
                     "--output", str(out)]) == 0
        _, rows = read_csv(out)
        assert [float(r["f_i"]) for r in rows] == [0.0, 1.0, 1.0, 1.0]

    def test_hand_iterated_rows_literal(self, tmp_path):
        out = tmp_path / "bound.csv"
        assert main(["bound", "--k", "2", "--eta", "0.6", "--depth", "2", "--n", "1",
                     "--output", str(out)]) == 0
        text = out.read_text()
        assert "0.36" in text and "0.553536" in text
        _, rows = read_csv(out)
        assert float(rows[1]["f_i"]) == 0.36
        assert float(rows[2]["f_i"]) == 0.553536
        assert float(rows[2]["bound_n1"]) == 1 - 0.553536

    def test_threshold_flagging(self, tmp_path, capsys):
        out = tmp_path / "bound.csv"
        assert main(["bound", "--k", "2", "--eta", "0.5", "--output", str(out)]) == 0
        assert "at/below-threshold" in capsys.readouterr().out
        assert "at/below-threshold" in out.read_text().splitlines()[0]

    def test_bad_k_exits_2(self):
        assert main(["bound", "--k", "0", "--eta", "0.5"]) == 2


class TestSweep:
    def test_reference_points(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--k", "2", "--eta", "1.0,0.75", "--n", "1,4",
                     "--eps", "0.01", "--output", str(out)]) == 0
        _, rows = read_csv(out)
        table = {(r["eta"], r["n"]): r["min_depth"] for r in rows}
        assert table[("1.0", "4")] == "1"
        assert table[("0.75", "1")] == "7"
        assert table[("0.75", "4")] == "11"

    def test_below_threshold_is_na(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--k", "2", "--eta", "0.4", "--n", "2",
                     "--output", str(out)]) == 0
        _, rows = read_csv(out)
        assert rows[0]["min_depth"] == "n/a"

    def test_rows_monotone_in_n(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--k", "2", "--eta", "0.8", "--n", "1,2,4,8,16",
                     "--output", str(out)]) == 0
        _, rows = read_csv(out)
        depths = [int(r["min_depth"]) for r in rows]
        assert depths == sorted(depths)


class TestCheck:
    def test_kraus_suite(self, capsys):
        assert main(["check", "--suite", "kraus"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        residual = float(out.split("max_residual=")[1].split()[0])
        assert residual == max(channel_validate(g) for g in GATES.values())
        assert residual > 0.0

    def test_kraus_suite_exits_4_on_a_nan_gate(self, monkeypatch, capsys):
        kraus = np.eye(2, dtype=complex)
        kraus[1, 0] = np.nan
        nan_gate = QuantumChannel(1, 1, (kraus,), label="NAN")
        monkeypatch.setitem(decolab.cli.GATES, "NAN", nan_gate)
        assert main(["check", "--suite", "kraus"]) == 4
        captured = capsys.readouterr()
        assert "non-finite" in captured.err and "PASS" not in captured.out

    def test_noise_action_suite_small(self, capsys):
        assert main(["check", "--suite", "noise-action", "--qubits", "2",
                     "--trials", "5", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "noise-action" in out and "PASS" in out

    def test_contractivity_suite_small(self):
        assert main(["check", "--suite", "contractivity", "--trials", "20",
                     "--seed", "3"]) == 0

    def test_contractivity_suite_runs_the_layer_kernel(self, monkeypatch, capsys):
        apply_layer, layers = decolab.cli.apply_layer, []

        def recording(layer, rho):
            layers.append(layer)
            return apply_layer(layer, rho)

        monkeypatch.setattr(decolab.cli, "apply_layer", recording)
        assert main(["check", "--suite", "contractivity"]) == 0
        assert "PASS" in capsys.readouterr().out
        # default 200 trials, each pushing two states through a one-gate layer
        assert len(layers) == 400 and all(len(layer.gates) == 1 for layer in layers)

    @pytest.mark.parametrize("flags", [["--trials", "0"], ["--trials", "-5"], ["--qubits", "-1"]])
    def test_bad_counts_exit_2_before_any_trial(self, flags, capsys):
        assert main(["check", "--suite", "noise-action", *flags]) == 2
        captured = capsys.readouterr()
        assert "must be >= " in captured.err and "PASS" not in captured.out

    def test_qubits_above_the_enumeration_cap_exit_3(self, monkeypatch, capsys):
        def no_trials(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(decolab.cli, "random_density", no_trials)
        assert main(["check", "--suite", "noise-action", "--qubits", "11"]) == 3
        assert "resource cap" in capsys.readouterr().err


#: every range check on a subcommand's flags: exit 2, and no table written
USAGE_ERRORS = [
    ["simulate", "--circuit", "BELL", "--eta", "1.5"],
    ["simulate", "--circuit", "BELL", "--eta", "nan"],
    ["simulate", "--circuit", "BELL", "--eta", "0.5", "--eps", "0"],
    ["bound", "--k", "0", "--eta", "0.5"],
    ["bound", "--k", "2", "--eta", "-0.1"],
    ["bound", "--k", "2", "--eta", "0.5", "--depth", "-1"],
    ["bound", "--k", "2", "--eta", "0.5", "--n", "-1"],
    ["sweep", "--k", "2", "--eta", "1.5", "--n", "1"],
    ["sweep", "--k", "2", "--eta", "0.8", "--n", "1", "--eps", "0"],
    ["sweep", "--k", "0", "--eta", "0.8", "--n", "1"],
    ["sweep", "--k", "2", "--eta", "0.8", "--n", "-1"],
    ["sweep", "--k", "", "--eta", "0.8", "--n", "1"],
]


@pytest.mark.parametrize("argv", USAGE_ERRORS, ids=" ".join)
def test_usage_error_exit_code_table(argv, bell_path, tmp_path, capsys):
    out = tmp_path / "table.csv"
    argv = [bell_path if a == "BELL" else a for a in argv]
    assert main(argv + ["--output", str(out)]) == 2
    assert "error" in capsys.readouterr().err
    assert not out.exists()


class TestDeterminism:
    def test_simulate_byte_identical(self, tmp_path):
        path = tmp_path / "c.qc"
        path.write_text(serialize_circuit(random_circuit(2, 3, 4, seed=9)))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", "--circuit", str(path), "--eta", "0.7",
                "--probes", "random:6", "--seed", "42"]
        assert main(args + ["--output", str(a)]) == 0
        assert main(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_usage_error_is_exit_2(self):
        with pytest.raises(SystemExit) as err:
            main(["simulate"])  # missing required flags
        assert err.value.code == 2


REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CIRCUITS = sorted(glob.glob(os.path.join(REPO, "circuits", "*.qc")))


def _ints(lo: int, hi: int):
    return st.integers(lo, hi).map(str)


_REALS = st.sampled_from(["0", "0.3", "0.6", "0.9", "1", "-0.1", "1.5", "nan", "inf", "x"])
_OUTPUTS = st.sampled_from(["out.csv", "out.json", "", ".", "no/such/dir.csv"])
_FORMATS = st.sampled_from(["csv", "json", "xml"])

#: each subcommand's flags and their values (``None`` for a switch), bounded
#: so that every run is short: the sizes, depths, trials and probe counts
#: are small
_FLAGS = {
    "simulate": {
        "--circuit": st.sampled_from(CIRCUITS + ["missing.qc", "."]),
        "--eta": _REALS,
        "--probes": st.sampled_from(
            ["basis", "pair:0,1", "pair:0,3", "pair:1", "random:0", "random:3", "random:x", "x"]
        ),
        "--eps": _REALS,
        "--seed": _ints(-1, 3),
        "--width": _ints(-1, 13),
        "--output": _OUTPUTS,
        "--format": _FORMATS,
        "--extra-noise-round": None,
    },
    "bound": {
        "--k": _ints(-1, 8),
        "--eta": _REALS,
        "--depth": _ints(-2, 50),
        "--n": _ints(-2, 50),
        "--output": _OUTPUTS,
        "--format": _FORMATS,
    },
    "sweep": {
        "--k": st.lists(st.integers(-1, 8), max_size=3).map(lambda v: ",".join(map(str, v))),
        "--eta": st.lists(_REALS, max_size=3).map(",".join),
        "--n": st.lists(st.integers(-1, 50), max_size=3).map(lambda v: ",".join(map(str, v))),
        "--eps": _REALS,
        "--output": _OUTPUTS,
        "--format": _FORMATS,
    },
    "check": {
        "--suite": st.sampled_from(["all", "noise-action", "contractivity", "kraus", "x"]),
        "--seed": _ints(-1, 3),
    },
}

#: tokens that name no flag, so none can slip in a value past the bounds
_JUNK = st.sampled_from(["", "-", "--", "-1", "-z", "--bogus", "x", "1,2", "=", "\u00e9"])


#: the flags each subcommand requires; the fuzz always passes them
_REQUIRED = {
    "simulate": ["--circuit", "--eta"],
    "bound": ["--k", "--eta"],
    "sweep": ["--k", "--eta", "--n"],
}


@st.composite
def _argv(draw) -> list[str]:
    """A subcommand, its required flags and some others in any order with
    drawn values, and up to two junk tokens anywhere."""
    command = draw(st.sampled_from(sorted(_FLAGS)))
    flags = _FLAGS[command]
    required = _REQUIRED.get(command, [])
    optional = [flag for flag in sorted(flags) if flag not in required]
    others = draw(st.lists(st.sampled_from(optional), unique=True))
    argv = [command]
    for flag in draw(st.permutations(required + others)):
        argv.append(flag)
        if flags[flag] is not None:
            argv.append(draw(flags[flag]))
    if command == "check":
        # the noise-action suite enumerates every subset of every subset:
        # past 4 qubits only a count above the cap, which exits before a trial
        suite = argv[argv.index("--suite") + 1] if "--suite" in argv else "all"
        light = suite in ("contractivity", "kraus")
        qubits = st.integers(-1, 11) if light else st.integers(-1, 4) | st.just(11)
        argv += ["--qubits", str(draw(qubits)), "--trials", draw(_ints(-1, 3))]
    for token in draw(st.lists(_JUNK, max_size=2)):
        argv.insert(draw(st.integers(0, len(argv))), token)
    return argv


class TestArgvFuzz:
    @given(argv=_argv())
    @settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_argv_maps_to_an_exit_code(self, argv, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            assert exc.code == 2, argv
        else:
            assert code in (0, 1, 2, 3, 4), argv
