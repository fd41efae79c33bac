"""Command-line front end: ``simulate``, ``bound``, ``sweep`` and ``check``.

Outputs are offline CSV/JSON tables meant for external plotting; identical
invocations (including seeds) produce byte-identical files.  Exit codes are
a stable contract: 0 success, 1 failed self-check, 2 usage or parse error,
3 desk-scale resource cap exceeded, 4 numerical failure (an eigensolver that
does not converge, a non-finite distance, a state whose trace is not finite
or drifted beyond renormalization).
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys

import numpy as np

from . import analysis
from .channels import GATES, channel_validate, random_channel
from .circuit import CircuitError, CircuitLayer, PlacedGate, apply_layer, parse_circuit_file
from .config import KRAUS_TOL, ResourceLimitError
from .linalg import random_density, trace_distance

__all__ = ["main"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_NUMERIC = 4


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    # shortest representation that round-trips the double exactly
    return repr(float(value))


def _write_table(
    path: str, columns: list[str], rows: list[list], fmt: str, preamble: list[str] | None = None
) -> None:
    if fmt == "json":
        payload = [dict(zip(columns, row)) for row in rows]
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        return
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in preamble or []:
            fh.write(f"# {line}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _default_output(args: argparse.Namespace, stem: str) -> str:
    if args.output:
        return args.output
    suffix = "json" if args.fmt == "json" else "csv"
    return f"{stem}.{suffix}"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_simulate(args: argparse.Namespace) -> int:
    if not 0.0 <= args.eta <= 1.0:  # NaN fails this too
        raise ValueError(f"eta must lie in [0, 1], got {args.eta}")
    if not 0.0 < args.eps <= 1.0:
        raise ValueError(f"eps must lie in (0, 1], got {args.eps}")
    circuit = parse_circuit_file(args.circuit)
    if args.width is not None and circuit.width != args.width:
        raise ValueError(
            f"circuit width is {circuit.width}, expected --width {args.width}"
        )
    probes_spec = args.probes
    if probes_spec is None:
        probes = analysis.default_probes(circuit.in_width, args.seed)
        probes_spec = "auto"
    else:
        probes = analysis.make_probes(probes_spec, circuit.in_width, args.seed)
    report = analysis.distance_report(circuit, args.eta, probes, eps=args.eps)
    columns = ["level", "i_width", "n", "empirical_d", "bound", "slack"]
    rows = [list(r) for r in report.rows]
    out = _default_output(args, "report")
    _write_table(out, columns, rows, args.fmt)
    verdict = (
        "collapse certified on the probe set (heuristic)"
        if report.practically_worthless
        else "distinguishable outputs witnessed"
    )
    print(
        f"simulate: final_max_distance={_fmt(report.final_max_distance)} "
        f"practically_worthless={_fmt(report.practically_worthless)} "
        f"eps={_fmt(args.eps)} probes={probes_spec} n_probes={len(probes)} "
        f"min_slack={_fmt(report.min_slack())} output={out} [{verdict}]"
    )
    print(
        f"simulate: eigensolves_run={report.eigensolves_run} "
        f"eigensolves_full={report.eigensolves_full} workers={report.workers} "
        f"norm_pruned={report.eigensolves_norm_pruned} factored={report.eigensolves_factored}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_bound(args: argparse.Namespace) -> int:
    k, eta, n_max = args.k, args.eta, args.n
    if n_max < 0:
        raise ValueError(f"n must be >= 0, got {n_max}")
    series = analysis.f_series(k, eta, args.depth)
    info = analysis.theta_and_threshold(k, eta)
    flag = "above-threshold" if info.above else "at/below-threshold"
    columns = ["i", "f_i", "theta_pow_i", *(f"bound_n{j}" for j in range(1, n_max + 1))]
    rows = []
    for i in range(args.depth + 1):
        row: list = [i, series.f[i], info.theta**i]
        row.extend(analysis.analytic_bound(series, i, j) for j in range(1, n_max + 1))
        rows.append(row)
    out = _default_output(args, "bound")
    preamble = [
        f"k={k} eta={_fmt(eta)} theta={_fmt(info.theta)} "
        f"threshold={_fmt(info.threshold)} {flag}"
    ]
    _write_table(out, columns, rows, args.fmt, preamble=preamble)
    print(
        f"bound: k={k} eta={_fmt(eta)} theta={_fmt(info.theta)} "
        f"threshold={_fmt(info.threshold)} {flag} rows={len(rows)} output={out}"
    )
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    rows = []
    for k, eta, n in itertools.product(args.k, args.eta, args.n):
        depth = analysis.min_worthless_depth(k, eta, n, args.eps)
        rows.append([k, eta, n, args.eps, "n/a" if depth == analysis.BELOW_THRESHOLD else depth])
    if not rows:
        raise ValueError("sweep needs at least one (k, eta, n) point")
    columns = ["k", "eta", "n", "eps", "min_depth"]
    out = _default_output(args, "sweep")
    _write_table(out, columns, rows, args.fmt)
    print(f"sweep: points={len(rows)} output={out}")
    return EXIT_OK


def _check_noise_action(qubits: int, trials: int, seed: int) -> float:
    rng = np.random.default_rng(seed)
    subsets = list(analysis._subsets(qubits))
    worst = 0.0
    for _ in range(trials):
        rho = random_density(qubits, rng)
        for eta in (0.0, 0.3, 0.7, 1.0):
            for b in subsets:
                worst = max(worst, analysis.check_noise_action(rho, b, eta))
    return worst


def _check_contractivity(trials: int, seed: int) -> float:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        qubits = int(rng.integers(1, 3))
        channel = random_channel(qubits, qubits, int(rng.integers(1, 5)), rng)
        wires = tuple(range(qubits))
        layer = CircuitLayer(qubits, qubits, (PlacedGate(channel, wires, wires),))
        rho, sigma = random_density(qubits, rng), random_density(qubits, rng)
        before = trace_distance(rho, sigma)
        after = trace_distance(apply_layer(layer, rho), apply_layer(layer, sigma))
        worst = max(worst, after - before)
    return worst


def cmd_check(args: argparse.Namespace) -> int:
    if args.trials is not None and args.trials < 1:
        raise ValueError(f"trials must be >= 1, got {args.trials}")
    if args.qubits < 0:
        raise ValueError(f"qubits must be >= 0, got {args.qubits}")
    analysis.require_enumerable(args.qubits)
    suites = {
        "noise-action": (
            lambda: _check_noise_action(args.qubits, args.trials or 100, args.seed),
            1e-10,
        ),
        "contractivity": (
            lambda: _check_contractivity(args.trials or 200, args.seed),
            1e-9,
        ),
        "kraus": (lambda: max(channel_validate(g) for g in GATES.values()), KRAUS_TOL),
    }
    selected = list(suites) if args.suite == "all" else [args.suite]
    all_ok = True
    for name in selected:
        runner, tol = suites[name]
        residual = runner()
        ok = residual <= tol
        all_ok = all_ok and ok
        print(
            f"check {name}: max_residual={_fmt(residual)} tol={_fmt(tol)} "
            f"{'PASS' if ok else 'FAIL'}"
        )
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _int_list(text: str) -> list[int]:
    return [int(p) for p in text.split(",") if p]


def _float_list(text: str) -> list[float]:
    return [float(p) for p in text.split(",") if p]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="decolab",
        description="Density-matrix circuit simulation under per-qubit "
        "depolarizing noise, with collapse-bound analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a circuit on probe states, report distances")
    sim.add_argument("--circuit", required=True, help="circuit file path")
    sim.add_argument("--eta", type=float, required=True, help="depolarization rate in [0,1]")
    sim.add_argument("--probes", help="basis | pair:i,j | random:<count> (default: auto)")
    sim.add_argument("--eps", type=float, default=analysis.DEFAULT_EPS)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--width", type=int, help="assert the circuit width before running")
    sim.add_argument("--output", help="report path (default report.csv/.json)")
    sim.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
    sim.set_defaults(handler=cmd_simulate)

    bnd = sub.add_parser("bound", help="tabulate the analytic recursion")
    bnd.add_argument("--k", type=int, required=True)
    bnd.add_argument("--eta", type=float, required=True)
    bnd.add_argument("--depth", type=int, default=10)
    bnd.add_argument("--n", type=int, default=1, help="largest readout size to tabulate")
    bnd.add_argument("--output")
    bnd.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
    bnd.set_defaults(handler=cmd_bound)

    swp = sub.add_parser("sweep", help="grid min_worthless_depth over (k, eta, n)")
    swp.add_argument("--k", type=_int_list, required=True, help="comma-separated fan-ins")
    swp.add_argument("--eta", type=_float_list, required=True, help="comma-separated rates")
    swp.add_argument("--n", type=_int_list, required=True, help="comma-separated readout sizes")
    swp.add_argument("--eps", type=float, default=analysis.DEFAULT_EPS)
    swp.add_argument("--output")
    swp.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
    swp.set_defaults(handler=cmd_sweep)

    chk = sub.add_parser("check", help="run the built-in numerical self-checks")
    chk.add_argument(
        "--suite",
        choices=("all", "noise-action", "contractivity", "kraus"),
        default="all",
    )
    chk.add_argument("--qubits", type=int, default=3)
    chk.add_argument("--trials", type=int)
    chk.add_argument("--seed", type=int, default=0)
    chk.set_defaults(handler=cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ResourceLimitError as exc:
        print(f"decolab: resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    # LinAlgError subclasses ValueError, so it must be caught first
    except (np.linalg.LinAlgError, ArithmeticError) as exc:
        print(f"decolab: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (CircuitError, ValueError, OSError) as exc:
        print(f"decolab: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
