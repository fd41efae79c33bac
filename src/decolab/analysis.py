"""Quantitative collapse analysis for noisy layered circuits.

Two ingredients meet here.  On the empirical side, ``d(i, n)`` is the
largest trace distance between any matching reduced states of at most ``n``
qubits at level ``i`` of two runs.  It equals full enumeration of every
qubit subset within 1e-12: a subset is skipped only where the
data-processing inequality proves it no larger than a subset that was
evaluated, or, for the maximum over pairs (:func:`max_profile`), where
``sqrt(d) / 2 * ||rho_a - rho_b||_F`` proves a pair no larger than the
record.  Where every state of a level has a certified pure factor
``rho ~ f f^dagger`` (``sqrt(dim) / 2 * ||rho - f f^dagger||_F <= 1e-13``,
so each subset distance moves by at most ``2e-13``), a subset's distance
comes from a small ``R J R^dagger`` eigenproblem instead of the dense one;
pure levels, such as the first two of a unitary circuit, take that path.
:func:`distance_report` enumerates its levels side by side on ``usable
CPUs // BLAS threads`` threads (at least one), with the same result as one
level after another.  On the analytic side, the scalar recursion

    f_0 = 0,    f_{i+1} = (eta + (1 - eta) * f_i) ** k

yields the guarantee ``d <= 1 - f_j ** n`` once ``j`` noise rounds have
mixed the register, with ``theta = k * (1 - eta)`` governing the decay
``1 - f_j <= theta ** j`` whenever ``eta`` exceeds the threshold
``1 - 1/k``.  A level-``i`` state has seen ``max(i - 1, 0)`` noise rounds
(the first layer acts before any noise), and a single-qubit identity wire
saturates the aligned bound exactly, so the alignment is tight.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import linalg
from .channels import GATES, channel_validate, depolarize_all
from .circuit import Circuit, CircuitLayer, PlacedGate, run_noisy
from .config import ENUMERATION_CAP, ResourceLimitError
from .linalg import (
    DensityMatrix,
    batched_partial_trace,
    check_subset,
    partial_trace,
    permute_matrix,
    random_pure_state,
    trace_distance,
)

__all__ = [
    "BoundSeries",
    "DistanceReport",
    "MaxProfile",
    "ReportRow",
    "ThresholdInfo",
    "analytic_bound",
    "check_noise_action",
    "distance_report",
    "f_series",
    "make_probes",
    "max_profile",
    "min_worthless_depth",
    "noise_rounds_at_level",
    "pairwise_profiles",
    "practically_worthless",
    "require_enumerable",
    "theta_and_threshold",
    "worthless",
]


# ---------------------------------------------------------------------------
# the scalar recursion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundSeries:
    """The recursion state: fan-in ``k``, rate ``eta``, coefficients ``f_0..f_t``."""

    k: int
    eta: float
    f: tuple[float, ...]

    @property
    def depth(self) -> int:
        return len(self.f) - 1


def f_series(k: int, eta: float, t: int) -> BoundSeries:
    """Iterate ``f_0 = 0, f_{i+1} = (eta + (1-eta) f_i)^k`` for ``t`` steps."""
    if k < 1:
        raise ValueError(f"fan-in k must be >= 1, got {k}")
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    if t < 0:
        raise ValueError(f"depth must be >= 0, got {t}")
    f = [0.0]
    for _ in range(t):
        f.append((eta + (1.0 - eta) * f[-1]) ** k)
    return BoundSeries(k=k, eta=eta, f=tuple(f))


def analytic_bound(series: BoundSeries, i: int, n: int) -> float:
    """The guarantee ``1 - f_i ** n`` (with ``0 ** 0 = 1``) after ``i`` noise rounds."""
    if not 0 <= i <= series.depth:
        raise ValueError(f"round index {i} outside series of depth {series.depth}")
    if n < 0:
        raise ValueError(f"subset size must be >= 0, got {n}")
    return 1.0 - series.f[i] ** n


class ThresholdInfo(NamedTuple):
    theta: float
    threshold: float
    above: bool


def theta_and_threshold(k: int, eta: float) -> ThresholdInfo:
    """Contraction factor ``k (1 - eta)`` and the collapse threshold ``1 - 1/k``."""
    if k < 1:
        raise ValueError(f"fan-in k must be >= 1, got {k}")
    if not 0.0 <= eta <= 1.0:  # NaN fails this too
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    threshold = 1.0 - 1.0 / k
    return ThresholdInfo(theta=k * (1.0 - eta), threshold=threshold, above=eta > threshold)


#: distinct non-failure outcomes of the depth search
BELOW_THRESHOLD = "below-threshold"
NEVER_WITHIN_CAP = "never-within-cap"


def min_worthless_depth(
    k: int, eta: float, n: int, eps: float, max_depth: int = 10**6
) -> int | str:
    """Depth at which the recursion certifies collapse of every ``n``-qubit readout.

    Returns the smallest ``t`` with ``1 - f_t <= eps / n**2``, at which point
    the ``n``-qubit guarantee ``1 - f_t**n`` has dropped to roughly ``eps/n``;
    above the threshold this grows like ``2 ln(n) / ln(1/theta)``.  Noise at
    or below the threshold is a legitimate answer, not an error, and comes
    back as the string ``"below-threshold"``; searches exceeding ``max_depth``
    come back as ``"never-within-cap"``.
    """
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    if n < 1:
        raise ValueError(f"readout size must be >= 1, got {n}")
    info = theta_and_threshold(k, eta)
    if not info.above:
        return BELOW_THRESHOLD
    target = eps / (n * n)
    f, t = 0.0, 0
    while 1.0 - f > target:
        f = (eta + (1.0 - eta) * f) ** k
        t += 1
        if t > max_depth:
            return NEVER_WITHIN_CAP
    return t


def noise_rounds_at_level(level: int, depth: int, extra_noise_round: bool = False) -> int:
    """Noise rounds absorbed by the state recorded at ``level``.

    Level 0 is the input and level 1 the first layer's output, which no noise
    has touched yet; with the optional extra rounds the count shifts by the
    prepended round and the final level also absorbs the appended one.
    """
    if not extra_noise_round:
        return max(level - 1, 0)
    rounds = level
    if level == depth and depth > 0:
        rounds += 1
    return rounds


# ---------------------------------------------------------------------------
# subset distances
# ---------------------------------------------------------------------------


def require_enumerable(qubits: int) -> None:
    if qubits > ENUMERATION_CAP:
        raise ResourceLimitError(
            f"subset enumeration over {qubits} qubits exceeds the cap "
            f"{ENUMERATION_CAP}"
        )


def _subsets(qubits: int):
    """All subsets, sizes ascending and lexicographic within a size."""
    for size in range(qubits + 1):
        yield from itertools.combinations(range(qubits), size)


#: bytes of each eigensolve batch's pair differences: the buffer, not the
#: pair count, is what grows with the register (1 MiB a matrix at width 8)
_DIFF_BYTES = 2 << 20

#: certificate of the pure factors: each state's factor is within this
#: (half trace norm) of it, so every subset distance moves by at most 2 * tol
_FACTOR_TOL = 1e-13


def _pure_factor(m: np.ndarray) -> np.ndarray | None:
    """A vector ``f`` with ``sqrt(dim) / 2 * ||m - f f^dagger||_F <=
    _FACTOR_TOL``, which bounds half the trace norm of the residual, or
    ``None``.  ``f`` is ``m``'s column at its largest diagonal entry, scaled:
    exactly the state vector, up to a phase, when ``m`` is pure."""
    diag = m.diagonal().real
    p = int(np.argmax(diag))
    if not diag[p] > 0:  # no positive diagonal to divide by
        return None
    f = m[:, p] / math.sqrt(diag[p])
    residual = float(np.linalg.norm(m - np.outer(f, f.conj())))
    if not 0.5 * math.sqrt(m.shape[0]) * residual <= _FACTOR_TOL:
        return None
    return f


def _factors(states: Sequence[DensityMatrix]) -> np.ndarray | None:
    """Certified pure factors of every state as one ``(states, dim)`` stack;
    ``None`` once a state has none."""
    factors = []
    for s in states:
        f = _pure_factor(s.mat)
        if f is None:
            return None
        factors.append(f)
    return np.stack(factors)


def _chunks(todo: np.ndarray, pair_bytes: int):
    step = max(1, _DIFF_BYTES // pair_bytes)
    return (todo[start : start + step] for start in range(0, todo.size, step))


def _dense_distances(red, iu, ju, todo) -> np.ndarray:
    """Distances of the pairs ``todo`` of the reduced stack ``red``: subtract, eigensolve."""
    out = []
    for pairs in _chunks(todo, red[0].nbytes):
        diff = np.take(red, iu[pairs], axis=0)
        diff -= np.take(red, ju[pairs], axis=0)
        out.append(0.5 * np.abs(np.linalg.eigvalsh(diff)).sum(axis=-1))
    return np.concatenate(out)


def _frobenius_bounds(red, iu, ju) -> np.ndarray:
    """Upper bounds ``sqrt(d) / 2 * ||red_i - red_j||_F`` on the distances of
    the pairs ``(iu, ju)`` (Cauchy-Schwarz on the ``d`` eigenvalues), from
    the real Gram matrix of the stack rather than from the differences.  The
    Gram entries are inner products of length ``2 d**2``, each off by at most
    about ``2 d**2 u`` times the two norms; that much is added back before the
    square root, so cancellation between near-equal states can only raise a
    bound."""
    d = red.shape[-1]
    flat = np.ascontiguousarray(red).reshape(red.shape[0], -1).view(np.float64)
    gram = flat @ flat.T  # Re <red_a, red_b>
    both = gram.diagonal()[iu] + gram.diagonal()[ju]
    squared = both - 2.0 * gram[iu, ju] + (2 * d * d + 4) * np.finfo(float).eps * both
    return 0.5 * math.sqrt(d) * np.sqrt(squared)


def _max_only_distances(red, iu, ju, todo, ub, record) -> tuple[np.ndarray, np.ndarray]:
    """Eigensolve the pair of ``todo`` with the largest bound ``ub`` when it
    exceeds ``record``, then only the pairs whose bound exceeds the record
    that raised.  Returns each pair's distance where solved and its bound
    elsewhere, and the mask of those solved."""
    value = ub.copy()
    solved = np.zeros(todo.size, dtype=bool)
    first = int(np.argmax(ub))
    if ub[first] > record:
        value[first] = _dense_distances(red, iu, ju, todo[first : first + 1])[0]
        solved[first] = True
        rest = np.flatnonzero(~solved & (ub > max(record, value[first])))
        if rest.size:
            value[rest] = _dense_distances(red, iu, ju, todo[rest])
            solved[rest] = True
    return value, solved


def _factored_distances(factors, qubits, keep, iu, ju, todo) -> np.ndarray:
    """The same from the factors: with ``X = [M_a M_b] = QR`` and ``J =
    diag(I, -I)``, ``rho_a - rho_b = X J X^dagger`` on ``keep`` has the
    nonzero eigenvalues of the small Hermitian ``R J R^dagger``.  ``M`` is a
    factor with the kept qubits as rows and the traced ones as columns, so
    that ``M M^dagger`` is the reduced state."""
    n = factors.shape[0]
    order = keep + tuple(q for q in range(qubits) if q not in keep)
    rows = factors.reshape((n,) + (2,) * qubits)
    rows = rows.transpose([0, *(1 + q for q in order)]).reshape(n, 1 << len(keep), -1)
    c = rows.shape[-1]
    out = []
    for pairs in _chunks(todo, 2 * rows[0].nbytes):
        x = np.concatenate((rows[iu[pairs]], rows[ju[pairs]]), axis=-1)
        r = np.linalg.qr(x, mode="r")
        a, b = r[..., :c], r[..., c:]
        h = a @ a.conj().swapaxes(-1, -2) - b @ b.conj().swapaxes(-1, -2)
        out.append(0.5 * np.abs(np.linalg.eigvalsh(h)).sum(axis=-1))
    return np.concatenate(out)


def _top_down(
    states: Sequence[DensityMatrix], per_pair: bool
) -> tuple[np.ndarray, int, int, int]:
    """Largest subset distances, by enumeration pruned with the data-processing
    inequality.

    A partial trace is a channel, so a pair's distance on a subset never
    exceeds its distance on any superset (Nielsen & Chuang, Thm 9.2).  Sizes
    run from the full register down; each (pair, subset) is bounded by the
    minimum over its one-larger parents of their distance, or of their own
    bound where they were skipped.  Within a size, subsets are visited in
    descending order of bound, and a pair is eigensolved only when its bound
    exceeds the best distance already found at that size: that pair's best
    when ``per_pair``, the best over all pairs otherwise.  Every skipped
    subset is thus provably no larger than one that was evaluated.

    Without ``per_pair``, on the dense path, each remaining pair is bounded
    further by ``sqrt(d) / 2 * ||Delta||_F >= ||Delta||_1 / 2``
    (Cauchy-Schwarz on the ``d`` eigenvalues), an O(d**2) Gram-matrix step
    ahead of the O(d**3) eigensolve: the pair with the largest bound is
    solved first, then only the pairs whose bound exceeds the record, and a
    skipped pair keeps its bound as its value.  This also prunes the full
    register, whose data-processing bound is ``+inf``.  The per-pair form
    does without it: there each pair's own record is the one to beat, and
    the bound cut its eigensolves by 17% (66,964 -> 55,684) with no gain in
    time.

    When every state has a certified pure factor (:func:`_factors`), a subset
    of size ``s`` with ``w = 2**(qubits - s) * 2 < 2**s`` is solved as a
    ``w x w`` eigenproblem instead of a ``2**s x 2**s`` one.

    Returns ``(best, eigensolves, factored, norm_pruned)``: ``best[j, s]`` is
    pair ``j``'s largest evaluated distance over subsets of size ``s``
    (column 0 is 0), exact per pair when ``per_pair`` and exact only in its
    maximum over pairs otherwise; ``eigensolves`` counts the (pair, subset)
    distances computed, ``factored`` those among them solved from the
    factors, and ``norm_pruned`` the (pair, subset)s the data-processing
    bound left to solve that the Frobenius bound skipped.
    """
    if not states:
        return np.zeros((0, 1)), 0, 0, 0
    qubits = states[0].qubits
    for s in states:
        if s.qubits != qubits:
            raise ValueError("all states must share one qubit count")
    require_enumerable(qubits)
    iu, ju = np.triu_indices(len(states), 1)
    best = np.zeros((iu.size, qubits + 1))
    if iu.size == 0:
        return best, 0, 0, 0
    stack = np.stack([s.mat for s in states])
    factors = _factors(states)
    # row ``mask`` (qubit ``q`` kept iff bit ``q`` is set) holds each pair's
    # distance once evaluated, its bound once skipped
    value = np.full((1 << qubits, iu.size), np.inf)
    masks = np.arange(1 << qubits)
    sizes = np.array([int(m).bit_count() for m in masks])
    bits = 1 << np.arange(qubits)
    eigensolves = factored = norm_pruned = 0
    for size in range(qubits, 0, -1):
        level = masks[sizes == size]
        # a bit already in the subset maps it to itself, still +inf here
        bound = value[level[:, None] | bits].min(axis=1)
        value[level] = bound
        low_rank = factors is not None and (2 << (qubits - size)) < (1 << size)
        for i in np.argsort(-bound.max(axis=1), kind="stable"):
            record = best[:, size] if per_pair else best[:, size].max()
            todo = np.flatnonzero(bound[i] > record)
            if not todo.size:
                continue
            keep = tuple(q for q in range(qubits) if level[i] >> q & 1)
            solved = np.ones(todo.size, dtype=bool)
            if low_rank:
                dist = _factored_distances(factors, qubits, keep, iu, ju, todo)
                factored += todo.size
            elif per_pair:
                dist = _dense_distances(batched_partial_trace(stack, qubits, keep), iu, ju, todo)
            else:
                red = batched_partial_trace(stack, qubits, keep)
                frobenius = _frobenius_bounds(red, iu[todo], ju[todo])
                # a NaN bound would prune its pair, and every subset below it
                if not np.isfinite(frobenius).all():
                    raise ArithmeticError(f"non-finite trace distance bound on qubits {keep}")
                ub = np.minimum(bound[i, todo], frobenius)
                dist, solved = _max_only_distances(red, iu, ju, todo, ub, record)
                norm_pruned += todo.size - int(solved.sum())
            # NaN compares False and would prune every subset below it
            if not np.isfinite(dist[solved]).all():
                raise ArithmeticError(f"non-finite trace distance on qubits {keep}")
            value[level[i], todo] = dist
            todo = todo[solved]
            best[todo, size] = np.maximum(best[todo, size], dist[solved])
            eigensolves += todo.size
    return best, eigensolves, factored, norm_pruned


def pairwise_profiles(states: Sequence[DensityMatrix]) -> np.ndarray:
    """Distance profiles for every unordered pair of states.

    Returns an array ``p`` of shape ``(n_pairs, qubits + 1)`` where
    ``p[j, n]`` is the maximum trace distance between matching reduced
    states over all qubit subsets of size at most ``n``, for the pair ``j``
    in ``itertools.combinations`` order.  It equals full enumeration within
    rounding: subsets are pruned only where the data-processing inequality
    proves them no larger than one evaluated for the same pair.
    """
    best = _top_down(states, per_pair=True)[0]
    return np.maximum.accumulate(best, axis=1)


class MaxProfile(NamedTuple):
    profile: np.ndarray  # profile[n]: the largest distance over pairs and |A| <= n
    eigensolves: int  # (pair, subset) distances computed
    factored: int  # those among them solved from pure factors
    norm_pruned: int  # (pair, subset) distances the Frobenius bound spared


def max_profile(states: Sequence[DensityMatrix]) -> MaxProfile:
    """``pairwise_profiles(states).max(axis=0)`` (zeros without pairs), pruning
    every pair that cannot raise the maximum over all pairs."""
    best, eigensolves, factored, norm_pruned = _top_down(states, per_pair=False)
    profile = np.maximum.accumulate(best.max(axis=0, initial=0.0))
    return MaxProfile(profile, eigensolves, factored, norm_pruned)


# ---------------------------------------------------------------------------
# the noise-action identity
# ---------------------------------------------------------------------------


def check_noise_action(rho: DensityMatrix, b: Sequence[int], eta: float) -> float:
    """Residual of the depolarize-then-restrict identity on subset ``b``.

    Compares the reduced state of the noised register against the binomial
    mixture ``sum_{A subset of b} eta^(|b|-|A|) (1-eta)^|A| (rho|_A (x)
    (I/2)^(|b|-|A|))`` with factors reassembled in ``b``'s index order, and
    returns the largest entrywise deviation.
    """
    b_idx = check_subset(b, rho.qubits)
    require_enumerable(len(b_idx))
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    lhs = partial_trace(depolarize_all(rho, eta), b_idx).mat
    size = len(b_idx)
    rhs = np.zeros_like(lhs)
    for a_positions in _subsets(size):
        weight = eta ** (size - len(a_positions)) * (1.0 - eta) ** len(a_positions)
        if weight == 0.0:
            continue
        a_idx = tuple(b_idx[p] for p in a_positions)
        reduced = partial_trace(rho, a_idx).mat
        pad = size - len(a_positions)
        term = np.kron(reduced, np.eye(2**pad, dtype=np.complex128) / 2**pad)
        blocks = list(a_positions) + [p for p in range(size) if p not in a_positions]
        perm = [blocks.index(j) for j in range(size)]
        rhs += weight * permute_matrix(term, perm)
    return float(np.max(np.abs(lhs - rhs)))


# ---------------------------------------------------------------------------
# worthlessness detectors
# ---------------------------------------------------------------------------

DEFAULT_EPS = 0.01
_BASIS_PROBE_LIMIT = 6
_RANDOM_PROBE_COUNT = 32


def make_probes(spec: str, qubits: int, seed: int = 0) -> list[DensityMatrix]:
    """Build an input-state set from a probe spec.

    ``basis`` enumerates every computational basis state (register of at most
    6 qubits), ``pair:i,j`` picks two basis states, ``random:<count>`` draws
    seeded Haar-ish pure states.
    """
    if spec == "basis":
        if qubits > _BASIS_PROBE_LIMIT:
            raise ValueError(
                f"basis probes need at most {_BASIS_PROBE_LIMIT} qubits, got {qubits}"
            )
        return [DensityMatrix.basis_state(qubits, b) for b in range(2**qubits)]
    if spec.startswith("pair:"):
        parts = spec[len("pair:") :].split(",")
        if len(parts) != 2:
            raise ValueError(f"expected 'pair:i,j', got {spec!r}")
        try:
            i, j = (int(p) for p in parts)
        except ValueError:
            raise ValueError(f"expected 'pair:i,j', got {spec!r}") from None
        return [
            DensityMatrix.basis_state(qubits, i),
            DensityMatrix.basis_state(qubits, j),
        ]
    if spec.startswith("random:"):
        try:
            count = int(spec[len("random:") :])
        except ValueError:
            raise ValueError(f"expected 'random:<count>', got {spec!r}") from None
        if count < 1:
            raise ValueError("random probe count must be >= 1")
        rng = np.random.default_rng(seed)
        return [random_pure_state(qubits, rng) for _ in range(count)]
    raise ValueError(f"unknown probe spec {spec!r}")


def default_probes(qubits: int, seed: int = 0) -> list[DensityMatrix]:
    if qubits <= _BASIS_PROBE_LIMIT:
        return make_probes("basis", qubits, seed)
    return make_probes(f"random:{_RANDOM_PROBE_COUNT}", qubits, seed)


#: largest ``max|K^dagger K - I|`` of a final-layer gate that the verdicts
#: leave out as unitary.  Such a gate moves a verdict distance by at most
#: about ``8e-14`` relative; Haar QR unitaries measure at most 1.5e-15 and
#: the library gates 2.3e-16.  A gate within ``UNITARY_TOL`` but not within
#: this is applied.
_VERDICT_UNITARY_TOL = 1e-14


def _unitary_free(layer: CircuitLayer) -> CircuitLayer:
    """``layer`` with each unitary gate replaced by identity wires from its
    ``inputs[i]`` to its ``outputs[i]``."""
    gates: list[PlacedGate] = []
    for g in layer.gates:
        kraus = g.channel.kraus
        square = g.channel.in_qubits == g.channel.out_qubits
        if len(kraus) == 1 and square and channel_validate(g.channel) <= _VERDICT_UNITARY_TOL:
            gates += (PlacedGate(GATES["I"], (i,), (o,)) for i, o in zip(g.inputs, g.outputs))
        else:
            gates.append(g)
    return CircuitLayer(layer.in_width, layer.out_width, tuple(gates))


def _final_states(
    circuit: Circuit, eta: float, probes: Sequence[DensityMatrix] | None, seed: int
) -> tuple[DensityMatrix, ...]:
    """Each probe's final state up to one unitary on the output register,
    keeping no other level of its run; the probes default to
    :func:`default_probes` of the input width.

    The probes run through every layer but the last as they are, and through
    the last with its unitary gates left out (:func:`_unitary_free`): no
    noise follows that layer, so its unitaries make one tensor-product
    unitary ``V`` on the outputs, and ``V`` changes neither a trace distance
    nor the distance to ``V (I/d) V^dagger = I/d``.  The circuit keeps that
    derived circuit, whose last layer compiles once, and the last call's
    ``(eta, probes, finals)``; a call with an equal ``eta`` and as many
    probes, each the same or with an equal matrix, reuses those write-locked
    states of a deterministic run: bitwise a new run's."""
    probes = tuple(default_probes(circuit.in_width, seed) if probes is None else probes)
    cache = vars(circuit)  # frozen: cache in __dict__
    memo = cache.get("_verdict_finals")
    if memo and memo[0] == eta and len(memo[1]) == len(probes) and all(
        a is b or np.array_equal(a.mat, b.mat) for a, b in zip(memo[1], probes)
    ):
        return memo[2]
    if "_verdict_circuit" not in cache:  # the last layer, if any, unitary-free
        layers = circuit.layers[:-1] + tuple(_unitary_free(last) for last in circuit.layers[-1:])
        cache["_verdict_circuit"] = Circuit(circuit.k, circuit.in_width, layers)
    finals = tuple(run_noisy(cache["_verdict_circuit"], eta, p).levels[-1] for p in probes)
    cache["_verdict_finals"] = (eta, probes, finals)
    return finals


def _largest(distances: Iterable[float]) -> float:
    """The largest distance (0 for none); ``max`` alone would keep its record
    over a NaN, since NaN compares False."""
    worst = 0.0
    for d in distances:
        if not math.isfinite(d):
            raise ArithmeticError(f"non-finite trace distance {d!r}")
        worst = max(worst, d)
    return worst


def practically_worthless(
    circuit: Circuit,
    eta: float,
    eps: float = DEFAULT_EPS,
    probes: Sequence[DensityMatrix] | None = None,
    seed: int = 0,
) -> tuple[bool, float]:
    """Probe-set check that all inputs have become indistinguishable.

    Runs the noisy circuit on every probe and returns whether the largest
    pairwise output distance stays within ``eps``, along with that maximum.
    A distance above ``eps`` soundly witnesses that the circuit still
    computes something; a distance within ``eps`` certifies collapse only on
    the probe set (no maximization over all input states is attempted).
    The final layer's unitary gates are not applied: no noise follows them,
    and a unitary on the outputs keeps every trace distance, so the result
    is the full run's (see :func:`_final_states`).  The circuit keeps the
    final states of its last verdict's probe set, so :func:`worthless` on
    the same ``eta`` and probes reuses them bitwise; they hold one probe set
    and its finals until the circuit is freed.
    """
    finals = _final_states(circuit, eta, probes, seed)
    worst = _largest(trace_distance(a, b) for a, b in itertools.combinations(finals, 2))
    return worst <= eps, worst


def worthless(
    circuit: Circuit,
    eta: float,
    eps: float = DEFAULT_EPS,
    probes: Sequence[DensityMatrix] | None = None,
    seed: int = 0,
) -> tuple[bool, float]:
    """Probe-set check that every output sits at the maximally mixed state.

    Same probe semantics as :func:`practically_worthless`, and the same
    final states, reused bitwise when that verdict just ran on this circuit
    with an equal ``eta`` and probes; by the triangle inequality this
    implies the pairwise notion at twice the tolerance.  The final layer's
    unitary gates are left out here too: a unitary ``V`` on the outputs
    keeps the distance to ``V (I/d) V^dagger = I/d``.
    """
    finals = _final_states(circuit, eta, probes, seed)
    worst = 0.0
    if finals:  # one maximally mixed state serves every output: they share a width
        mixed = DensityMatrix.maximally_mixed(finals[0].qubits)
        worst = _largest(trace_distance(state, mixed) for state in finals)
    return worst <= eps, worst


# ---------------------------------------------------------------------------
# per-level report
# ---------------------------------------------------------------------------


def _report_workers() -> int:
    """Threads for a report's levels: the usable CPUs over the BLAS threads
    each eigensolve may start (``linalg._blas_threads``), at least 1."""
    return max(1, linalg._usable_cpus() // linalg._blas_threads)


class ReportRow(NamedTuple):
    level: int
    i_width: int
    n: int
    empirical_d: float
    bound: float
    slack: float


@dataclass(frozen=True)
class DistanceReport:
    """Per-level, per-subset-size distances against the analytic guarantee.

    ``empirical_d`` in each row is the maximum over all probe pairs; the
    bound column uses the noise rounds actually absorbed by that level.
    ``eigensolves_run`` counts the (pair, subset) distances computed, out of
    the ``eigensolves_full`` that full enumeration computes: pairs times
    ``2**width - 1`` non-empty subsets, summed over levels,
    ``eigensolves_factored`` those among the run solved from pure factors,
    and ``eigensolves_norm_pruned`` those the data-processing inequality left
    to run that the Frobenius bound skipped.
    ``workers`` is the number of threads the levels' enumerations ran on.
    """

    k: int
    eta: float
    eps: float
    rows: tuple[ReportRow, ...]
    final_max_distance: float
    practically_worthless: bool
    eigensolves_run: int
    eigensolves_full: int
    eigensolves_factored: int
    eigensolves_norm_pruned: int
    workers: int

    def min_slack(self) -> float:
        return min((r.slack for r in self.rows), default=0.0)


def distance_report(
    circuit: Circuit,
    eta: float,
    probes: Sequence[DensityMatrix],
    eps: float = DEFAULT_EPS,
    extra_noise_round: bool = False,
) -> DistanceReport:
    """Run all probes and tabulate empirical vs analytic per (level, size)."""
    if len(probes) < 2:
        raise ValueError("a distance report needs at least two probe states")
    trajectories = [
        run_noisy(circuit, eta, p, extra_noise_round=extra_noise_round) for p in probes
    ]
    depth = circuit.depth
    series = f_series(circuit.k, eta, noise_rounds_at_level(depth, depth, extra_noise_round))
    levels = [[t.levels[level] for t in trajectories] for level in range(depth + 1)]
    # build every matrix here, so that the pool's threads never convert a
    # state and the matrices share this thread's malloc arena
    for state in itertools.chain.from_iterable(levels):
        state.mat
    workers = _report_workers()
    # levels are independent once the trajectories exist, and LAPACK drops
    # the GIL; results come back in level order
    pool = ThreadPoolExecutor(workers)
    try:
        profiles = list(pool.map(max_profile, levels))
    finally:
        pool.shutdown(cancel_futures=True)
    rows: list[ReportRow] = []
    final_max = 0.0
    run = full = factored = norm_pruned = 0
    for level, (profile, eigensolves, level_factored, level_norm_pruned) in enumerate(profiles):
        width = len(profile) - 1
        run += eigensolves
        factored += level_factored
        norm_pruned += level_norm_pruned
        full += math.comb(len(probes), 2) * (2**width - 1)
        rounds = noise_rounds_at_level(level, depth, extra_noise_round)
        for n in range(width + 1):
            emp = float(profile[n])
            bound = analytic_bound(series, rounds, n)
            rows.append(
                ReportRow(
                    level=level,
                    i_width=width,
                    n=n,
                    empirical_d=emp,
                    bound=bound,
                    slack=bound - emp,
                )
            )
        if level == depth:
            final_max = float(profile[width])
    return DistanceReport(
        k=circuit.k,
        eta=eta,
        eps=eps,
        rows=tuple(rows),
        final_max_distance=final_max,
        practically_worthless=final_max <= eps,
        eigensolves_run=run,
        eigensolves_full=full,
        eigensolves_factored=factored,
        eigensolves_norm_pruned=norm_pruned,
        workers=workers,
    )
