"""Exact work counts, computed from a task's inputs alone.

Every count here is a closed formula in the shape of the inputs (probe count,
register widths, depth).  None of them asks the program what it ran, so an
optimisation that skips work (subset pruning, say) raises ``checks_per_s``
instead of lowering the count it is divided by.
"""

from __future__ import annotations

from math import comb

COMPLEX_BYTES = 16


def pairs(probes: int) -> int:
    return comb(probes, 2)


def profile_checks(probes: int, level_widths: list[int]) -> int:
    """Trace distances behind per-pair profiles: pairs x non-empty subsets x levels."""
    return sum(pairs(probes) * (2**w - 1) for w in level_widths)


def profile_eig_d3(probes: int, level_widths: list[int]) -> int:
    """Sum of ``d**3`` over the eigenproblems of the same profiles (``d = 2**|subset|``)."""
    return sum(
        pairs(probes) * sum(comb(w, s) * 8**s for s in range(1, w + 1))
        for w in level_widths
    )


def verdict_checks(probes: int) -> int:
    """Full-register distances behind both verdicts: every pair, plus each probe
    against the maximally mixed state."""
    return pairs(probes) + probes


def verdict_eig_d3(probes: int, final_width: int) -> int:
    return verdict_checks(probes) * 8**final_width


def trajectory_state_bytes(probes: int, level_widths: list[int], runs: int = 1) -> int:
    """Bytes of the dense complex128 states the recorded trajectories hold."""
    return runs * probes * sum(COMPLEX_BYTES * 4**w for w in level_widths)


def layer_applications(probes: int, depth: int, runs: int = 1) -> int:
    return runs * probes * depth
