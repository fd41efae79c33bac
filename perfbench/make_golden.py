"""Regenerate ``golden.json``: the first cycle of each workload's outputs for
the default seeds, in the digest form :func:`run.golden_mismatch` reads.

    python3 perfbench/make_golden.py

Only rerun this when a change is meant to alter the program's outputs; the
benchmark counts any task that drifts from these values by more than 1e-12
as failed.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import run

DEFAULT_SEEDS = range(8)


def main() -> int:
    run.import_program()
    import workloads

    golden: dict[str, dict[str, list]] = {}
    os.makedirs(run.OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="golden-", dir=run.OUT) as workdir:
        for name, cls in workloads.WORKLOADS.items():
            workload = cls(workdir)
            golden[name] = {}
            for seed in DEFAULT_SEEDS:
                entries = []
                for index in range(workload.cycle):
                    task = workload.task(seed, index)
                    output = task.run()
                    problems = task.check(output)
                    if problems:
                        print(f"{name} seed {seed} task {index}: {problems}", file=sys.stderr)
                        return 1
                    entries.append(task.digest(output))
                golden[name][str(seed)] = entries
                print(f"{name} seed {seed}: {len(entries)} task(s)", flush=True)
    with open(run.GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
