"""Regenerate pinned/<workload>.json from one run at the workload's default seed.

    python3 perfbench/make_pins.py [workload ...]

The pinned values are the golden outputs the benchmark checks at default
seeds. Regenerate them only when a change is meant to alter the outputs, and
say so in the change. The stages run and are checked exactly as in a timed
iteration (``worker.Loop``), with the invariant checks only.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from worker import Loop  # noqa: E402
from workloads import WORKLOADS, pinned_path  # noqa: E402


def pin(workload) -> None:
    work = HERE.parent / ".perfbench" / f"pin-{workload.name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    loop = Loop({"workload": workload.name, "seed": workload.default_seed, "tiny": False, "corrupt_manifest": False,
                 "check_pins": False, "work": str(work)})
    try:
        workload.setup(work, loop.seed, loop.params)
        stdout = loop.iteration(traced=False)["stdout"]
        if loop.failed:
            raise SystemExit(f"{workload.name}: checks fail, not pinning: {loop.failures}")
        values = workload.observe(work, loop.params, stdout)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    pinned_path(workload).write_text(json.dumps(values, separators=(",", ":")) + "\n")
    print(f"pinned {workload.name} (seed {loop.seed}) -> {pinned_path(workload)}")


if __name__ == "__main__":
    for name in sys.argv[1:] or sorted(WORKLOADS):
        pin(WORKLOADS[name])
