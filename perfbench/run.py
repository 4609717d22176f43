"""patchpair benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload suite9_hier_nmi --seed 909 --seconds 30 --trace 0

Run from the root of a source checkout; the program under test is imported
from ``src/`` there and nowhere else. Set-up writes the workload's seeded
inputs (timed several times, median reported as ``setup_s``), then a fresh
worker process runs the closed loop for ``--seconds`` and checks every
output. The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end metrics
for ``--trace 0`` and the per-layer metrics for ``--trace 1``. The line
before it holds the details: per-stage samples, tail percentiles, failures
and the environment. Scratch files go under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Every workload runs single-threaded; BLAS gets one thread on every commit.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

sys.path.insert(0, str(HERE))
import probe  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 11
RUN_LIMIT_S = 170.0  # a run must end within 180 s, whatever the worker does
STAGE_METRICS = ("demo", "preprocess", "degrade", "match", "match_slice_patch", "stats", "metrics", "loss_eval")


def _import_program():
    """Import patchpair from the checkout's src/, or fail the run."""
    if not (SRC / "patchpair" / "__init__.py").is_file():
        sys.exit(f"error: no patchpair sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import patchpair

    if Path(patchpair.__file__).resolve().parent != (SRC / "patchpair").resolve():
        sys.exit(f"error: patchpair was imported from {patchpair.__file__}, not from {SRC}")


def _environment(affinity: int, cpu: int) -> dict:
    import numpy as np

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError, TypeError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "affinity": affinity,
        "pinned_cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(BLAS_THREADS),
        **_source_ids(),
    }


def _source_ids() -> dict:
    """Git SHA when the checkout is a git work tree, and a digest of src/ always."""
    sha = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            sha = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            sha = ref
    h = hashlib.sha256()
    for path in sorted((SRC / "patchpair").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return {"git_sha": sha, "src_sha256": h.hexdigest()}


def _tail(samples: list) -> dict:
    """Median, plus the highest percentile with at least ten samples beyond it."""
    xs = sorted(samples)
    n = len(xs)
    out = {"median": statistics.median(xs), "n": n, "tail_percentile": None, "tail_value": None, "samples": samples}
    if n >= 11:
        out["tail_percentile"] = round(100.0 * (n - 10) / n, 2)
        out["tail_value"] = xs[n - 11]
    return out


def _setup(workload, work: Path, seed: int, params: dict) -> tuple:
    """Raw and normalized seconds of SETUP_REPEATS set-ups, each bracketed by
    probe samples; the inputs of the last one stay in ``work``."""
    raw, norm = [], []
    probe.probe_seconds()  # warm-up
    for _ in range(SETUP_REPEATS):
        if work.exists():
            shutil.rmtree(work)
        work.mkdir(parents=True)
        samples = [(time.perf_counter(), probe.probe_seconds()) for _ in range(3)]
        start = time.perf_counter()
        workload.setup(work, seed, params)
        end = time.perf_counter()
        samples += [(time.perf_counter(), probe.probe_seconds()) for _ in range(3)]
        raw.append(end - start)
        norm.append(probe.normalized(end - start, start, end, samples))
    return raw, norm


def _run_worker(cfg: dict, deadline: float) -> list:
    """Run the worker to completion while sampling the probe; return the samples."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]), PYTHONHASHSEED="0")
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), json.dumps(cfg)], env=env, stdin=subprocess.DEVNULL)
    try:
        samples = probe.sample_until_exit(proc, deadline)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        sys.exit(f"error: benchmark worker exited with code {proc.returncode}")
    return samples


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=None, help="input seed (default: the workload's pinned seed)")
    ap.add_argument("--seconds", type=float, default=10.0, help="length of the timed loop")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: traced run, per-layer metrics")
    ap.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    ap.add_argument("--corrupt-manifest", action="store_true", help="corrupt the first manifest, for the smoke test")
    args = ap.parse_args(argv)
    started = time.perf_counter()

    _import_program()
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    params = workload.sizes["tiny" if args.tiny else "full"]
    tag = f"{workload.name}-seed{seed}-trace{args.trace}"
    scratch = ROOT / ".perfbench"
    work = scratch / f"work-{tag}-{os.getpid()}"
    result_file = work.with_suffix(".result.json")
    # the probe must measure the CPU the worker runs on
    affinity = os.sched_getaffinity(0)
    cpu = max(affinity)
    os.sched_setaffinity(0, {cpu})
    try:
        setup_raw, setup_norm = _setup(workload, work, seed, params)
        cfg = {
            "workload": workload.name, "seed": seed, "seconds": args.seconds, "trace": args.trace,
            "tiny": args.tiny, "corrupt_manifest": args.corrupt_manifest, "check_pins": True, "work": str(work),
            "result": str(result_file), "trace_file": str(scratch / "traces" / f"{tag}.csv"),
        }
        samples = _run_worker(cfg, started + RUN_LIMIT_S)
        res = json.loads(result_file.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)
        result_file.unlink(missing_ok=True)

    its = res["iterations"]
    for it in its:
        it["norm"] = {k: probe.normalized(t, *it["spans"][k], samples) for k, t in it["times"].items()}
        it["wall"] = sum(it["norm"].values())
    plain = [it for it in its if not it["traced"]]
    names = list(plain[0]["times"])
    stages = {k: _tail([it["norm"][k] for it in plain]) for k in names}
    end_to_end = {
        "setup_s": (statistics.median(setup_norm), "s"),
        "wall_s": (statistics.median(it["wall"] for it in plain), "s"),
        "match_patches_per_s": (statistics.median(it["records"] / it["norm"]["match"] for it in plain), "1/s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MiB"),
    }
    if args.trace:
        traced_wall = statistics.median(it["wall"] for it in its if it["traced"])
        metrics = {name: tuple(v) for name, v in res["layers"].items()}
        metrics["trace.overhead_ratio"] = (traced_wall / end_to_end["wall_s"][0], "ratio")
        for name in STAGE_METRICS:
            metrics[f"stage.{name}_s"] = (stages[name]["median"] if name in stages else 0.0, "s")
    else:
        metrics = end_to_end
    details = {
        "workload": workload.name,
        "seed": seed,
        "default_seed": workload.default_seed,
        "checks": "pinned+invariant" if res["pinned_checks"] else "invariant",
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "closed_loop_clients": 1,
        "stages_s": stages,
        "setup_s": _tail(setup_norm),
        "raw_stages_s": {k: _tail([it["times"][k] for it in plain]) for k in names},
        "raw_setup_s": _tail(setup_raw),
        "probe_s": _tail([s for _, s in samples]),
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()},
        "failed_ratio": res["failed"] / res["attempted"],
        "failures": res["failures"],
        "absent": res.get("absent", []),
        "env": _environment(len(affinity), cpu),
    }
    scratch.joinpath("results").mkdir(parents=True, exist_ok=True)
    scratch.joinpath("results", f"{tag}.json").write_text(json.dumps(details, indent=1) + "\n")
    print(json.dumps(details))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
