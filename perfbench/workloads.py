"""The benchmark's workloads: seeded inputs, timed CLI stages and their checks.

Each workload writes its inputs in ``setup`` (timed as ``setup_s``), then
runs its stages in order through ``patchpair.cli.main``. Only flags that the
CLI keeps are passed: never ``--threads`` or ``--verbose``, and ``--seed``
only to ``demo``.

Why these three:

* ``suite9_hier_nmi`` is the paper's headline configuration (hierarchical
  NMI on the acceptance suite's data). Its time is per-call NMI overhead on
  1,024-px patches; it bypasses resample, quality, losses and PCC.
* ``exhaustive_pcc`` re-scores every HR window for every LR query (288 x 288
  PCC evaluations). It is the only workload on ``match_exhaustive`` and on the
  zero-variance PCC path, which the phantoms never reach by themselves: one HR
  slice in the whole set is blanked, the smallest input that exercises the
  path. The blank share is a synthetic choice, not a measured mix. It bypasses
  the NMI kernel.
* ``pipeline256`` is the README workflow at 256 px. Resampling, phantoms,
  quality metrics, losses and volume writes do most of its work, and its
  matches use 16,384-px patches, where the cost is per pixel, not per call.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks


@dataclass(frozen=True)
class MatchSpec:
    lr: str
    hr: str
    out: str
    patch_size: int
    stride: int
    metric: str = "nmi"
    bins: int = 64

    def manifest(self, work: Path) -> Path:
        return Path(self.out.replace("{w}", str(work)))


@dataclass(frozen=True)
class Stage:
    name: str  # metric key of the stage, e.g. "match" or "loss_eval"
    argv: tuple  # CLI arguments; "{w}" stands for the work directory, "{seed}" for the seed
    match: MatchSpec | None = None

    def args(self, work: Path, seed: int) -> list:
        return [a.replace("{w}", str(work)).replace("{seed}", str(seed)) for a in self.argv]


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    sizes: dict  # "full" and "tiny" parameter sets
    stages: object = field(repr=False)  # (params) -> [Stage]
    setup: object = field(repr=False)  # (work, seed, params) -> None
    invariants: object = field(repr=False)  # (work, seed, params, stdout) -> {stage: [msg]}
    observe: object = field(repr=False)  # (work, params, stdout) -> {stage: values}


def _match_argv(m: MatchSpec, levels: str, explicit: bool) -> tuple:
    argv = ["match", "--lr", m.lr, "--hr", m.hr, "--out", m.out]
    if explicit:
        argv += ["--levels", levels, "--metric", m.metric, "--patch-size", str(m.patch_size), "--stride", str(m.stride)]
        if m.metric == "nmi":
            argv += ["--bins", str(m.bins)]
    elif levels != "hierarchical":
        argv += ["--levels", levels]
    return tuple(argv)


def _stats_stage(manifest: str) -> Stage:
    return Stage("stats", ("stats", "--manifest", manifest, "--csv", "{w}/hist.csv"))


def _match_invariants(work, seed, stages, stdout, lr_dir, hr_dir) -> dict:
    lr_vols = checks.read_volumes(work / lr_dir)
    hr_vols = checks.read_volumes(work / hr_dir)
    msgs = {}
    stats_records = None
    for st in stages:
        if st.match is not None:
            records = checks.read_manifest_records(st.match.manifest(work))
            msgs[st.name] = checks.check_manifest(records, lr_vols, hr_vols, st.match, seed)
            if stats_records is None:
                stats_records = records
    msgs["stats"] = checks.check_stats(stdout["stats"], work / "hist.csv", stats_records)
    return msgs


def _observe_manifests(work, stages) -> dict:
    return {
        st.name: checks.read_manifest_records(st.match.manifest(work))
        for st in stages
        if st.match is not None
    }


# -- phantom-pair match workloads ---------------------------------------------------


def _pair_setup(work: Path, seed: int, p: dict) -> None:
    from patchpair import Dataset, PhantomSpec, Volume, generate_similar_pair, save_dataset

    spec = PhantomSpec(seed=seed, patients=p["patients"], slices_per_patient=p["slices"], size=p["size"])
    hr, lr = generate_similar_pair(spec, 0.25)
    if p.get("blank_hr_slice"):
        # zero the last slice of the first HR patient: its windows have zero variance
        first = hr.volumes[0]
        data = first.data.copy()
        data[-1] = 0.0
        hr = Dataset("HR", (Volume(first.patient_id, data), *hr.volumes[1:]))
    save_dataset(hr, work / "hr")
    save_dataset(lr, work / "lr")


def _pair_stages(p: dict) -> list:
    m = MatchSpec("{w}/lr", "{w}/hr", "{w}/manifest.jsonl", p["patch"], p["stride"], p["metric"])
    return [Stage("match", _match_argv(m, p["levels"], explicit=True), m), _stats_stage(m.out)]


def _pair_invariants(work, seed, p, stdout) -> dict:
    return _match_invariants(work, seed, _pair_stages(p), stdout, "lr", "hr")


def _pair_observe(work, p, stdout) -> dict:
    return _observe_manifests(work, _pair_stages(p))


SUITE9 = Workload(
    name="suite9_hier_nmi",
    default_seed=909,
    sizes={
        "full": dict(patients=8, slices=16, size=64, patch=32, stride=16, metric="nmi", levels="hierarchical"),
        "tiny": dict(patients=2, slices=3, size=64, patch=32, stride=16, metric="nmi", levels="hierarchical"),
    },
    stages=_pair_stages,
    setup=_pair_setup,
    invariants=_pair_invariants,
    observe=_pair_observe,
)

EXHAUSTIVE = Workload(
    name="exhaustive_pcc",
    default_seed=11,
    sizes={
        "full": dict(patients=4, slices=8, size=64, patch=32, stride=16, metric="pcc", levels="exhaustive",
                     blank_hr_slice=True),
        "tiny": dict(patients=2, slices=2, size=64, patch=32, stride=16, metric="pcc", levels="exhaustive",
                     blank_hr_slice=True),
    },
    stages=_pair_stages,
    setup=_pair_setup,
    invariants=_pair_invariants,
    observe=_pair_observe,
)


# -- the README pipeline ------------------------------------------------------------


def _pipeline_setup(work: Path, seed: int, p: dict) -> None:
    """Write the seeded loss-eval batch; the timed demo stage makes the volumes."""
    from patchpair import LossBatch, write_loss_batch

    rng = np.random.default_rng([seed, 256])
    b, n = p["batch"], p["size"]
    images = {role: rng.random((b, n, n), dtype=np.float32) for role in ("x", "y", "gx", "fy", "fgx", "gfy", "fx", "gy")}
    scalars = {role: rng.uniform(0.05, 0.95, b) for role in ("dy_y", "dy_gx", "dx_x", "dx_fy")}
    write_loss_batch(LossBatch(**images, **scalars, w=rng.random(b)), work / "batch")


def _pipeline_stages(p: dict) -> list:
    hier = MatchSpec("{w}/demo/lr", "{w}/demo/hr", "{w}/manifest.jsonl", p["patch"], p["stride"])
    sp = MatchSpec("{w}/demo/lr", "{w}/demo/hr", "{w}/manifest_sp.jsonl", p["patch"], p["stride"])
    # at full size the default match uses the CLI's defaults (NMI, patch 128 / stride 64)
    explicit = p["patch"] != 128
    return [
        Stage("demo", ("demo", "--out", "{w}/demo", "--patients", str(p["patients"]), "--slices", str(p["slices"]),
                       "--size", str(p["size"]), "--seed", "{seed}")),
        Stage("preprocess", ("preprocess", "--input", "{w}/demo/hr", "--output", "{w}/pre", "--target", str(p["size"]))),
        Stage("degrade", ("degrade", "--input", "{w}/pre", "--output", "{w}/deg")),
        Stage("match", _match_argv(hier, "hierarchical", explicit), hier),
        Stage("match_slice_patch", _match_argv(sp, "slice-patch", explicit), sp),
        _stats_stage(hier.out),
        Stage("metrics", ("metrics", "--reference", "{w}/pre", "--estimate", "{w}/deg", "--ssim-mode", "windowed")),
        Stage("loss_eval", ("loss-eval", "--batch", "{w}/batch")),
    ]


def _pipeline_invariants(work, seed, p, stdout) -> dict:
    n, s, k = p["size"], p["slices"], p["patients"]
    msgs = _match_invariants(work, seed, _pipeline_stages(p), stdout, "demo/lr", "demo/hr")
    pre = checks.read_volumes(work / "pre")
    deg = checks.read_volumes(work / "deg")
    msgs["demo"] = checks.check_volumes(checks.read_volumes(work / "demo/hr"), count=k, shape=(s, n, n), normalized=True)
    msgs["demo"] += checks.check_volumes(checks.read_volumes(work / "demo/lr"), count=k, shape=(s, n, n), normalized=False)
    msgs["preprocess"] = checks.check_volumes(pre, count=k, shape=(s, n, n), normalized=True)
    msgs["degrade"] = checks.check_volumes(deg, count=k, shape=(s, n, n), normalized=False)
    msgs["metrics"] = checks.check_metrics(stdout["metrics"], pre, deg, window=8)
    msgs["loss_eval"] = checks.check_loss(stdout["loss_eval"], work / "batch")
    return msgs


def _pipeline_observe(work, p, stdout) -> dict:
    values = _observe_manifests(work, _pipeline_stages(p))
    for stage, dirs in (("demo", ("demo/hr", "demo/lr")), ("preprocess", ("pre",)), ("degrade", ("deg",))):
        values[stage] = {
            d: {pid: checks.volume_summary(arr) for pid, arr in checks.read_volumes(work / d).items()} for d in dirs
        }
    agg = checks.parse_csv_lines(stdout["metrics"], "aggregate")
    values["metrics"] = [float(v) for v in agg[0][2:]] if agg else []
    values["loss_eval"] = checks.printed_loss(stdout["loss_eval"])
    return values


PIPELINE = Workload(
    name="pipeline256",
    default_seed=7,
    sizes={
        "full": dict(patients=4, slices=8, size=256, patch=128, stride=64, batch=32),
        "tiny": dict(patients=2, slices=2, size=64, patch=32, stride=16, batch=4),
    },
    stages=_pipeline_stages,
    setup=_pipeline_setup,
    invariants=_pipeline_invariants,
    observe=_pipeline_observe,
)

WORKLOADS = {w.name: w for w in (SUITE9, EXHAUSTIVE, PIPELINE)}


def pinned_path(workload: Workload) -> Path:
    return Path(__file__).resolve().parent / "pinned" / f"{workload.name}.json"


def load_pinned(workload: Workload) -> dict:
    return json.loads(pinned_path(workload).read_text())
