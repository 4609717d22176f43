"""Output checks of the benchmark's CLI stages.

Outputs are read back with the benchmark's own parsers (raw volume payloads
and manifest lines through ``json``), never with the library's readers, so a
writer/reader pair that is wrong in both directions still fails. Every check
returns a list of messages; an empty list is a pass.

Two kinds of check:

* ``observe`` reduces a stage's output to plain values (manifest records,
  per-volume summaries, printed aggregates). At a workload's default seed
  these are compared with the values pinned in ``pinned/<workload>.json``.
* invariant checks hold at every seed: grid coverage and order of the LR
  refs, HR refs on the grid, weights in [0, 1], sampled records re-scored
  through the public ``to_weight(similarity(...))``, and independent numpy
  recomputation of the metrics and loss aggregates.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import numpy as np

# Tolerances, none looser than the repo's own tests of the stage
WEIGHT_TOL = 1e-15  # manifest weights: the golden tolerance
VALUE_TOL = 1e-12  # volume summaries and loss components, as the resampling and loss tests
QUALITY_TOL = 1e-15  # SSIM and RMSE, as the quality tests
PSNR_TOL = 1e-9  # recomputed PSNR, as the quality tests; pinned PSNR uses VALUE_TOL
METRICS_TOL = [VALUE_TOL, QUALITY_TOL, QUALITY_TOL]  # the psnr, ssim, rmse columns
RESCORED = 32  # sampled records re-scored per manifest, besides the first and last


# -- readers ------------------------------------------------------------------


def read_volumes(dir_path) -> dict:
    """{patient_id: (S, H, W) float32 array} from raw ``*.vol`` files and sidecars."""
    vols = {}
    for path in sorted(Path(dir_path).glob("*.vol")):
        header = json.loads(path.with_name(path.name + ".json").read_text())
        shape = (int(header["slices"]), int(header["height"]), int(header["width"]))
        vols[header["patient_id"]] = np.fromfile(path, dtype="<f4").reshape(shape)
    return vols


def read_manifest_records(path) -> list:
    """Records as [lr_pid, slice, row, col, size, hr_pid, slice, row, col, size, weight].

    Any line without an "lr" key is a header and is skipped, whatever its format.
    """
    records = []
    for line in Path(path).read_text().splitlines():
        obj = json.loads(line)
        if "lr" not in obj:
            continue
        lr, hr = obj["lr"], obj["hr"]
        records.append(
            [lr["patient"], lr["slice"], lr["row"], lr["col"], lr["size"],
             hr["patient"], hr["slice"], hr["row"], hr["col"], hr["size"], float(obj["weight"])]
        )
    return records


def volume_summary(arr: np.ndarray) -> list:
    """[slices, height, width, mean, std, min, max, ramp-weighted mean] in float64."""
    x = arr.astype(np.float64).ravel()
    ramp = np.linspace(0.0, 1.0, x.size)
    return [*map(int, arr.shape), float(x.mean()), float(x.std()), float(x.min()), float(x.max()),
            float((x * ramp).mean())]


def parse_csv_lines(text: str, first: str) -> list:
    """Rows of a CSV block printed by the CLI whose first column equals ``first``."""
    return [line.split(",") for line in text.splitlines() if line.split(",")[0] == first]


# -- pinned comparison ------------------------------------------------------------


def compare(expected, got, tol, where: str = "") -> list:
    """Structural comparison; floats within ``tol``, everything else exact.

    ``tol`` is a float, or for a list a list of per-entry tolerances."""
    if isinstance(expected, dict):
        if not isinstance(got, dict) or set(expected) != set(got):
            return [f"{where}: keys differ"]
        return [m for k in expected for m in compare(expected[k], got[k], tol, f"{where}.{k}")]
    if isinstance(expected, list):
        if not isinstance(got, list) or len(expected) != len(got):
            return [f"{where}: length {len(got) if isinstance(got, list) else '?'} != {len(expected)}"]
        out = []
        tols = tol if isinstance(tol, list) else [tol] * len(expected)
        for i, (e, g, t) in enumerate(zip(expected, got, tols)):
            out.extend(compare(e, g, t, f"{where}[{i}]"))
            if len(out) >= 5:
                return out + [f"{where}: further differences not listed"]
        return out
    if isinstance(expected, float) or isinstance(got, float):
        if not (isinstance(got, (int, float)) and abs(float(expected) - float(got)) <= tol):
            return [f"{where}: {got!r} != pinned {expected!r} (tol {tol:g})"]
        return []
    return [] if expected == got else [f"{where}: {got!r} != pinned {expected!r}"]


def pinned_tolerance(stage: str):
    if stage.startswith("match"):
        return WEIGHT_TOL
    return METRICS_TOL if stage == "metrics" else VALUE_TOL


# -- invariant checks ---------------------------------------------------------------


def grid(h: int, w: int, size: int, stride: int) -> list:
    rows = sorted(set(range(0, h - size + 1, stride)) | {h - size})
    cols = sorted(set(range(0, w - size + 1, stride)) | {w - size})
    return [(r, c) for r in rows for c in cols]


def check_manifest(records, lr_vols, hr_vols, match, seed: int) -> list:
    """Invariants of a pre-threshold manifest; ``match`` is the stage's MatchSpec."""
    from patchpair import HistogramSpec, SimilarityKind, similarity, to_weight

    size, stride = match.patch_size, match.stride
    msgs = []
    _, h, w = next(iter(lr_vols.values())).shape
    cells = grid(h, w, size, stride)
    expected_lr = [
        [pid, s, r, c, size] for pid in sorted(lr_vols) for s in range(lr_vols[pid].shape[0]) for r, c in cells
    ]
    got_lr = [rec[:5] for rec in records]
    if got_lr != expected_lr:
        msgs.append(f"LR refs are not every grid patch once in sorted order ({len(got_lr)} vs {len(expected_lr)})")
    cell_set = set(cells)
    for i, rec in enumerate(records):
        pid, s, r, c, sz, weight = rec[5], rec[6], rec[7], rec[8], rec[9], rec[10]
        if pid not in hr_vols or not 0 <= s < hr_vols[pid].shape[0] or (r, c) not in cell_set or sz != size:
            msgs.append(f"record {i}: HR ref {rec[5:10]} is not on the grid")
        if not 0.0 <= weight <= 1.0:
            msgs.append(f"record {i}: weight {weight!r} outside [0, 1]")
    if msgs or not records:
        return msgs or ["manifest has no records"]
    kind = SimilarityKind(match.metric)
    hist = HistogramSpec(bins=match.bins)
    picks = sorted({0, len(records) - 1} | set(random.Random(seed).sample(range(len(records)), min(RESCORED, len(records)))))
    for i in picks:
        rec = records[i]
        x = lr_vols[rec[0]][rec[1], rec[2] : rec[2] + size, rec[3] : rec[3] + size]
        y = hr_vols[rec[5]][rec[6], rec[7] : rec[7] + size, rec[8] : rec[8] + size]
        try:
            want = to_weight(kind, similarity(kind, x, y, hist=hist))
        except ValueError:  # zero-variance PCC scores -1 in the matcher
            want = to_weight(kind, -1.0)
        if abs(want - rec[10]) > WEIGHT_TOL:
            msgs.append(f"record {i}: weight {rec[10]!r} but re-scored {want!r}")
    return msgs


def check_stats(stdout: str, csv_path, records) -> list:
    w = np.array([rec[10] for rec in records], dtype=np.float64)
    fields = dict(tok.split("=", 1) for tok in stdout.split())
    msgs = []
    if abs(float(fields["mean"]) - float(w.mean())) > WEIGHT_TOL:
        msgs.append(f"stats mean {fields['mean']} != manifest mean {float(w.mean())!r}")
    frac = float(((w >= 0.45) & (w <= 0.55)).mean())
    if float(fields["fraction_0.45_0.55"]) != frac:
        msgs.append(f"stats fraction {fields['fraction_0.45_0.55']} != {frac!r}")
    rows = Path(csv_path).read_text().splitlines()[1:]
    counts = [int(row.split(",")[2]) for row in rows]
    want, _ = np.histogram(w, bins=len(counts), range=(0.0, 1.0))
    if counts != want.tolist():
        msgs.append(f"stats histogram {counts} != {want.tolist()}")
    return msgs


def check_volumes(vols, *, count: int, shape: tuple, normalized: bool) -> list:
    msgs = []
    if len(vols) != count:
        msgs.append(f"{len(vols)} volumes, expected {count}")
    for pid, arr in vols.items():
        if arr.shape != shape:
            msgs.append(f"volume {pid}: shape {arr.shape} != {shape}")
        elif not np.isfinite(arr).all() or arr.min() < 0.0 or arr.max() > 1.0:
            msgs.append(f"volume {pid}: values outside [0, 1]")
        elif normalized and (arr.min() != 0.0 or arr.max() != 1.0):
            msgs.append(f"volume {pid}: not min-max normalized ({arr.min()}, {arr.max()})")
    return msgs


def _ssim_tiles(x, y, k, c1=1e-4, c2=9e-4):
    h, w = x.shape
    hx, wx = h // k * k, w // k * k
    tx = x[:hx, :wx].reshape(h // k, k, w // k, k)
    ty = y[:hx, :wx].reshape(h // k, k, w // k, k)
    mx, my = tx.mean(axis=(1, 3), keepdims=True), ty.mean(axis=(1, 3), keepdims=True)
    dx, dy = tx - mx, ty - my
    vx, vy = (dx * dx).mean(axis=(1, 3)), (dy * dy).mean(axis=(1, 3))
    cov = (dx * dy).mean(axis=(1, 3))
    mx, my = mx[:, 0, :, 0], my[:, 0, :, 0]
    return float((((2 * mx * my + c1) * (2 * cov + c2)) / ((mx * mx + my * my + c1) * (vx + vy + c2))).mean())


def metrics_values(ref_vols, est_vols, window: int) -> list:
    """[volume, slice, psnr, ssim, rmse] per slice, recomputed with numpy."""
    rows = []
    for pid in sorted(ref_vols):
        for k in range(ref_vols[pid].shape[0]):
            y = ref_vols[pid][k].astype(np.float64)
            x = est_vols[pid][k].astype(np.float64)
            e = math.sqrt(float(((y - x) ** 2).mean()))
            p = math.inf if e == 0.0 else 20.0 * math.log10(float(y.max()) / e)
            rows.append([pid, k, p, _ssim_tiles(y, x, window), e])
    return rows


def check_metrics(stdout: str, ref_vols, est_vols, window: int) -> list:
    printed = [row for row in (line.split(",") for line in stdout.splitlines()[1:]) if row[0] != "aggregate"]
    want = metrics_values(ref_vols, est_vols, window)
    msgs = []
    if len(printed) != len(want):
        return [f"{len(printed)} per-slice rows, expected {len(want)}"]
    for got, exp in zip(printed, want):
        if got[:2] != [exp[0], str(exp[1])]:
            msgs.append(f"row {got[:2]} out of order, expected {exp[:2]}")
            continue
        for j, (name, tol) in enumerate(zip(("psnr", "ssim", "rmse"), (PSNR_TOL, QUALITY_TOL, QUALITY_TOL)), start=2):
            if abs(float(got[j]) - exp[j]) > tol:
                msgs.append(f"{got[0]} slice {got[1]}: {name} {got[j]} != recomputed {exp[j]!r}")
    agg = parse_csv_lines(stdout, "aggregate")
    means = [float(np.mean([float(row[j]) for row in printed])) for j in (2, 3, 4)]
    if len(agg) != 1 or any(abs(float(a) - m) > t for a, m, t in zip(agg[0][2:], means, METRICS_TOL)):
        msgs.append(f"aggregate {agg} is not the mean of the per-slice rows {means}")
    return msgs[:10]


def loss_components(batch_dir, lambdas=(1.0, 1.0, 256.0)) -> dict:
    """Least-squares objective recomputed with numpy from the stored batch.

    Images are read one batch item and one role pair at a time, so the check
    holds about 2 MB at once and ``peak_rss_mb`` stays the program's peak.
    """
    batch_dir = Path(batch_dir)
    vals = {k: np.asarray(v, dtype=np.float64) for k, v in json.loads((batch_dir / "values.json").read_text()).items()}
    layout = {}  # role -> (payload path, height, width)
    for sidecar in batch_dir.glob("*.vol.json"):
        header = json.loads(sidecar.read_text())
        layout[header["patient_id"]] = (sidecar.with_suffix(""), int(header["height"]), int(header["width"]))

    def image(role, i):
        path, h, w = layout[role]
        return np.fromfile(path, dtype="<f4", count=h * w, offset=4 * h * w * i).reshape(h, w).astype(np.float64)

    def l1(a, b):
        return np.array([np.abs(image(a, i) - image(b, i)).mean() for i in range(vals["w"].size)])

    adv = float(((vals["dy_y"] - 1) ** 2).mean() + (vals["dy_gx"] ** 2).mean()
                + ((vals["dx_x"] - 1) ** 2).mean() + (vals["dx_fy"] ** 2).mean())
    cyc = float((l1("fgx", "x") + l1("gfy", "y")).mean())
    idt = float((l1("fx", "x") + l1("gy", "y")).mean())
    pair = float((vals["w"] * (l1("gx", "y") + l1("fy", "x"))).mean())
    total = adv + lambdas[0] * cyc + lambdas[1] * idt + lambdas[2] * pair
    return {"adv": adv, "cyc": cyc, "idt": idt, "pair": pair, "total": total}


def printed_loss(stdout: str) -> dict:
    rows = [line.split(",") for line in stdout.splitlines() if not line.startswith("#")]
    return {k: float(v) for k, v in rows[1:]}


def check_loss(stdout: str, batch_dir) -> list:
    got = printed_loss(stdout)
    want = loss_components(batch_dir)
    if set(got) != set(want):
        return [f"loss components {sorted(got)} != {sorted(want)}"]
    return [f"loss {k} {got[k]!r} != recomputed {want[k]!r}" for k in want if abs(got[k] - want[k]) > VALUE_TOL]
