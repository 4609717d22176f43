"""Independent brute-force oracles the fast implementations are checked against.

Everything here favors obviousness over speed: explicit nested loops, no
shared code paths with the library internals being verified.
"""

import dataclasses
import json
import math

import numpy as np

from patchpair import AdvKind, LossBatch, LossWeights, total_loss
from patchpair.losses import IMAGE_ROLES, LossBreakdown, LossGradients
from patchpair.matching import _REF_KEYS
from patchpair.similarity import SimilarityKind, ZeroVarianceError, pcc, similarity, to_weight


def direct_conv2d_reflect(img, taps):
    """Full 2D convolution with the separable kernel's outer product, reflect padding."""
    taps = np.asarray(taps, dtype=np.float64)
    r = taps.size // 2
    padded = np.pad(np.asarray(img, dtype=np.float64), r, mode="reflect")
    k2 = np.outer(taps, taps)
    h, w = img.shape
    out = np.empty((h, w))
    for i in range(h):
        for j in range(w):
            out[i, j] = float((padded[i : i + 2 * r + 1, j : j + 2 * r + 1] * k2).sum())
    return out


def mi_double_loop(counts):
    """Plug-in mutual information via an explicit double loop over histogram cells."""
    counts = np.asarray(counts, dtype=np.float64)
    total = counts.sum()
    p = counts / total
    px = p.sum(axis=1)
    py = p.sum(axis=0)
    mi = 0.0
    for i in range(p.shape[0]):
        for j in range(p.shape[1]):
            if p[i, j] > 0:
                mi += p[i, j] * math.log(p[i, j] / (px[i] * py[j]))
    return mi


def grid_positions(length, size, stride):
    """Stride multiples plus the flush-to-border start, recoded from scratch."""
    pos = []
    r = 0
    while r + size <= length:
        pos.append(r)
        r += stride
    if pos[-1] != length - size:
        pos.append(length - size)
    return pos


def _pcc(a, b):
    """PCC from centred's deviations and mean squares, not the library's centring; a flat side scores -1.
    Where a mean square is not finite, the library's pcc rescales the images and scores them."""
    with np.errstate(over="ignore", invalid="ignore"):
        (dx, vx), (dy, vy) = centred(a), centred(b)
    if not (math.isfinite(vx) and math.isfinite(vy)):
        try:
            return pcc(a, b)
        except ZeroVarianceError:
            return -1.0
    if vx == 0.0 or vy == 0.0:
        return -1.0
    r = float((dx * dy).mean()) / (math.sqrt(vx) * math.sqrt(vy))
    return min(max(r, -1.0), 1.0)


def _score(metric, a, b, cfg):
    if metric is SimilarityKind.PCC:
        return _pcc(a, b)
    return float(similarity(metric, a, b, hist=cfg.hist, rbf_params=cfg.rbf))


def argmax(query, candidates, cfg):
    """(key, score) of the candidate image most similar to the query.

    Candidates are (key, image) pairs in lexicographic key order; keeping the
    first strict maximum sends every tie to the smallest key.
    """
    best_key, best = None, -np.inf
    for key, image in candidates:
        s = _score(cfg.metric, query, image, cfg)
        if s > best:
            best_key, best = key, s
    return best_key, best


def triple_loop_exhaustive(lr_set, hr_set, cfg):
    """Exhaustive matcher as four explicit nested loops.

    Returns a list of (lr_patient, lr_slice, lr_row, lr_col,
    (hr_patient, hr_slice, hr_row, hr_col), weight) in LR reference order.
    """
    size, stride = cfg.patch_size, cfg.stride
    h, w = lr_set.volumes[0].height, lr_set.volumes[0].width
    rows = grid_positions(h, size, stride)
    cols = grid_positions(w, size, stride)
    hr_vols = sorted(hr_set.volumes, key=lambda v: v.patient_id)
    out = []
    for lv in sorted(lr_set.volumes, key=lambda v: v.patient_id):
        for si in range(lv.n_slices):
            for r in rows:
                for c in cols:
                    query = lv.data[si][r : r + size, c : c + size]
                    best = None
                    best_key = None
                    for hv in hr_vols:
                        for hsi in range(hv.n_slices):
                            for hr_r in rows:
                                for hr_c in cols:
                                    cand = hv.data[hsi][hr_r : hr_r + size, hr_c : hr_c + size]
                                    s = _score(cfg.metric, query, cand, cfg)
                                    if best is None or s > best:
                                        best = s
                                        best_key = (hv.patient_id, hsi, hr_r, hr_c)
                    out.append((lv.patient_id, si, r, c, best_key, to_weight(cfg.metric, best)))
    return out


def manifest_tuples(manifest):
    """Flatten manifest records into the oracle's tuple form for comparison."""
    return [
        (r.lr.patient_id, r.lr.slice_index, r.lr.row, r.lr.col,
         (r.hr.patient_id, r.hr.slice_index, r.hr.row, r.hr.col), r.weight)
        for r in manifest.records
    ]


def ref_to_json_dict(ref):
    """A manifest ref as first serialized: json.dumps of a dict built per ref."""
    return json.dumps({key: getattr(ref, field) for field, key in _REF_KEYS.items()})


def centred(img: np.ndarray):
    """(d, v): the float64 deviations of img's pixels from their mean, and their mean square.
    A constant image's deviations are zeros, whether or not its float64 mean rounds to its value."""
    f = img.astype(np.float64).ravel()
    d = np.zeros_like(f) if f.max() == f.min() else f - f.mean()
    return d, float((d * d).mean())


def principal_axis_angle(img):
    """Orientation of the brightest axis from vertical, via an eigendecomposition
    of the second-moment matrix (independent of the library's atan2 route)."""
    arr = np.asarray(img, dtype=np.float64)
    h, w = arr.shape
    ii, jj = np.meshgrid(np.arange(h, dtype=float), np.arange(w, dtype=float), indexing="ij")
    m = arr.sum()
    ci = (arr * ii).sum() / m
    cj = (arr * jj).sum() / m
    di, dj = ii - ci, jj - cj
    cov = np.array(
        [
            [(arr * di * di).sum(), (arr * di * dj).sum()],
            [(arr * di * dj).sum(), (arr * dj * dj).sum()],
        ]
    ) / m
    vals, vecs = np.linalg.eigh(cov)
    v = vecs[:, np.argmax(vals)]  # (row, col) direction of the major axis
    ang = math.atan2(v[1], v[0])
    if ang > math.pi / 2:
        ang -= math.pi
    elif ang <= -math.pi / 2:
        ang += math.pi
    return ang


def keys_weight(x, a=-0.5):
    """Keys (1981) cubic-convolution kernel at offset x, written out piecewise."""
    x = abs(x)
    if x <= 1.0:
        return (a + 2.0) * x**3 - (a + 3.0) * x**2 + 1.0
    if x < 2.0:
        return a * x**3 - 5.0 * a * x**2 + 8.0 * a * x - 4.0 * a
    return 0.0


def bicubic_sample_loop(img, rows, cols):
    """Keys interpolation at each (row, col), one point and one of its 16 taps
    at a time, with border-clamped pixel indices; points more than half a
    pixel outside the grid read as 0."""
    img = np.asarray(img, dtype=np.float64)
    h, w = img.shape
    out = np.zeros(len(rows))
    for n, (r, c) in enumerate(zip(rows, cols)):
        if not (-0.5 <= r <= h - 0.5 and -0.5 <= c <= w - 0.5):
            continue
        r0, c0 = math.floor(r), math.floor(c)
        for i in range(r0 - 1, r0 + 3):
            for j in range(c0 - 1, c0 + 3):
                pixel = img[min(max(i, 0), h - 1), min(max(j, 0), w - 1)]
                out[n] += pixel * keys_weight(r - i) * keys_weight(c - j)
    return out


_L1_RESIDUALS = {
    "gx": "y",
    "fy": "x",
    "fgx": "x",
    "gfy": "y",
    "fx": "x",
    "gy": "y",
}


def fd_check_gradients(batch: LossBatch, weights: LossWeights, kind: AdvKind, grads,
                       eps=1e-4, residual_floor=1e-6):
    """Compare analytic gradients with central finite differences of total_loss.

    Entries whose L1 residual sits within residual_floor of the kink are
    excluded. Returns the worst relative error over all checked entries.
    """

    def fd(role, index):
        arr = getattr(batch, role)
        plus, minus = arr.copy(), arr.copy()
        plus[index] += eps
        minus[index] -= eps
        hi = total_loss(dataclasses.replace(batch, **{role: plus}), weights, kind).total
        lo = total_loss(dataclasses.replace(batch, **{role: minus}), weights, kind).total
        return (hi - lo) / (2.0 * eps)

    worst = 0.0
    for role, other in _L1_RESIDUALS.items():
        arr = getattr(batch, role)
        residual = np.abs(arr - getattr(batch, other))
        analytic = getattr(grads, role)
        for index in np.ndindex(arr.shape):
            if residual[index] < residual_floor:
                continue
            est = fd(role, index)
            denom = max(abs(est), abs(analytic[index]), 1e-12)
            worst = max(worst, abs(est - analytic[index]) / denom)
    for role in ("dy_y", "dy_gx", "dx_x", "dx_fy"):
        arr = getattr(batch, role)
        analytic = getattr(grads, role)
        for i in range(arr.size):
            est = fd(role, (i,))
            denom = max(abs(est), abs(analytic[i]), 1e-12)
            worst = max(worst, abs(est - analytic[i]) / denom)
    return worst


def make_fd_safe_batch(rng, batch_size=4, side=8):
    """LossBatch whose L1 residuals and D outputs stay away from kinks/clamps,
    so central differences with eps=1e-4 are valid everywhere."""

    def img():
        return rng.random((batch_size, side, side))

    def offset_from(ref):
        signs = np.where(rng.random(ref.shape) < 0.5, -1.0, 1.0)
        return ref + signs * rng.uniform(0.01, 0.4, ref.shape)

    def d_out():
        return rng.uniform(0.15, 0.85, batch_size)

    x = img()
    y = img()
    return LossBatch(
        x=x, y=y,
        gx=offset_from(y), fy=offset_from(x),
        fgx=offset_from(x), gfy=offset_from(y),
        fx=offset_from(x), gy=offset_from(y),
        dy_y=d_out(), dy_gx=d_out(), dx_x=d_out(), dx_fy=d_out(),
        w=rng.uniform(0.0, 1.0, batch_size),
    )


def float64_loss_reference(batch: LossBatch, weights: LossWeights, kind: AdvKind):
    """total_loss and loss_grad as computed on a whole-batch float64 copy of every
    image role, with whole-batch reductions: the bit-for-bit reference for the
    item-by-item path. Returns (LossBreakdown, LossGradients)."""
    im = {name: np.asarray(getattr(batch, name), dtype=np.float64) for name in IMAGE_ROLES}
    x, y, w = im["x"], im["y"], batch.w

    def clamp(v):
        return np.clip(v, 1e-7, 1.0 - 1e-7)

    def mean_abs(a, b):
        return np.abs(a - b).mean(axis=(1, 2))

    if kind is AdvKind.LOG:
        adv = float(
            np.log(clamp(batch.dy_y)).mean()
            + np.log(1.0 - clamp(batch.dy_gx)).mean()
            + np.log(clamp(batch.dx_x)).mean()
            + np.log(1.0 - clamp(batch.dx_fy)).mean()
        )
    else:
        adv = float(
            ((batch.dy_y - 1.0) ** 2).mean()
            + (batch.dy_gx**2).mean()
            + ((batch.dx_x - 1.0) ** 2).mean()
            + (batch.dx_fy**2).mean()
        )
    cyc = float((mean_abs(im["fgx"], x) + mean_abs(im["gfy"], y)).mean())
    idt = float((mean_abs(im["fx"], x) + mean_abs(im["gy"], y)).mean())
    pair = float((w * (mean_abs(im["gx"], y) + mean_abs(im["fy"], x))).mean())
    total = adv + weights.lambda1 * cyc + weights.lambda2 * idt + weights.lambda3 * pair
    breakdown = LossBreakdown(total=total, adv=adv, cyc=cyc, idt=idt, pair=pair)

    b = x.shape[0]
    scale = 1.0 / (b * x.shape[1] * x.shape[2])
    w3 = weights.lambda3 * w[:, None, None] * scale
    if kind is AdvKind.LOG:
        d = (1.0 / (b * clamp(batch.dy_y)), -1.0 / (b * (1.0 - clamp(batch.dy_gx))),
             1.0 / (b * clamp(batch.dx_x)), -1.0 / (b * (1.0 - clamp(batch.dx_fy))))
    else:
        d = (2.0 * (batch.dy_y - 1.0) / b, 2.0 * batch.dy_gx / b,
             2.0 * (batch.dx_x - 1.0) / b, 2.0 * batch.dx_fy / b)
    grads = LossGradients(
        gx=w3 * np.sign(im["gx"] - y),
        fy=w3 * np.sign(im["fy"] - x),
        fgx=weights.lambda1 * scale * np.sign(im["fgx"] - x),
        gfy=weights.lambda1 * scale * np.sign(im["gfy"] - y),
        fx=weights.lambda2 * scale * np.sign(im["fx"] - x),
        gy=weights.lambda2 * scale * np.sign(im["gy"] - y),
        dy_y=d[0], dy_gx=d[1], dx_x=d[2], dx_fy=d[3],
    )
    return breakdown, grads
