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
from patchpair.resample import _bicubic_sample
from patchpair.similarity import SimilarityKind, similarity, to_weight


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
    """PCC from centred's deviations and mean squares, not the library's centring; a flat side scores -1."""
    (dx, vx), (dy, vy) = centred(a), centred(b)
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
    A constant image's deviations are zeros, whether or not its float64 mean rounds to its value.
    An image whose largest magnitude m lies outside [2**-300, 2**300) is first scaled by 2**-e, where
    m = f * 2**e with 0.5 <= f < 1, so that its largest magnitude is f."""
    f = img.astype(np.float64).ravel()
    m = float(np.abs(f).max())
    if m != 0.0 and not 2.0**-300 <= m < 2.0**300:
        f = np.ldexp(f, -math.frexp(m)[1])
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


def render_volume_grid(spec, params):
    """phantoms._render_volume's float64 (S, H, W) stack in its full-grid form: meshgrid index grids and one
    whole-image expression per blob; the bit-for-bit reference for the broadcast, in-place renderer."""
    size = spec.size
    centre = (size - 1) / 2.0
    ii, jj = np.meshgrid(
        np.arange(size, dtype=np.float64), np.arange(size, dtype=np.float64), indexing="ij"
    )
    r0, sg, amp = params.ring
    ring = amp * np.exp(-0.5 * ((np.hypot(ii - centre, jj - centre) - r0) / sg) ** 2)
    s = spec.slices_per_patient
    ts = [k / (s - 1) if s > 1 else 0.0 for k in range(s)]
    data = np.empty((s, size, size))
    for img, t in zip(data, ts):
        img[...] = ring
        blobs = params.blobs_start + (params.blobs_end - params.blobs_start) * t
        for ci, cj, ri, rj, a in blobs:
            img += a * np.exp(-0.5 * (((ii - ci) / ri) ** 2 + ((jj - cj) / rj) ** 2))
        np.clip(img, 0.0, 1.0, out=img)
    return data


def principal_moments_grid(arr):
    """resample._principal_angle's (theta, mu_rr, mu_cc, mu_rc, ci, cj) with one whole-image temporary per
    moment product, each summed in that temporary's memory order."""
    total = float(arr.sum())
    i = np.arange(arr.shape[0], dtype=np.float64)
    j = np.arange(arr.shape[1], dtype=np.float64)
    ci = float(arr.sum(axis=1) @ i) / total
    cj = float(arr.sum(axis=0) @ j) / total
    di = i - ci
    dj = j - cj
    mu_rr = float((arr * (di * di)[:, None]).sum()) / total
    mu_cc = float((arr * (dj * dj)[None, :]).sum()) / total
    mu_rc = float((arr * di[:, None] * dj[None, :]).sum()) / total
    theta = 0.5 * math.atan2(2.0 * mu_rc, mu_rr - mu_cc)
    return theta, mu_rr, mu_cc, mu_rc, ci, cj


def rotation_correct_grid(img):
    """rotation_correct's rotated image with meshgrid source coordinates, for an image whose principal angle
    is defined and nonzero. It samples with the library's _bicubic_sample, which bicubic_sample_loop checks."""
    arr = np.asarray(img, dtype=np.float64)
    theta, _, _, _, ci, cj = principal_moments_grid(arr)
    h, w = arr.shape
    ii, jj = np.meshgrid(np.arange(h, dtype=np.float64), np.arange(w, dtype=np.float64), indexing="ij")
    di = ii.ravel() - ci
    dj = jj.ravel() - cj
    c, s = math.cos(theta), math.sin(theta)
    src_r = ci + c * di - s * dj
    src_c = cj + s * di + c * dj
    return _bicubic_sample(arr, src_r, src_c).reshape(h, w)


def keys_taps_expr(src, a=-0.5):
    """resample._taps as whole-array expressions: the first tap's index in the 2-px edge-padded axis and the
    (4, m) Keys weights at distances 1 + t, t, 1 - t and 2 - t."""
    base = np.floor(src)
    t = src - base
    w = np.empty((4, src.size))
    for k, s in ((1, t), (2, 1.0 - t)):
        w[k] = ((a + 2.0) * s - (a + 3.0)) * s * s + 1.0
    for k, s in ((0, 1.0 + t), (3, 2.0 - t)):
        w[k] = ((a * s - 5.0 * a) * s + 8.0 * a) * s - 4.0 * a
    return base.astype(np.int64) + 1, w


def codes_chain(img, spec):
    """similarity._codes as a chain of new arrays: each pixel's histogram bin in C order, clamped to the edge bins."""
    lo, hi = spec.value_range
    scaled = (np.asarray(img, dtype=np.float64).ravel() - lo) * (spec.bins / (hi - lo))
    return np.clip(np.floor(scaled).astype(np.int64), 0, spec.bins - 1)


def normalize_expr(data):
    """normalize_volume's float64 result for a non-constant volume, before the float32 cast, as one expression."""
    lo, hi = float(data.min()), float(data.max())
    return (data.astype(np.float64) - lo) / (hi - lo)


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
