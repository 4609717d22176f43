"""Reference computation of the two-generator GAN loss family and its gradients.

Operates on externally supplied network evaluations only; there are no
networks here. Expectations are batch means, per-pixel L1 terms are
normalized by pixel count so magnitudes are resolution-independent, and
discriminator outputs are one scalar per item.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .imgvol import _REDUCE_BLOCK, Volume, _write_atomic, load_volume, save_volume

CLAMP_EPS = 1e-7

IMAGE_ROLES = ("x", "y", "gx", "fy", "fgx", "gfy", "fx", "gy")
SCALAR_ROLES = ("dy_y", "dy_gx", "dx_x", "dx_fy")


class AdvKind(Enum):
    LOG = "log"
    LEAST_SQUARES = "least-squares"


class DistKind(Enum):
    L1 = "l1"
    L2 = "l2"


@dataclass(frozen=True)
class LossWeights:
    lambda1: float = 1.0
    lambda2: float = 1.0
    lambda3: float = 256.0

    def __post_init__(self):
        if not all(0 <= w < math.inf for w in (self.lambda1, self.lambda2, self.lambda3)):
            raise ValueError("loss weights must be nonnegative and finite")


def _all_finite(arr: np.ndarray) -> bool:
    # np.isfinite(arr).all() without ndarray.all's Python-level wrapper, which
    # costs as much as the scan itself on the small batches of a gradient check
    return np.count_nonzero(np.isfinite(arr)) == arr.size


@dataclass(frozen=True, eq=False)
class LossBatch:
    """One batch of externally computed evaluations.

    Image fields are (B, H, W): inputs x (LR) and y (HR), generator outputs
    gx = G(x), fy = F(y), cycle outputs fgx = F(G(x)), gfy = G(F(y)), identity
    outputs fx = F(x), gy = G(y). A float32 or float64 image array is kept as
    given, without a copy; any other input is converted to float64. Scalar
    fields are (B,) float64: discriminator outputs and the per-pair similarity
    weights w in [0, 1]. Every value is finite.
    """

    x: np.ndarray
    y: np.ndarray
    gx: np.ndarray
    fy: np.ndarray
    fgx: np.ndarray
    gfy: np.ndarray
    fx: np.ndarray
    gy: np.ndarray
    dy_y: np.ndarray
    dy_gx: np.ndarray
    dx_x: np.ndarray
    dx_fy: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        for name in IMAGE_ROLES:
            arr = getattr(self, name)
            keep = isinstance(arr, np.ndarray) and arr.dtype in (np.float32, np.float64)
            arr = np.asarray(arr, dtype=arr.dtype if keep else np.float64)
            if arr.ndim != 3:
                raise ValueError(f"{name} must be (batch, h, w), got {arr.shape}")
            if not _all_finite(arr):
                raise ValueError(f"{name} contains non-finite values")
            object.__setattr__(self, name, arr)
        shape = self.x.shape
        if min(shape) < 1:
            raise ValueError(f"empty batch or image, shape {shape}")
        for name in IMAGE_ROLES:
            if getattr(self, name).shape != shape:
                raise ValueError(f"{name} shape {getattr(self, name).shape} != {shape}")
        for name in SCALAR_ROLES + ("w",):
            arr = np.asarray(getattr(self, name), dtype=np.float64).ravel()
            if arr.shape != (shape[0],):
                raise ValueError(f"{name} must have one value per batch item")
            if not _all_finite(arr):
                raise ValueError(f"{name} contains non-finite values")
            object.__setattr__(self, name, arr)
        if not ((0 <= self.w) & (self.w <= 1)).all():
            raise ValueError("weights must lie in [0, 1]")

    @property
    def batch_size(self) -> int:
        return self.x.shape[0]

    @property
    def pixels(self) -> int:
        return self.x.shape[1] * self.x.shape[2]


def _clamp(v: np.ndarray) -> np.ndarray:
    """Discriminator outputs clamped into [CLAMP_EPS, 1 - CLAMP_EPS] for the log form."""
    return np.minimum(np.maximum(v, CLAMP_EPS), 1.0 - CLAMP_EPS)  # np.clip's bits, without its wrapper


def _mean_abs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-item mean absolute difference in float64, shape (B,).

    Whole items go through one reused C-ordered float64 buffer of about
    _REDUCE_BLOCK elements (one item if an item is larger), so a float32 batch
    is never copied whole. The result has the bits of
    np.abs(a - b).mean(axis=(1, 2)) on C-contiguous float64 copies of a and b.
    """
    n, h, w = a.shape
    k = max(1, _REDUCE_BLOCK // (h * w))
    buf = np.empty((min(k, n), h, w))
    sums = np.empty(n)
    for lo in range(0, n, k):
        part = np.subtract(a[lo : lo + k], b[lo : lo + k], out=buf[: n - lo], dtype=np.float64)
        # ndarray.mean's own sum and division, without its Python-level wrapper
        np.add.reduce(np.abs(part, out=part), axis=(1, 2), out=sums[lo : lo + k])
    return sums / (h * w)


def _sign_diff(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sign(a - b) of the float64 difference: a float32 one would keep the
    gradients float32, since a Python float times a float32 array stays float32."""
    return np.sign(np.subtract(a, b, dtype=np.float64))


def adversarial_loss(batch: LossBatch, kind: AdvKind = AdvKind.LEAST_SQUARES) -> float:
    """Both generators' adversarial terms combined.

    Log form: E[ln D_Y(y)] + E[ln(1 - D_Y(G(x)))] + E[ln D_X(x)] + E[ln(1 - D_X(F(y)))]
    with outputs clamped into [1e-7, 1 - 1e-7]. Least-squares form targets 1 on
    real and 0 on generated outputs.
    """
    if kind is AdvKind.LOG:
        return float(
            np.log(_clamp(batch.dy_y)).mean()
            + np.log(1.0 - _clamp(batch.dy_gx)).mean()
            + np.log(_clamp(batch.dx_x)).mean()
            + np.log(1.0 - _clamp(batch.dx_fy)).mean()
        )
    return float(
        ((batch.dy_y - 1.0) ** 2).mean()
        + (batch.dy_gx**2).mean()
        + ((batch.dx_x - 1.0) ** 2).mean()
        + (batch.dx_fy**2).mean()
    )


def cycle_loss(batch: LossBatch) -> float:
    """Mean per-pixel L1 of the forward and backward reconstruction residuals."""
    return float((_mean_abs(batch.fgx, batch.x) + _mean_abs(batch.gfy, batch.y)).mean())


def identity_loss(batch: LossBatch) -> float:
    """Mean per-pixel L1 penalty for generators acting on their own target domain."""
    return float((_mean_abs(batch.fx, batch.x) + _mean_abs(batch.gy, batch.y)).mean())


def matched_pair_loss(batch: LossBatch) -> float:
    """Similarity-weighted paired L1: mean_i w_i * (|G(x)-y|_mean + |F(y)-x|_mean).

    With all weights 1 this reduces exactly to the supervised paired L1 loss.
    """
    per_item = _mean_abs(batch.gx, batch.y) + _mean_abs(batch.fy, batch.x)
    return float((batch.w * per_item).mean())


@dataclass(frozen=True)
class LossBreakdown:
    total: float
    adv: float
    cyc: float
    idt: float
    pair: float


def total_loss(
    batch: LossBatch,
    weights: LossWeights = LossWeights(),
    kind: AdvKind = AdvKind.LEAST_SQUARES,
) -> LossBreakdown:
    """Overall objective adv + l1*cyc + l2*idt + l3*pair with its components."""
    adv = adversarial_loss(batch, kind)
    cyc = cycle_loss(batch)
    idt = identity_loss(batch)
    pair = matched_pair_loss(batch)
    total = adv + weights.lambda1 * cyc + weights.lambda2 * idt + weights.lambda3 * pair
    return LossBreakdown(total=total, adv=adv, cyc=cyc, idt=idt, pair=pair)


def weighted_supervised_loss(preds, targets, weights, dist: DistKind = DistKind.L1) -> float:
    """Sum_i w_i * Dist(pred_i, target_i) with Dist a per-pixel mean (L1 or squared L2).

    Generic weighted wrapper that turns any paired objective into its
    similarity-weighted form; unit weights recover the unweighted sum.
    """
    if not (len(preds) == len(targets) == len(weights)):
        raise ValueError("preds, targets and weights must have equal lengths")
    total = 0.0
    for p, t, w in zip(preds, targets, weights):
        if not 0.0 <= w <= 1.0:
            raise ValueError("weights must lie in [0, 1]")
        p = np.asarray(p, dtype=np.float64)
        t = np.asarray(t, dtype=np.float64)
        if p.shape != t.shape:
            raise ValueError(f"shape mismatch: {p.shape} vs {t.shape}")
        d = p - t
        if dist is DistKind.L1:
            total += w * float(np.abs(d).mean())
        else:
            total += w * float((d * d).mean())
    return total


@dataclass(frozen=True, eq=False)
class LossGradients:
    """Gradients of the overall objective with respect to every supplied evaluation."""

    gx: np.ndarray
    fy: np.ndarray
    fgx: np.ndarray
    gfy: np.ndarray
    fx: np.ndarray
    gy: np.ndarray
    dy_y: np.ndarray
    dy_gx: np.ndarray
    dx_x: np.ndarray
    dx_fy: np.ndarray


def loss_grad(
    batch: LossBatch,
    weights: LossWeights = LossWeights(),
    kind: AdvKind = AdvKind.LEAST_SQUARES,
) -> LossGradients:
    """Analytic gradients of total_loss; L1 subgradients use sign(0) = 0."""
    b = batch.batch_size
    scale = 1.0 / (b * batch.pixels)
    w3 = weights.lambda3 * batch.w[:, None, None] * scale
    g_gx = w3 * _sign_diff(batch.gx, batch.y)
    g_fy = w3 * _sign_diff(batch.fy, batch.x)
    g_fgx = weights.lambda1 * scale * _sign_diff(batch.fgx, batch.x)
    g_gfy = weights.lambda1 * scale * _sign_diff(batch.gfy, batch.y)
    g_fx = weights.lambda2 * scale * _sign_diff(batch.fx, batch.x)
    g_gy = weights.lambda2 * scale * _sign_diff(batch.gy, batch.y)
    if kind is AdvKind.LOG:
        g_dy_y = 1.0 / (b * _clamp(batch.dy_y))
        g_dy_gx = -1.0 / (b * (1.0 - _clamp(batch.dy_gx)))
        g_dx_x = 1.0 / (b * _clamp(batch.dx_x))
        g_dx_fy = -1.0 / (b * (1.0 - _clamp(batch.dx_fy)))
    else:
        g_dy_y = 2.0 * (batch.dy_y - 1.0) / b
        g_dy_gx = 2.0 * batch.dy_gx / b
        g_dx_x = 2.0 * (batch.dx_x - 1.0) / b
        g_dx_fy = 2.0 * batch.dx_fy / b
    return LossGradients(
        gx=g_gx, fy=g_fy, fgx=g_fgx, gfy=g_gfy, fx=g_fx, gy=g_gy,
        dy_y=g_dy_y, dy_gx=g_dy_gx, dx_x=g_dx_x, dx_fy=g_dx_fy,
    )


def write_loss_batch(batch: LossBatch, dir_path) -> None:
    """Persist a batch as one volume per image role plus a values.json file."""
    dir_path = Path(dir_path)
    dir_path.mkdir(parents=True, exist_ok=True)
    for role in IMAGE_ROLES:
        save_volume(Volume(role, getattr(batch, role)), dir_path / f"{role}.vol")
    values = {role: [float(v) for v in getattr(batch, role)] for role in SCALAR_ROLES}
    values["w"] = [float(v) for v in batch.w]
    _write_atomic(dir_path / "values.json", (json.dumps(values, sort_keys=True) + "\n").encode())


def read_loss_batch(dir_path) -> LossBatch:
    """Load a batch directory written by write_loss_batch (or produced externally)."""
    dir_path = Path(dir_path)
    images = {role: load_volume(dir_path / f"{role}.vol").data for role in IMAGE_ROLES}
    vpath = dir_path / "values.json"
    try:
        values = json.loads(vpath.read_text())  # a missing file raises FileNotFoundError naming it
    except json.JSONDecodeError as e:
        raise ValueError(f"unreadable values file {vpath}: {e}") from e
    if not isinstance(values, dict):
        raise ValueError(f"{vpath}: expected a JSON object, got {type(values).__name__}")
    for role in SCALAR_ROLES + ("w",):
        if role not in values:
            raise ValueError(f"{vpath}: missing field {role!r}")
    try:
        return LossBatch(**images, **{role: values[role] for role in SCALAR_ROLES + ("w",)})
    except (TypeError, ValueError) as e:  # LossBatch checks the values' shape, finiteness and range
        raise ValueError(f"{dir_path}: {e}") from e
