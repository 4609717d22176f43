"""Command-line front end: demo, preprocess, degrade, match, stats, metrics, loss-eval.

Exit codes: 0 success, 1 data/runtime error, 2 usage error. All numeric output
is plain CSV with 17-significant-digit floats so it parses back losslessly.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import imgvol, losses, matching, phantoms, quality, resample
from .similarity import HistogramSpec, RbfParams, SimilarityKind


def _fmt(v: float) -> str:
    return format(v, ".17g")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _existing_dir(parser: argparse.ArgumentParser, path: str) -> Path:
    p = Path(path)
    if not p.is_dir():
        parser.error(f"directory not found: {path}")
    return p


def _usage(parser: argparse.ArgumentParser, build, *args, **kwargs):
    """Return ``build(*args, **kwargs)``; a ValueError it raises is a usage error (exit 2)."""
    try:
        return build(*args, **kwargs)
    except ValueError as e:
        parser.error(str(e))


def cmd_demo(parser, args) -> int:
    spec = _usage(parser, phantoms.PhantomSpec, seed=args.seed, patients=args.patients,
                  slices_per_patient=args.slices, size=args.size)
    params = _usage(parser, resample.DegradeParams, sigma=args.sigma, scale_factor=args.factor)
    if args.size % args.factor != 0:
        parser.error(f"--size {args.size} not divisible by --factor {args.factor}")
    # generate_similar_pair checks the perturbation before it renders any phantom
    hr, lr = _usage(parser, phantoms.generate_similar_pair, spec, args.perturbation)
    hr_vols = [resample.preprocess(v, args.size) for v in hr.volumes]
    lr_vols = [resample.degrade_volume(resample.preprocess(v, args.size), params) for v in lr.volumes]
    out = Path(args.out)
    imgvol.save_dataset(imgvol.Dataset("HR", tuple(hr_vols)), out / "hr")
    imgvol.save_dataset(imgvol.Dataset("LR", tuple(lr_vols)), out / "lr")
    print(f"wrote {len(hr_vols)} HR and {len(lr_vols)} LR volumes under {out}")
    return 0


def cmd_preprocess(parser, args) -> int:
    ds = imgvol.load_dataset(_existing_dir(parser, args.input), "HR")
    vols = tuple(resample.preprocess(v, args.target) for v in ds.volumes)
    imgvol.save_dataset(imgvol.Dataset("HR", vols), args.output)
    print(f"preprocessed {len(vols)} volumes to {args.target}x{args.target}")
    return 0


def cmd_degrade(parser, args) -> int:
    params = _usage(parser, resample.DegradeParams, sigma=args.sigma, scale_factor=args.factor)
    ds = imgvol.load_dataset(_existing_dir(parser, args.input), "HR")
    vols = tuple(resample.degrade_volume(v, params) for v in ds.volumes)
    imgvol.save_dataset(imgvol.Dataset("LR", vols), args.output)
    print(f"degraded {len(vols)} volumes (sigma={_fmt(args.sigma)}, factor={args.factor})")
    return 0


def _match_config(args) -> matching.MatchConfig:
    levels = "patch-only" if args.levels == "exhaustive" else args.levels
    return matching.MatchConfig(
        patch_size=args.patch_size,
        stride=args.stride,
        metric=SimilarityKind(args.metric),
        hist=HistogramSpec(bins=args.bins),
        rbf=RbfParams(gamma=args.gamma),
        threshold=args.threshold,
        levels=matching.MatchLevels(levels),
    )


def cmd_match(parser, args) -> int:
    cfg = _usage(parser, _match_config, args)
    lr_dir = _existing_dir(parser, args.lr)
    hr_dir = _existing_dir(parser, args.hr)
    lr_set = imgvol.load_dataset(lr_dir, "LR")
    hr_set = imgvol.load_dataset(hr_dir, "HR")
    manifest = matching.match_hierarchical(lr_set, hr_set, cfg)
    if args.filter:
        manifest = matching.filter_threshold(manifest, cfg.threshold)
    matching.write_manifest(manifest, args.out)
    n = len(manifest.records)
    mean = float(np.mean([r.weight for r in manifest.records])) if n else math.nan
    print(f"records={n} mean_weight={_fmt(mean)}")
    return 0


def cmd_stats(parser, args) -> int:
    manifest = matching.read_manifest(args.manifest)
    if not manifest.records:  # a header-only manifest, as match --filter leaves when nothing passes
        raise ValueError(f"{args.manifest}: no records")
    stats = matching.weight_stats(manifest, bins=args.bins)
    with open(args.csv, "w") as f:
        f.write("bin_lo,bin_hi,count\n")
        for i in range(len(stats.counts)):
            f.write(f"{_fmt(stats.bin_edges[i])},{_fmt(stats.bin_edges[i + 1])},{stats.counts[i]}\n")
    print(f"mean={_fmt(stats.mean)} fraction_0.45_0.55={_fmt(stats.fraction_in(0.45, 0.55))}")
    return 0


def cmd_metrics(parser, args) -> int:
    params = _usage(parser, quality.SsimParams, mode=quality.SsimMode(args.ssim_mode), window=args.window)
    ref_dir = _existing_dir(parser, args.reference)
    est_dir = _existing_dir(parser, args.estimate)
    ref = imgvol.load_dataset(ref_dir, "HR")
    est = imgvol.load_dataset(est_dir, "LR")
    ref_ids = [v.patient_id for v in ref.volumes]
    est_ids = [v.patient_id for v in est.volumes]
    if ref_ids != est_ids:
        raise ValueError(f"volume sets differ: {ref_ids} vs {est_ids}")
    rows = []  # every slice is evaluated before anything is printed
    for rv, ev in zip(ref.volumes, est.volumes):  # both in patient-id order
        if rv.data.shape != ev.data.shape:
            raise ValueError(
                f"volume {rv.patient_id}: dimension mismatch {rv.data.shape} vs {ev.data.shape}"
            )
        for k in range(rv.n_slices):
            try:
                rows.append((rv.patient_id, k, quality.evaluate_pair(rv.data[k], ev.data[k], params)))
            except ValueError as e:
                raise ValueError(f"volume {rv.patient_id} slice {k}: {e}") from e
    print("volume,slice,psnr,ssim,rmse")
    for pid, k, r in rows:
        print(f"{pid},{k},{_fmt(r.psnr)},{_fmt(r.ssim)},{_fmt(r.rmse)}")
    means = [float(np.mean([getattr(r, m) for _, _, r in rows])) for m in ("psnr", "ssim", "rmse")]
    print("aggregate,mean," + ",".join(_fmt(m) for m in means))
    return 0


def cmd_loss_eval(parser, args) -> int:
    lw = _usage(parser, losses.LossWeights, lambda1=args.lambda1, lambda2=args.lambda2, lambda3=args.lambda3)
    batch = losses.read_loss_batch(_existing_dir(parser, args.batch))
    kind = losses.AdvKind(args.adv)
    breakdown = losses.total_loss(batch, lw, kind)
    print(
        f"# lambda1={_fmt(lw.lambda1)} lambda2={_fmt(lw.lambda2)} "
        f"lambda3={_fmt(lw.lambda3)} adv={kind.value} batch={batch.batch_size}"
    )
    print("component,value")
    print(f"adv,{_fmt(breakdown.adv)}")
    print(f"cyc,{_fmt(breakdown.cyc)}")
    print(f"idt,{_fmt(breakdown.idt)}")
    print(f"pair,{_fmt(breakdown.pair)}")
    print(f"total,{_fmt(breakdown.total)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="patchpair",
        description="Build weighted LR/HR patch-pair datasets and evaluate the reference numerics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("demo", help="generate a synthetic LR/HR dataset pair")
    p.add_argument("--out", required=True, help="output directory (gets lr/ and hr/ subdirs)")
    p.add_argument("--patients", type=_positive_int, default=2)
    p.add_argument("--slices", type=_positive_int, default=4)
    p.add_argument("--size", type=_positive_int, default=64)
    p.add_argument("--perturbation", type=float, default=0.25)
    p.add_argument("--sigma", type=float, default=3.0)
    p.add_argument("--factor", type=_positive_int, default=4)
    p.add_argument("--seed", type=int, default=0, help="phantom generator seed")
    p.set_defaults(func=cmd_demo)

    p = sub.add_parser("preprocess", help="resize, rotation-correct, recenter, normalize")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--target", type=_positive_int, default=256)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("degrade", help="apply the blur/downsample/upsample degradation")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--sigma", type=float, default=3.0)
    p.add_argument("--factor", type=_positive_int, default=4)
    p.set_defaults(func=cmd_degrade)

    p = sub.add_parser("match", help="match LR patches against HR patches")
    p.add_argument("--lr", required=True, help="directory of LR volumes")
    p.add_argument("--hr", required=True, help="directory of HR volumes")
    p.add_argument("--out", required=True, help="manifest output path")
    p.add_argument("--metric", choices=[k.value for k in SimilarityKind], default="nmi")
    levels = [lv.value for lv in matching.MatchLevels] + ["exhaustive"]  # exhaustive: patch-only by another name
    p.add_argument("--levels", choices=levels, default="hierarchical")
    p.add_argument("--patch-size", type=_positive_int, default=128)
    p.add_argument("--stride", type=_positive_int, default=64)
    p.add_argument("--bins", type=_positive_int, default=64)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--threshold", type=float, default=0.4)
    p.add_argument("--filter", action="store_true", help="drop records at or below the threshold")
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("stats", help="weight histogram and summary of a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--csv", required=True, help="histogram CSV output path")
    p.add_argument("--bins", type=_positive_int, default=20)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("metrics", help="PSNR/SSIM/RMSE between two volume directories")
    p.add_argument("--reference", required=True)
    p.add_argument("--estimate", required=True)
    p.add_argument("--ssim-mode", choices=[m.value for m in quality.SsimMode], default="global")
    p.add_argument("--window", type=_positive_int, default=8)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("loss-eval", help="evaluate the objective on a stored batch")
    p.add_argument("--batch", required=True, help="directory with role volumes and values.json")
    p.add_argument("--lambda1", type=float, default=1.0)
    p.add_argument("--lambda2", type=float, default=1.0)
    p.add_argument("--lambda3", type=float, default=256.0)
    p.add_argument("--adv", choices=[k.value for k in losses.AdvKind], default="least-squares")
    p.set_defaults(func=cmd_loss_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(parser, args)
    except SystemExit as e:  # argparse, also parser.error from inside a command
        return int(e.code or 0)
    except (ValueError, OSError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
