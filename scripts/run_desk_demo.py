#!/usr/bin/env python3
"""Desk-scale end-to-end run: synthesize an unpaired LR/HR pair, degrade the LR
side, match patches, and report how matched-pair weights compare with random
pairings plus the quality metrics of the degraded volumes.
"""

import argparse

import numpy as np

from patchpair import (
    DegradeParams,
    HistogramSpec,
    MatchConfig,
    PhantomSpec,
    degrade_volume,
    evaluate_pair,
    filter_threshold,
    generate_similar_pair,
    match_hierarchical,
    nmi,
    patch_grid,
    weight_stats,
)


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--patients", type=int, default=4)
    ap.add_argument("--slices", type=int, default=8)
    ap.add_argument("--size", type=int, default=64)
    ap.add_argument("--perturbation", type=float, default=0.25)
    ap.add_argument("--patch-size", type=int, default=32)
    ap.add_argument("--stride", type=int, default=16)
    ap.add_argument("--bins", type=int, default=64)
    ap.add_argument("--threshold", type=float, default=0.4)
    ap.add_argument("--no-degrade", action="store_true", help="skip the blur/downsample stage")
    return ap.parse_args()


def main():
    args = parse_args()
    spec = PhantomSpec(
        seed=args.seed, patients=args.patients, slices_per_patient=args.slices, size=args.size
    )
    hr, lr = generate_similar_pair(spec, args.perturbation)
    if not args.no_degrade:
        lr = type(lr)("LR", tuple(degrade_volume(v, DegradeParams()) for v in lr.volumes))

    cfg = MatchConfig(
        patch_size=args.patch_size,
        stride=args.stride,
        hist=HistogramSpec(bins=args.bins),
        threshold=args.threshold,
    )
    manifest = match_hierarchical(lr, hr, cfg)
    retained = filter_threshold(manifest, args.threshold)
    stats = weight_stats(manifest, bins=20)

    rng = np.random.default_rng(args.seed + 1)
    grid = patch_grid(args.size, args.size, args.patch_size, args.stride)

    def random_patch(ds):
        vol = ds.volumes[rng.integers(len(ds.volumes))]
        sl = int(rng.integers(vol.n_slices))
        r, c = grid[rng.integers(len(grid))]
        return vol.data[sl][r : r + args.patch_size, c : c + args.patch_size]

    random_mean = float(
        np.mean([nmi(random_patch(lr), random_patch(hr), cfg.hist) for _ in range(len(manifest.records))])
    )

    print(f"pairs matched: {len(manifest.records)}, retained > {args.threshold}: {len(retained.records)}")
    print(f"matched mean weight: {stats.mean:.4f}")
    print(f"random-pair mean weight: {random_mean:.4f}")
    print(f"fraction of weights in [0.45, 0.55]: {stats.fraction_in(0.45, 0.55):.4f}")

    if not args.no_degrade:
        reports = [
            evaluate_pair(hv.data[k], lv.data[k])
            for hv, lv in zip(hr.volumes, lr.volumes)
            for k in range(hv.n_slices)
        ]
        print(f"degraded-vs-HR mean PSNR: {np.mean([r.psnr for r in reports]):.2f} dB")
        print(f"degraded-vs-HR mean SSIM: {np.mean([r.ssim for r in reports]):.4f}")


if __name__ == "__main__":
    main()
