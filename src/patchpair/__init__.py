"""Weighted LR/HR patch-pair dataset construction and reference numerics."""

from .imgvol import (
    Dataset,
    PatchRef,
    Volume,
    load_dataset,
    load_volume,
    normalize_volume,
    save_dataset,
    save_volume,
)
from .losses import (
    AdvKind,
    DistKind,
    LossBatch,
    LossBreakdown,
    LossGradients,
    LossWeights,
    adversarial_loss,
    cycle_loss,
    identity_loss,
    loss_grad,
    matched_pair_loss,
    read_loss_batch,
    total_loss,
    weighted_supervised_loss,
    write_loss_batch,
)
from .matching import (
    Manifest,
    MatchConfig,
    MatchLevels,
    MatchRecord,
    MatchStats,
    dataset_fingerprint,
    filter_threshold,
    match_exhaustive,
    match_hierarchical,
    patch_grid,
    read_manifest,
    weight_stats,
    write_manifest,
)
from .phantoms import PhantomSpec, generate_dataset, generate_similar_pair
from .quality import QualityReport, SsimMode, SsimParams, evaluate_pair, psnr, rmse, ssim
from .resample import (
    DegradeParams,
    bicubic_resize,
    degrade,
    degrade_volume,
    gaussian_blur,
    gaussian_kernel,
    preprocess,
    recenter,
    rotation_correct,
)
from .similarity import (
    HistogramSpec,
    RbfParams,
    SimilarityKind,
    ZeroVarianceError,
    entropy,
    joint_histogram,
    mutual_information,
    nmi,
    pcc,
    rbf,
    similarity,
    to_weight,
)

__version__ = "0.1.0"
