"""Offline likelihood-ratio membership inference against the simulator.

The attacker trains shadow models on data guaranteed to exclude every audit
sample, fits a per-sample Gaussian to the shadow losses (the loss
distribution under non-membership), and scores membership of each audit
sample by the upper-tail probability of the target model's loss under that
fit: unusually low loss means member-like. Reported accuracy is the maximal
balanced accuracy over score thresholds. Every draw comes from a Philox
stream keyed on the run seed, so the run's config alone fixes the audit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import special

from . import flsim
from .flsim import FlRunConfig

__all__ = [
    "AttackConfig",
    "AttackReport",
    "fit_out_distribution",
    "score",
    "attack_accuracy",
    "audit_run",
    "write_report",
]

# Degenerate shadow agreement must not produce infinite z-scores.
SIGMA_FLOOR = 1e-6

_MEMBER_STREAM = 0
_NONMEMBER_STREAM = 1
_SHADOW_STREAM = 2


@dataclass(frozen=True)
class AttackConfig:
    """Shadow-ensemble size and audit-set size; the attack has no seed of its own.

    Each shadow model is trained centrally on fresh draws from the task
    distribution, as many samples as the target trains on, for the target's
    ``rounds * local_steps`` full-batch steps at its learning rate. Scoring
    works on raw losses.
    """

    m_shadows: int = 16
    audit_size: int = 64

    def __post_init__(self):
        if self.m_shadows < 2:
            raise ValueError(
                f"need at least 2 shadow models to fit a variance, got {self.m_shadows}"
            )
        if self.audit_size < 2 or self.audit_size % 2 != 0:
            raise ValueError(f"audit_size must be even and >= 2, got {self.audit_size}")


@dataclass(frozen=True)
class AttackReport:
    """Per-sample membership scores with the attack's headline numbers."""

    scores: dict[int, float]
    accuracy: float
    roc_points: list[tuple[float, float]]


def fit_out_distribution(models: list[np.ndarray], x: np.ndarray, y: np.ndarray):
    """Per-sample mean and (population) std of the shadow-model losses.

    Returns two arrays, one entry per row of ``x``. The caller is responsible
    for the offline guarantee that no audit sample appears in any shadow
    training set. Standard deviations are floored at SIGMA_FLOOR.
    """
    if len(models) < 2:
        raise ValueError(f"need at least 2 shadow models, got {len(models)}")
    losses = np.stack([flsim.cross_entropy_losses(w, x, y) for w in models])
    return losses.mean(axis=0), np.maximum(losses.std(axis=0), SIGMA_FLOOR)


def score(loss, mu_out, sigma_out):
    """Pr[loss under non-membership exceeds the observed loss], elementwise.

    Near 1 when the observed loss is far below the non-member fit
    (member-like), 0.5 at the fitted mean, near 0 far above it.
    """
    sigma_out = np.asarray(sigma_out, dtype=float)
    if not np.all(sigma_out > 0):
        raise ValueError(f"sigma_out must be positive, got {np.min(sigma_out)}")
    return 1.0 - special.ndtr((np.asarray(loss, dtype=float) - mu_out) / sigma_out)


def attack_accuracy(scores, is_member) -> tuple[float, list[tuple[float, float]]]:
    """Max balanced accuracy over `score >= threshold` rules, and their ROC sweep.

    Takes positional arrays of scores and membership flags; requires a
    balanced audit set. One sort gives, for every distinct score used as
    threshold, the members and non-members scoring below it, so the sweep
    is O(n log n). ROC points run from (0, 0) through the thresholds in
    descending order as (FPR, TPR).
    """
    s = np.asarray(scores, dtype=float)
    truth = np.asarray(is_member, dtype=bool)
    if s.shape != truth.shape:
        raise ValueError(
            f"scores and membership must have the same length: {s.shape} vs {truth.shape}"
        )
    n_members = int(truth.sum())
    n_nonmembers = len(truth) - n_members
    if n_members != n_nonmembers:
        raise ValueError(
            f"audit set must be balanced: {n_members} members vs {n_nonmembers} non-members"
        )
    order = np.argsort(s, kind="stable")
    ranked = s[order]
    # each distinct score is a threshold; its first rank counts the samples below it
    below = np.flatnonzero(np.concatenate(([True], ranked[1:] != ranked[:-1])))
    members_below = np.concatenate(([0], np.cumsum(truth[order])))[below]
    nonmembers_below = below - members_below
    tpr = (n_members - members_below) / n_members
    fpr = (n_nonmembers - nonmembers_below) / n_nonmembers
    accuracy = float(np.max(0.5 * (tpr + nonmembers_below / n_nonmembers)))
    return accuracy, [(0.0, 0.0)] + list(zip(fpr[::-1].tolist(), tpr[::-1].tolist()))


def audit_run(fl_config: FlRunConfig, attack_config: AttackConfig) -> AttackReport:
    """Train the target, mount the offline attack, and report its accuracy.

    Audit members are drawn from the target's training data; non-members and
    every shadow shard are fresh draws from the same distribution, each from
    its own stream, so shadow training sets exclude the audit set by
    construction.
    """
    half = attack_config.audit_size // 2
    (shard_x, shard_y), _ = flsim.make_task_data(fl_config)
    train_x = shard_x.reshape(-1, fl_config.dimension)
    train_y = shard_y.reshape(-1)
    n_train = len(train_y)
    if half > n_train:
        raise ValueError(
            f"audit set needs {half} members but the target trains on {n_train} samples"
        )

    result = flsim.train(fl_config)
    target_weights = result.weights

    member_rng = flsim._stream(fl_config.seed, _MEMBER_STREAM)
    member_ids = np.sort(member_rng.choice(n_train, size=half, replace=False))
    nonmember_rng = flsim._stream(fl_config.seed, _NONMEMBER_STREAM)
    fresh_x, fresh_y = flsim.sample_mixture(nonmember_rng, half, fl_config)

    audit_x = np.vstack([train_x[member_ids], fresh_x])
    audit_y = np.concatenate([train_y[member_ids], fresh_y])
    audit_ids = member_ids.tolist() + list(range(n_train, n_train + half))
    is_member = np.arange(2 * half) < half

    steps = fl_config.rounds * fl_config.local_steps
    start = np.zeros((1, fl_config.dimension + 1))
    models = []
    # one shadow per call: batching these full-batch fits measured slower
    for m in range(attack_config.m_shadows):
        shadow_rng = flsim._stream(fl_config.seed, _SHADOW_STREAM, m)
        sx, sy = flsim.sample_mixture(shadow_rng, n_train, fl_config)
        (weights,) = flsim.sgd(
            start, sx[None], sy[None], steps, fl_config.learning_rate, n_train, [shadow_rng]
        )
        models.append(weights)

    mu_out, sigma_out = fit_out_distribution(models, audit_x, audit_y)
    target_losses = flsim.cross_entropy_losses(target_weights, audit_x, audit_y)
    scores = score(target_losses, mu_out, sigma_out)
    accuracy, roc_points = attack_accuracy(scores, is_member)
    return AttackReport(
        scores=dict(zip(audit_ids, scores.tolist())),
        accuracy=accuracy,
        roc_points=roc_points,
    )


def write_report(
    report: AttackReport,
    fl_config: FlRunConfig,
    attack_config: AttackConfig,
    path: Path | str,
) -> None:
    """Serialize an attack report as stable, pretty-printed JSON.

    The config echo holds every field of both configs in the config-file
    schema; written out as ``key = value`` lines it is a config file that
    reproduces the audit.
    """
    payload = {
        "config": flsim.config_as_flat_mapping(fl_config)
        | flsim.config_as_flat_mapping(attack_config),
        "scores": {str(sid): s for sid, s in report.scores.items()},
        "accuracy": report.accuracy,
        "roc_points": [list(pt) for pt in report.roc_points],
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
