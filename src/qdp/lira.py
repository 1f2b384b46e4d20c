"""Offline likelihood-ratio membership inference against the simulator.

The attacker trains shadow models on data guaranteed to exclude every audit
sample, fits a per-sample Gaussian to the shadow losses (the loss
distribution under non-membership), and scores membership of each audit
sample by the upper-tail probability of the target model's loss under that
fit: unusually low loss means member-like. Reported accuracy is the maximal
balanced accuracy over score thresholds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import special

from . import flsim
from .flsim import FlRunConfig

__all__ = [
    "AttackConfig",
    "AttackReport",
    "logit_scale",
    "fit_out_distribution",
    "score",
    "attack_accuracy",
    "audit_run",
    "write_report",
]

# Degenerate shadow agreement must not produce infinite z-scores.
SIGMA_FLOOR = 1e-6

ACCURACY_RULE = "max balanced accuracy over score thresholds"

_MEMBER_STREAM = 0
_NONMEMBER_STREAM = 1
_SHADOW_STREAM = 2


@dataclass(frozen=True)
class AttackConfig:
    """Shadow-ensemble size, audit-set size, and the attack's own seed.

    Shadow models are trained centrally on fresh draws from the task
    distribution; steps and learning rate default to the target's totals.
    Scoring works on raw losses; set ``logit_transform`` to fit and score
    logit-scaled confidences instead (off by default).
    """

    m_shadows: int = 16
    audit_size: int = 64
    seed: int = 0
    shadow_steps: int | None = None
    shadow_learning_rate: float | None = None
    logit_transform: bool = False

    def __post_init__(self):
        if self.m_shadows < 2:
            raise ValueError(
                f"need at least 2 shadow models to fit a variance, got {self.m_shadows}"
            )
        if self.audit_size < 2 or self.audit_size % 2 != 0:
            raise ValueError(f"audit_size must be even and >= 2, got {self.audit_size}")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        if self.shadow_steps is not None and self.shadow_steps < 1:
            raise ValueError(f"shadow_steps must be >= 1, got {self.shadow_steps}")
        if self.shadow_learning_rate is not None and self.shadow_learning_rate < 0:
            raise ValueError("shadow_learning_rate must be nonnegative")


@dataclass(frozen=True)
class AttackReport:
    """Per-sample membership scores with the attack's headline numbers."""

    scores: dict[int, float]
    accuracy: float
    roc_points: list[tuple[float, float]]
    seeds: tuple[int, ...] = field(default=())


def logit_scale(losses):
    """Map losses onto the (negated) logit of the true-label confidence.

    log(e^l - 1) is strictly increasing in the loss, so member-like stays
    "small" and the plain tail-probability scoring rule applies unchanged.
    Losses that underflowed to zero are floored to keep the result finite.
    """
    l = np.maximum(np.asarray(losses, dtype=float), 1e-300)
    # above ~30 the -log(1 - e^-l) correction is below double resolution
    return np.where(l > 30.0, l, np.log(np.expm1(np.minimum(l, 30.0))))


def fit_out_distribution(models: list[np.ndarray], x: np.ndarray, y: np.ndarray, transform=None):
    """Per-sample mean and (population) std of the shadow-model losses.

    Returns two arrays, one entry per row of ``x``. The caller is responsible
    for the offline guarantee that no audit sample appears in any shadow
    training set. Standard deviations are floored at SIGMA_FLOOR.
    ``transform``, if given, is applied to the loss matrix before fitting
    (see ``logit_scale``).
    """
    if len(models) < 2:
        raise ValueError(f"need at least 2 shadow models, got {len(models)}")
    losses = np.stack([flsim.cross_entropy_losses(w, x, y) for w in models])
    if transform is not None:
        losses = transform(losses)
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
    """Best balanced accuracy and ROC sweep of `score >= threshold` rules.

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
    every shadow shard are fresh draws from the same distribution, so shadow
    training sets are disjoint from the audit set by construction (and
    checked structurally on the sample ids).
    """
    half = attack_config.audit_size // 2
    shards, _ = flsim.make_task_data(fl_config)
    train_x = np.vstack([x for x, _ in shards])
    train_y = np.concatenate([y for _, y in shards])
    n_train = len(train_y)
    if half > n_train:
        raise ValueError(
            f"audit set needs {half} members but the target trains on {n_train} samples"
        )

    result = flsim.train(fl_config)
    target_weights = result.model.weights

    member_rng = flsim._stream(attack_config.seed, _MEMBER_STREAM)
    member_ids = np.sort(member_rng.choice(n_train, size=half, replace=False))
    nonmember_rng = flsim._stream(attack_config.seed, _NONMEMBER_STREAM)
    fresh_x, fresh_y = flsim.sample_mixture(nonmember_rng, half, fl_config.task)

    audit_x = np.vstack([train_x[member_ids], fresh_x])
    audit_y = np.concatenate([train_y[member_ids], fresh_y])
    audit_ids = member_ids.tolist() + list(range(n_train, n_train + half))
    is_member = np.arange(2 * half) < half

    steps = attack_config.shadow_steps
    if steps is None:
        steps = fl_config.rounds * fl_config.local_steps
    lr = attack_config.shadow_learning_rate
    if lr is None:
        lr = fl_config.learning_rate
    start = np.zeros(fl_config.task.dimension + 1)
    models = []
    next_shadow_id = n_train + half
    audit_id_set = set(audit_ids)
    for m in range(attack_config.m_shadows):
        shadow_rng = flsim._stream(attack_config.seed, _SHADOW_STREAM, m)
        sx, sy = flsim.sample_mixture(shadow_rng, n_train, fl_config.task)
        shadow_ids = set(range(next_shadow_id, next_shadow_id + n_train))
        next_shadow_id += n_train
        if shadow_ids & audit_id_set:
            raise AssertionError("shadow training shard overlaps the audit set")
        models.append(flsim.sgd(start, sx, sy, steps, lr, len(sy), shadow_rng))

    transform = logit_scale if attack_config.logit_transform else None
    mu_out, sigma_out = fit_out_distribution(models, audit_x, audit_y, transform=transform)
    target_losses = flsim.cross_entropy_losses(target_weights, audit_x, audit_y)
    if transform is not None:
        target_losses = transform(target_losses)
    scores = score(target_losses, mu_out, sigma_out)
    accuracy, roc_points = attack_accuracy(scores, is_member)
    return AttackReport(
        scores=dict(zip(audit_ids, scores.tolist())),
        accuracy=accuracy,
        roc_points=roc_points,
        seeds=(fl_config.seed, attack_config.seed),
    )


def write_report(
    report: AttackReport,
    fl_config: FlRunConfig,
    attack_config: AttackConfig,
    path: Path | str,
) -> None:
    """Serialize an attack report as stable, pretty-printed JSON.

    The config echo holds every field of both configs in the config-file
    schema, with the attack's ``seed`` under ``attack_seed``.
    """
    attack = {
        ("attack_seed" if key == "seed" else key): value
        for key, value in flsim.config_as_flat_mapping(attack_config).items()
    }
    payload = {
        "config": {
            **flsim.config_as_flat_mapping(fl_config),
            **attack,
            "accuracy_rule": ACCURACY_RULE,
        },
        "scores": {str(sid): s for sid, s in report.scores.items()},
        "accuracy": report.accuracy,
        "roc_points": [list(pt) for pt in report.roc_points],
        "seeds": list(report.seeds),
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
