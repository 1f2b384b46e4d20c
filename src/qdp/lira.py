"""Offline likelihood-ratio membership inference against the simulator.

The attacker trains shadow models on data guaranteed to exclude every audit
sample, fits a per-sample Gaussian to the shadow losses (the loss
distribution under non-membership), and scores membership of each audit
sample by the upper-tail probability of the target model's loss under that
fit: unusually low loss means member-like. Reported accuracy is the maximal
balanced accuracy over score thresholds. Every draw comes from a Philox
stream keyed on the run seed, so the run's config, which also sizes the
shadow ensemble and the audit set, alone fixes the audit.
The fit depends on the task and the seed, not the mechanism: ``fit_attack``
fits once and returns a scorer for targets of any sigma and k.
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
    "AttackReport",
    "fit_out_distribution",
    "score",
    "attack_accuracy",
    "fit_attack",
    "audit_run",
    "write_report",
]

# Degenerate shadow agreement must not produce infinite z-scores.
SIGMA_FLOOR = 1e-6


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
    losses = flsim.cross_entropy_losses(np.asarray(models, dtype=float), x, y)
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
    balanced audit set with at least one member. One sort gives, for every
    distinct score used as threshold, the members and non-members scoring
    below it, so the sweep is O(n log n). ROC points run from (0, 0)
    through the thresholds in descending order as (FPR, TPR).
    """
    s = np.asarray(scores, dtype=float)
    truth = np.asarray(is_member, dtype=bool)
    if s.shape != truth.shape:
        raise ValueError(
            f"scores and membership must have the same length: {s.shape} vs {truth.shape}"
        )
    n_members = int(truth.sum())
    n_nonmembers = len(truth) - n_members
    if n_members != n_nonmembers or not n_members:
        raise ValueError(
            f"audit set must be balanced and nonempty: "
            f"{n_members} members vs {n_nonmembers} non-members"
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


def fit_attack(config: FlRunConfig, task):
    """Draw the audit set from ``task``, fit the shadows, and return ``attack``.

    ``task`` is ``flsim.make_task_data(config)``; ``attack(target_weights)``
    returns an ``AttackReport``. Audit members come from the task's training
    data; non-members and every shadow shard are fresh draws, each from its
    own stream, so no shadow trains on an audit sample. Each of the
    ``config.m_shadows`` shadow models is trained centrally on as many
    samples as the target trains on, for the target's ``rounds *
    local_steps`` full-batch steps at its learning rate. Scoring works on
    raw losses.
    """
    half = config.audit_size // 2
    (shard_x, shard_y), _ = task
    train_x = shard_x.reshape(-1, config.dimension)
    train_y = shard_y.reshape(-1)
    n_train = len(train_y)
    if half > n_train:
        raise ValueError(
            f"audit set needs {half} members but the target trains on {n_train} samples"
        )

    (member_rng,) = flsim._streams(config.seed, "member")
    member_ids = np.sort(member_rng.choice(n_train, size=half, replace=False))
    (nonmember_rng,) = flsim._streams(config.seed, "nonmember")
    fresh_x, fresh_y = flsim.sample_mixture(nonmember_rng, half, config)

    audit_x = np.vstack([train_x[member_ids], fresh_x])
    audit_y = np.concatenate([train_y[member_ids], fresh_y])
    audit_ids = member_ids.tolist() + list(range(n_train, n_train + half))
    is_member = np.arange(2 * half) < half

    steps = config.rounds * config.local_steps
    start = np.zeros((1, config.dimension + 1))
    models = []
    # one shadow per call: of the 64 fits at MIA_TASK, groups of 8 or more
    # measured slower and of 2-4 ~0.13 s faster, worth it only on ROADMAP item
    # 3's terms (beat the parent's mia_sweep IQR, every report.json unchanged)
    for shadow_rng in flsim._streams(config.seed, "shadow", last=np.arange(config.m_shadows)):
        sx, sy = flsim.sample_mixture(shadow_rng, n_train, config)
        (weights,) = flsim.sgd(
            start, sx[None], sy[None], steps, config.learning_rate, n_train, [shadow_rng]
        )
        models.append(weights)
    mu_out, sigma_out = fit_out_distribution(models, audit_x, audit_y)

    def attack(target_weights: np.ndarray) -> AttackReport:
        target_losses = flsim.cross_entropy_losses(target_weights, audit_x, audit_y)
        scores = score(target_losses, mu_out, sigma_out)
        accuracy, roc_points = attack_accuracy(scores, is_member)
        return AttackReport(
            scores=dict(zip(audit_ids, scores.tolist())),
            accuracy=accuracy,
            roc_points=roc_points,
        )

    return attack


def audit_run(config: FlRunConfig) -> AttackReport:
    """Train the target on its task and mount the offline attack of ``fit_attack`` on it."""
    task = flsim.make_task_data(config)
    attack = fit_attack(config, task)
    return attack(flsim.train(config, task).weights)


def write_report(report: AttackReport, config: FlRunConfig, path: Path | str) -> None:
    """Serialize an attack report as stable, pretty-printed JSON.

    The config echo holds every field of the config in the config-file
    schema; written out as ``key = value`` lines it is a config file that
    reproduces the audit.
    """
    payload = {
        "config": flsim.config_as_flat_mapping(config),
        "scores": {str(sid): s for sid, s in report.scores.items()},
        "accuracy": report.accuracy,
        "roc_points": [list(pt) for pt in report.roc_points],
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
