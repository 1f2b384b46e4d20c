"""Desk-scale FedAvg simulator with clipped, noised, quantized client updates.

Each round samples n of N clients, runs local SGD on a binary
logistic-regression task, clips the weight delta to c_q/2, perturbs it with
per-coordinate Gaussian noise, stochastically quantizes it onto the
[-c_q, +c_q] lattice, and averages the sampled clients' updates (FedAvg with
equal shards). The learning task is a synthetic two-Gaussian mixture, which
keeps runs in the sub-second range and the loss distribution well-behaved for
the membership-inference harness. One flat ``FlRunConfig`` holds every
setting of a run, the task's included, under the keys of its config file.

All randomness flows through counter-based Philox streams keyed by
(seed, purpose, round, client). A round's sampled clients train in one
batched call over a leading client axis, each drawing from its own stream,
so every client's result is fixed by its stream, not by the batching.
"""

from __future__ import annotations

import csv
import dataclasses
import itertools
import json
import math
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import special

from .quantizer import QuantizerSpec, clip_vector, quantize

__all__ = [
    "FlRunConfig",
    "RunResult",
    "sample_mixture",
    "make_task_data",
    "cross_entropy_losses",
    "evaluate",
    "sgd",
    "privatize_delta",
    "aggregate",
    "train",
    "config_as_flat_mapping",
    "config_from_flat_mapping",
    "write_run_artifact",
]

# The purpose tag of every stream of a run, the key word after the seed. The
# audit's tags repeat training's, so those streams collide (see the README).
_PURPOSES = {"data": 0, "sampling": 1, "client": 2, "member": 0, "nonmember": 1, "shadow": 2}


def _stream(seed: int, purpose: str, *counters: int) -> np.random.Generator:
    # The key (seed, tag, *counters) is never padded: SeedSequence reads a
    # missing trailing word as 0 only while the key fits its 4-word pool, so
    # (s, t) and (s, t, 0) share one stream, and a seed >= 2**32 takes two words.
    key = (seed, _PURPOSES[purpose], *counters)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


@dataclass(frozen=True)
class FlRunConfig:
    """Hyperparameters of one federated run and of its audit; k=None disables quantization.

    The task is a two-Gaussian mixture: class means sit at +-margin/2 along
    the first feature axis with unit isotropic covariance, so the Bayes
    accuracy is Phi(margin/2). ``m_shadows`` and ``audit_size`` size the
    membership-inference audit of ``lira``; training does not read them, and
    the audit has no seed of its own.
    """

    n_clients_total: int
    n_sampled: int
    rounds: int
    local_steps: int
    learning_rate: float
    batch_size: int
    c_q: float
    sigma: float
    k: int | None
    seed: int
    dimension: int = 20
    samples_per_client: int = 8
    margin: float = 1.5
    test_samples: int = 2000
    m_shadows: int = 16
    audit_size: int = 64

    def __post_init__(self):
        # int fields are counts: 4.5 would pass a range check, then fail in training
        hints = typing.get_type_hints(FlRunConfig)
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if hints[f.name] is int and not isinstance(value, (int, np.integer)):
                raise ValueError(f"{f.name} must be an integer, got {value!r}")
        if not 1 <= self.n_sampled <= self.n_clients_total:
            raise ValueError(
                f"need 1 <= n_sampled <= n_clients_total, got "
                f"{self.n_sampled} of {self.n_clients_total}"
            )
        for name in ("rounds", "local_steps", "batch_size", "dimension", "samples_per_client",
                     "test_samples"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0 <= self.learning_rate < math.inf:
            raise ValueError(
                f"learning_rate must be finite and nonnegative, got {self.learning_rate}"
            )
        if not 0 < self.c_q < math.inf:
            raise ValueError(f"c_q must be finite and positive, got {self.c_q}")
        if not 0 <= self.sigma < math.inf:
            raise ValueError(f"sigma must be finite and nonnegative, got {self.sigma}")
        # QuantizerSpec owns the lattice rules: an integer k >= 2, in float range
        if self.k is not None:
            QuantizerSpec(self.k, self.c_q)
        if self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed}")
        if not 0 <= self.margin < math.inf:
            raise ValueError(f"margin must be finite and nonnegative, got {self.margin}")
        if self.m_shadows < 2:
            raise ValueError(
                f"need at least 2 shadow models to fit a variance, got {self.m_shadows}"
            )
        if self.audit_size < 2 or self.audit_size % 2 != 0:
            raise ValueError(f"audit_size must be even and >= 2, got {self.audit_size}")


@dataclass(frozen=True)
class RunResult:
    """Outcome of a training run: final weights (bias last) plus per-round test metrics."""

    config: FlRunConfig
    weights: np.ndarray
    metrics: list[tuple[int, float, float]]  # (round, test_accuracy, test_loss)


def sample_mixture(rng: np.random.Generator, n: int, config: FlRunConfig):
    """Draw n labelled points from the run's two-Gaussian mixture."""
    y = rng.integers(0, 2, size=n).astype(float)
    x = rng.standard_normal((n, config.dimension))
    x[:, 0] += (2.0 * y - 1.0) * (config.margin / 2.0)
    return x, y


def make_task_data(config: FlRunConfig):
    """Client shards, stacked as (N, s, d) features and (N, s) labels, and the test set.

    Deterministic in the run seed: shard i is the i-th ``sample_mixture`` draw
    of the data stream, and the test set the draw after the last shard.
    """
    rng = _stream(config.seed, "data")
    shards = [
        sample_mixture(rng, config.samples_per_client, config)
        for _ in range(config.n_clients_total)
    ]
    test = sample_mixture(rng, config.test_samples, config)
    return (np.stack([x for x, _ in shards]), np.stack([y for _, y in shards])), test


def _logits(weights: np.ndarray, x: np.ndarray) -> np.ndarray:
    # weights (..., d+1) against x (..., n, d), one model per leading index
    return (x @ weights[..., :-1, None])[..., 0] + weights[..., -1:]


def _gradient(weights, x, y):
    # weights (m, d+1), x (m, b, d), y (m, b)
    residual = special.expit(_logits(weights, x)) - y
    grad = (x.transpose(0, 2, 1) @ residual[..., None])[..., 0]
    return np.concatenate([grad, residual.sum(axis=-1, keepdims=True)], axis=-1) / y.shape[-1]


def cross_entropy_losses(weights: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-sample sigmoid cross-entropy, the loss minimized during training."""
    z = _logits(weights, x)
    return np.logaddexp(0.0, z) - y * z


def evaluate(weights: np.ndarray, x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """(accuracy, mean loss) of a weight vector on a labelled set."""
    correct = (_logits(weights, x) > 0.0) == (y > 0.5)
    return float(np.mean(correct)), float(np.mean(cross_entropy_losses(weights, x, y)))


# The largest batch whose replay beats numpy's per-step ``choice``. The
# replay's loops run over batch positions, and it lost to the calls between
# b = 40 and b = 64 (n = 4b, 10 steps of 16 or 100 models, 2-core x86-64).
_REPLAY_MAX_BATCH = 32


def _batch_indices(rngs: list[np.random.Generator], n: int, batch_size: int, steps: int):
    """``steps`` draws of ``rng.choice(n, size=batch_size, replace=False)`` from
    each generator, as one (m, steps, batch_size) int64 block.

    Equal to the per-step calls, and leaves each generator in the same state,
    for 1 <= batch_size < n <= 2**32, the range the tests pin. Above
    ``_REPLAY_MAX_BATCH`` it makes those calls. Up to it, one ``rng.integers``
    call per model draws ``choice``'s bounded integers (Floyd's bounds n-b+1,
    ..., n, then the shuffle's b, ..., 2), and only Floyd's substitution and
    the swaps are replayed, over all models and steps at once.
    """
    b = batch_size
    if not 1 <= b < n <= 2**32:
        raise ValueError(f"need 1 <= batch_size < n <= 2**32, got batch {b} of {n}")
    if b > _REPLAY_MAX_BATCH:
        per_step = [[rng.choice(n, size=b, replace=False) for _ in range(steps)] for rng in rngs]
        return np.array(per_step, dtype=np.int64)
    bounds = np.tile(np.r_[n - b + 1:n + 1, b:1:-1], steps)
    draws = np.stack([rng.integers(0, bounds) for rng in rngs]).reshape(-1, 2 * b - 1)
    # Floyd: draw t, in [0, n-b+t], is picked unless its row has it; then n-b+t is
    data = draws[:, :b].copy()
    for t in range(1, b):
        data[(data[:, :t] == data[:, t:t + 1]).any(axis=1), t] = n - b + t
    rows = np.arange(len(data))
    for i, j in zip(range(b - 1, 0, -1), draws[:, b:].T):  # one swap position of every row at once
        data[rows, i], data[rows, j] = data[rows, j], data[rows, i]
    return data.reshape(len(rngs), steps, b)


def sgd(
    weights: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    steps: int,
    learning_rate: float,
    batch_size: int,
    rngs: list[np.random.Generator],
) -> np.ndarray:
    """Mini-batch SGD on the logistic loss for m models at once; returns their new weights.

    ``weights`` is (m, d+1), ``x`` is (m, n, d) and ``y`` is (m, n): model j
    trains on ``x[j]``, ``y[j]`` and draws from ``rngs[j]``. Before the first
    step it draws its (steps, batch_size) indices with ``_batch_indices``:
    the draws, and the generator state after them, of a ``rng.choice(n,
    size=batch_size, replace=False)`` per step, in blocks of ~2**18 indices.
    When the batch covers the set, every step takes it whole and nothing is
    drawn. Model j's result equals that of a one-model call on its own rows,
    bit for bit. Clients train from the global weights and shadow models
    from zeros. ``weights`` is not modified.
    """
    m, n = np.shape(y)
    if n == 0:
        raise ValueError("cannot fit on an empty dataset")
    if len(rngs) != m:
        raise ValueError(f"need one generator per model: {len(rngs)} for {m} models")
    # C order gives each model's row the layout, and so the matmuls the
    # summation order, of a one-model call
    weights = np.array(weights, dtype=float, order="C")
    if batch_size < n:
        rows = np.arange(m)[:, None]
        # blocks of ~2**18 indices bound the memory of a long run's draw
        block = max(1, 2**18 // max(1, m * batch_size))
        steps_idx = itertools.chain.from_iterable(
            _batch_indices(rngs, n, batch_size, min(block, steps - s)).transpose(1, 0, 2)
            for s in range(0, steps, block)
        )
        batches = ((x[rows, idx], y[rows, idx]) for idx in steps_idx)
    else:
        batches = itertools.repeat((x, y), steps)
    for bx, by in batches:
        weights -= learning_rate * _gradient(weights, bx, by)
    return weights


def privatize_delta(
    deltas: np.ndarray, config: FlRunConfig, rngs: list[np.random.Generator]
) -> np.ndarray:
    """Release each row of ``deltas``: clip to c_q/2, add N(0, sigma^2) per coordinate, quantize.

    With sigma = 0 the noise stage is the identity; with k = None the
    quantizer stage is. ``deltas`` is a nonempty (m, d+1) stack and row j
    draws from ``rngs[j]``: its d + 1 noise values, then its d + 1 rounding
    uniforms, so the stream layout is fixed. After the clip every stage is
    elementwise (noise, then ``quantize``'s clamp and rounding), so each
    coordinate is released by the mechanism whose level pmf the accountant
    computes.
    """
    if np.ndim(deltas) != 2 or not 0 < len(deltas) == len(rngs):
        raise ValueError(f"need one generator per row: {len(rngs)} for {np.shape(deltas)} deltas")
    h = clip_vector(deltas, config.c_q / 2.0)
    width = h.shape[-1]
    if config.sigma > 0:
        h = h + config.sigma * np.stack([rng.standard_normal(width) for rng in rngs])
    if config.k is not None:
        uniforms = np.stack([rng.random(width) for rng in rngs])
        h = quantize(h, QuantizerSpec(k=config.k, c_q=config.c_q), uniforms)
    return h


def aggregate(weights: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """Add the mean of the (m, d+1) stack of deltas.

    That is FedAvg's |D_i|/|D| weighting, as every shard has one size.
    """
    if len(deltas) == 0:
        raise ValueError("no client updates to aggregate")
    return weights + np.mean(deltas, axis=0)


def train(config: FlRunConfig, task=None) -> RunResult:
    """Run the full federated loop and log test metrics each round.

    ``task`` must be ``make_task_data(config)``, drawn here when not given, so
    that the config reproduces the run. Non-finite weights abort it, naming the
    round and, when local training diverged, the lowest sampled client that did.
    """
    (shard_x, shard_y), (test_x, test_y) = make_task_data(config) if task is None else task
    weights = np.zeros(config.dimension + 1)
    metrics: list[tuple[int, float, float]] = []
    for t in range(config.rounds):
        sampling_rng = _stream(config.seed, "sampling", t)
        sampled = np.sort(
            sampling_rng.choice(config.n_clients_total, size=config.n_sampled, replace=False)
        )
        rngs = [_stream(config.seed, "client", t, int(i)) for i in sampled]
        start = np.broadcast_to(weights, (len(sampled), len(weights)))
        local = sgd(
            start, shard_x[sampled], shard_y[sampled], config.local_steps,
            config.learning_rate, config.batch_size, rngs,
        )
        diverged = ~np.isfinite(local).all(axis=1)
        if diverged.any():
            raise RuntimeError(
                f"training diverged: client {sampled[np.argmax(diverged)]} produced "
                f"non-finite weights in round {t + 1}"
            )
        weights = aggregate(weights, privatize_delta(local - weights, config, rngs))
        if not np.all(np.isfinite(weights)):
            raise RuntimeError(f"training diverged: non-finite weights after round {t + 1}")
        accuracy, loss = evaluate(weights, test_x, test_y)
        metrics.append((t + 1, accuracy, loss))
    return RunResult(config=config, weights=weights, metrics=metrics)


def config_as_flat_mapping(config) -> dict[str, str]:
    """Flatten a config dataclass to the ``key = value`` schema of config files.

    Keys are the field names in declaration order. None is written as
    ``none``; ``config_from_flat_mapping`` inverts this.
    """
    flat = {}
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        flat[f.name] = "none" if value is None else str(value)
    return flat


def _parse_value(key: str, text: str, hint):
    options = typing.get_args(hint)
    if type(None) in options:
        if text.lower() == "none":
            return None
        (hint,) = (t for t in options if t is not type(None))
    try:
        return hint(text)
    except ValueError as exc:
        raise ValueError(f"config key {key!r}: cannot parse {text!r} as {hint.__name__}") from exc


def config_from_flat_mapping(mapping: dict[str, str]) -> FlRunConfig:
    """Build a ``FlRunConfig`` from the schema of ``config_as_flat_mapping``.

    Values are parsed by each field's annotation; ``none`` (any case) gives
    None where a field admits it. A key that is not a field is an error, and
    a field without a default must be present. Errors name the offending key.
    """
    hints = typing.get_type_hints(FlRunConfig)
    for key in mapping:
        if key not in hints:
            raise ValueError(f"unknown config key {key!r}")
    values = {}
    for f in dataclasses.fields(FlRunConfig):
        if f.name in mapping:
            values[f.name] = _parse_value(f.name, mapping[f.name], hints[f.name])
        elif f.default is dataclasses.MISSING:
            raise ValueError(f"missing config key {f.name!r}")
    return FlRunConfig(**values)


def write_run_artifact(result: RunResult, out_dir: Path | str) -> None:
    """Write the run directory: config, metrics.csv, model.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = [f"{key} = {value}" for key, value in config_as_flat_mapping(result.config).items()]
    (out / "config").write_text("\n".join(lines) + "\n")
    with open(out / "metrics.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["round", "test_accuracy", "test_loss"])
        for row in result.metrics:
            writer.writerow([row[0], repr(row[1]), repr(row[2])])
    payload = {"round": result.config.rounds, "weights": list(result.weights)}
    (out / "model.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
