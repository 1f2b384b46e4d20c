"""Desk-scale FedAvg simulator with clipped, noised, quantized client updates.

Each round samples n of N clients, runs local SGD on a binary
logistic-regression task, clips the weight delta to c_q/2, perturbs it with
per-coordinate Gaussian noise, stochastically quantizes it onto the
[-c_q, +c_q] lattice, and aggregates with dataset-size coefficients. The
learning task is a synthetic two-Gaussian mixture, which keeps runs in the
sub-second range and the loss distribution well-behaved for the
membership-inference harness.

All randomness flows through counter-based Philox streams keyed by
(seed, purpose, round, client), so runs are reproducible and client work
may be parallelized without changing results.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import logging
import typing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import special

from .quantizer import QuantizerSpec, clip_vector, quantize

__all__ = [
    "SyntheticTaskSpec",
    "FlRunConfig",
    "GlobalModel",
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

logger = logging.getLogger(__name__)

# Stream tags for deriving per-purpose generators from the run seed.
_DATA_STREAM = 0
_SAMPLING_STREAM = 1
_CLIENT_STREAM = 2


def _stream(*key: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


@dataclass(frozen=True)
class SyntheticTaskSpec:
    """Two-Gaussian-mixture binary classification task.

    Class means sit at +-margin/2 along the first feature axis with unit
    isotropic covariance, so the Bayes accuracy is Phi(margin/2).
    """

    dimension: int = 20
    samples_per_client: int = 8
    margin: float = 1.5
    test_samples: int = 2000

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError(f"task dimension must be >= 1, got {self.dimension}")
        if self.samples_per_client < 0:
            raise ValueError("samples_per_client must be nonnegative")
        if not self.margin >= 0:
            raise ValueError(f"class margin must be nonnegative, got {self.margin}")
        if self.test_samples < 1:
            raise ValueError("test_samples must be >= 1")


@dataclass(frozen=True)
class FlRunConfig:
    """Hyperparameters of one federated run; k=None disables quantization."""

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
    task: SyntheticTaskSpec = field(default_factory=SyntheticTaskSpec)

    def __post_init__(self):
        if not 1 <= self.n_sampled <= self.n_clients_total:
            raise ValueError(
                f"need 1 <= n_sampled <= n_clients_total, got "
                f"{self.n_sampled} of {self.n_clients_total}"
            )
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        if self.local_steps < 1:
            raise ValueError(f"local_steps must be >= 1, got {self.local_steps}")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be nonnegative")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not self.c_q > 0:
            raise ValueError(f"c_q must be positive, got {self.c_q}")
        if self.sigma < 0:
            raise ValueError(f"sigma must be nonnegative, got {self.sigma}")
        if self.k is not None and self.k < 2:
            raise ValueError(f"quantization level k must be >= 2 or None, got {self.k}")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")


@dataclass(frozen=True)
class GlobalModel:
    """Linear classifier weights (bias last) at a given round."""

    weights: np.ndarray
    round: int


@dataclass(frozen=True)
class RunResult:
    """Outcome of a training run: final model plus per-round test metrics."""

    config: FlRunConfig
    model: GlobalModel
    metrics: list[tuple[int, float, float]]  # (round, test_accuracy, test_loss)


def sample_mixture(rng: np.random.Generator, n: int, task: SyntheticTaskSpec):
    """Draw n labelled points from the task's two-Gaussian mixture."""
    y = rng.integers(0, 2, size=n).astype(float)
    x = rng.standard_normal((n, task.dimension))
    x[:, 0] += (2.0 * y - 1.0) * (task.margin / 2.0)
    return x, y


def make_task_data(config: FlRunConfig):
    """Client shards and the shared test set, deterministic in the run seed."""
    rng = _stream(config.seed, _DATA_STREAM)
    shards = [
        sample_mixture(rng, config.task.samples_per_client, config.task)
        for _ in range(config.n_clients_total)
    ]
    test = sample_mixture(rng, config.task.test_samples, config.task)
    return shards, test


def _logits(weights: np.ndarray, x: np.ndarray) -> np.ndarray:
    return x @ weights[:-1] + weights[-1]


def _gradient(weights, x, y):
    residual = special.expit(_logits(weights, x)) - y
    return np.concatenate([x.T @ residual, [residual.sum()]]) / len(y)


def cross_entropy_losses(weights: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-sample sigmoid cross-entropy, the loss minimized during training."""
    z = _logits(weights, x)
    return np.logaddexp(0.0, z) - y * z


def evaluate(weights: np.ndarray, x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """(accuracy, mean loss) of a weight vector on a labelled set."""
    correct = (_logits(weights, x) > 0.0) == (y > 0.5)
    return float(np.mean(correct)), float(np.mean(cross_entropy_losses(weights, x, y)))


def sgd(
    weights: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    steps: int,
    learning_rate: float,
    batch_size: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Mini-batch SGD on the logistic loss starting from ``weights``; returns new weights.

    Clients train from the global weights and shadow models from zeros. Each
    step draws ``batch_size`` distinct indices from ``rng``, or takes the whole
    set without drawing when the batch covers it. ``weights`` is not modified.
    """
    n = len(y)
    if n == 0:
        raise ValueError("cannot fit on an empty dataset")
    weights = np.array(weights, dtype=float)
    for _ in range(steps):
        if batch_size < n:
            idx = rng.choice(n, size=batch_size, replace=False)
            bx, by = x[idx], y[idx]
        else:
            bx, by = x, y
        weights -= learning_rate * _gradient(weights, bx, by)
    return weights


def privatize_delta(delta: np.ndarray, config: FlRunConfig, rng: np.random.Generator) -> np.ndarray:
    """Clip to c_q/2, add N(0, sigma^2) per coordinate, quantize onto the lattice.

    With sigma = 0 the noise stage is the identity; with k = None the
    quantizer stage is. Noise is drawn before the quantizer's uniforms so the
    stream layout is fixed.

    The accountant's per-coordinate budgets model a clamp of each noisy
    coordinate to [-c_q, c_q]; ``quantize`` rescales the whole vector onto
    the L2 ball of radius c_q, so they hold here only while that rescale is
    inactive, roughly while sigma * sqrt(d + 1) < 0.87 c_q (it never fired in
    5000 updates at d = 100, sigma = 0.05, nor in 2400 at d = 50, sigma = 0.02).
    """
    h = clip_vector(delta, config.c_q / 2.0)
    if config.sigma > 0:
        h = h + config.sigma * rng.standard_normal(np.shape(h))
    if config.k is not None:
        h = quantize(h, QuantizerSpec(k=config.k, c_q=config.c_q), rng)
    return h


def aggregate(model: GlobalModel, deltas: list[np.ndarray], coeffs) -> GlobalModel:
    """Add the deltas weighted by their coefficients |D_i|/|D|, renormalized over the sampled set."""
    if len(deltas) == 0:
        raise ValueError("no client updates to aggregate")
    coeffs = np.asarray(coeffs, dtype=float)
    total = coeffs.sum()
    if not total > 0:
        raise ValueError("aggregation coefficients must sum to a positive value")
    weights = model.weights + (coeffs / total) @ np.stack(deltas)
    return GlobalModel(weights=weights, round=model.round + 1)


def train(config: FlRunConfig) -> RunResult:
    """Run the full federated loop and log test metrics each round.

    Rounds where every sampled client has an empty shard are skipped with a
    diagnostic but still produce a metrics row. Non-finite weights abort the
    run, naming the round.
    """
    shards, test = make_task_data(config)
    test_x, test_y = test
    sizes = np.array([len(y) for _, y in shards], dtype=float)
    total_size = sizes.sum()
    model = GlobalModel(weights=np.zeros(config.task.dimension + 1), round=0)
    metrics: list[tuple[int, float, float]] = []
    for t in range(config.rounds):
        sampling_rng = _stream(config.seed, _SAMPLING_STREAM, t)
        sampled = np.sort(
            sampling_rng.choice(config.n_clients_total, size=config.n_sampled, replace=False)
        )
        deltas, coeffs = [], []
        for i in sampled:
            if sizes[i] == 0:
                logger.warning("round %d: skipping client %d with empty shard", t + 1, i)
                continue
            client_rng = _stream(config.seed, _CLIENT_STREAM, t, int(i))
            x, y = shards[i]
            local_weights = sgd(
                model.weights, x, y, config.local_steps, config.learning_rate,
                config.batch_size, client_rng,
            )
            if not np.all(np.isfinite(local_weights)):
                raise RuntimeError(
                    f"training diverged: client {i} produced non-finite weights in round {t + 1}"
                )
            deltas.append(privatize_delta(local_weights - model.weights, config, client_rng))
            coeffs.append(sizes[i] / total_size)
        if not deltas:
            logger.warning("round %d: no usable client updates, round skipped", t + 1)
        else:
            model = aggregate(model, deltas, coeffs)
        if not np.all(np.isfinite(model.weights)):
            raise RuntimeError(f"training diverged: non-finite weights after round {t + 1}")
        accuracy, loss = evaluate(model.weights, test_x, test_y)
        metrics.append((t + 1, accuracy, loss))
    return RunResult(config=config, model=model, metrics=metrics)


def config_as_flat_mapping(config) -> dict[str, str]:
    """Flatten a config dataclass to the ``key = value`` schema of config files.

    Keys are the field names in declaration order, with nested dataclass
    fields (a run's ``task``) inlined. None is written as ``none`` and
    booleans as ``true``/``false``; ``config_from_flat_mapping`` inverts this.
    """
    flat = {}
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if dataclasses.is_dataclass(value):
            flat.update(config_as_flat_mapping(value))
        elif value is None:
            flat[f.name] = "none"
        elif isinstance(value, bool):
            flat[f.name] = "true" if value else "false"
        else:
            flat[f.name] = str(value)
    return flat


def _parse_value(key: str, text: str, hint):
    options = typing.get_args(hint)
    if type(None) in options:
        if text.lower() == "none":
            return None
        (hint,) = (t for t in options if t is not type(None))
    try:
        if hint is bool:
            return {"true": True, "false": False}[text.lower()]
        return hint(text)
    except (KeyError, ValueError) as exc:
        raise ValueError(f"config key {key!r}: cannot parse {text!r} as {hint.__name__}") from exc


def config_from_flat_mapping(cls, mapping: dict[str, str]):
    """Build the config dataclass ``cls`` from the schema of ``config_as_flat_mapping``.

    Values are parsed by each field's annotation; ``none`` (any case) gives
    None where a field admits it. Keys that are not fields of ``cls`` are
    left alone, so one file can carry several configs. A field without a
    default must be present. Errors name the offending key.
    """
    hints = typing.get_type_hints(cls)
    values = {}
    for f in dataclasses.fields(cls):
        hint = hints[f.name]
        if dataclasses.is_dataclass(hint):
            values[f.name] = config_from_flat_mapping(hint, mapping)
        elif f.name in mapping:
            values[f.name] = _parse_value(f.name, mapping[f.name], hint)
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ValueError(f"missing config key {f.name!r}")
    return cls(**values)


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
    payload = {"round": result.model.round, "weights": list(result.model.weights)}
    (out / "model.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
