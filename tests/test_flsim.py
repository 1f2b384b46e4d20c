from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from qdp import flsim
from qdp.cli import parse_config
from qdp.flsim import (
    FlRunConfig,
    aggregate,
    config_from_flat_mapping,
    evaluate,
    make_task_data,
    privatize_delta,
    sample_mixture,
    sgd,
    train,
    write_run_artifact,
)
from qdp.pmf import MechanismSpec, NoiseSpec, quantized_gaussian_pmf
from qdp.quantizer import QuantizerSpec, clip_vector, quantize

from oracles import choice_sgd

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def philox(*key):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


def stream_state(rng):
    """A Philox generator's whole state, half-word buffer included, as plain values."""
    state = rng.bit_generator.state
    return (
        state["state"]["counter"].tolist(), state["state"]["key"].tolist(),
        state["buffer"].tolist(), state["buffer_pos"], state["has_uint32"], state["uinteger"],
    )


def release(delta, config, rng):
    """privatize_delta on one client's update, with a leading axis of 1."""
    return privatize_delta(delta[None], config, [rng])[0]


def make_config(**overrides):
    defaults = dict(
        n_clients_total=4,
        n_sampled=4,
        rounds=5,
        local_steps=5,
        learning_rate=0.5,
        batch_size=8,
        c_q=1.0,
        sigma=0.0,
        k=None,
        seed=0,
        dimension=5,
        samples_per_client=8,
        margin=2.0,
        test_samples=500,
    )
    defaults.update(overrides)
    return FlRunConfig(**defaults)


class TestConfigValidation:
    def test_sampling_bounds(self):
        with pytest.raises(ValueError, match="n_sampled"):
            make_config(n_sampled=5)
        with pytest.raises(ValueError, match="n_sampled"):
            make_config(n_sampled=0)

    def test_quantizer_level(self):
        with pytest.raises(ValueError, match="k must be"):
            make_config(k=1)

    def test_quantizer_level_must_be_an_integer(self):
        # the lattice of k = 2.5 has its top level above c_q; no run may train on it
        with pytest.raises(ValueError, match="integer k"):
            make_config(k=2.5)

    @given(
        st.integers(-3, 2**70) | st.integers(-2**63, 2**63 - 1).map(np.int64) | st.floats(),
        st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    )
    def test_quantizer_level_is_the_lattice_rule(self, k, c_q):
        # the config states no lattice rule of its own: it rejects a level
        # exactly when QuantizerSpec does, with QuantizerSpec's message
        try:
            QuantizerSpec(k, c_q)
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                make_config(k=k, c_q=c_q)
            assert str(info.value) == str(exc)
        else:
            assert make_config(k=k, c_q=c_q).k == k

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["sigma", "learning_rate", "c_q"])
    def test_rejects_nonfinite_real(self, name, value):
        # a NaN sigma would fail `sigma > 0` in privatize_delta and skip the noise
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            make_config(**{name: value})

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_nonfinite_margin(self, value):
        with pytest.raises(ValueError, match="margin must be finite"):
            make_config(margin=value)

    def test_rejects_empty_shards(self):
        with pytest.raises(ValueError, match="samples_per_client"):
            make_config(samples_per_client=0)

    @pytest.mark.parametrize(
        "name, value",
        [("test_samples", 0), ("seed", -1),
         # non-integer counts pass the range checks and would fail in train
         ("batch_size", 4.5), ("rounds", 2.0), ("local_steps", 1.5), ("seed", 0.5),
         ("n_sampled", 2.5), ("dimension", "5")],
    )
    def test_message_names_bad_value(self, name, value):
        with pytest.raises(ValueError, match=rf"^{name} must .*, got {value!r}$"):
            make_config(**{name: value})

    def test_accepts_numpy_integer_counts(self):
        config = make_config(batch_size=np.int64(4), rounds=np.int32(2), seed=np.uint8(3))
        assert train(config).metrics == train(make_config(batch_size=4, rounds=2, seed=3)).metrics


class TestTaskData:
    def test_shapes_and_determinism(self):
        config = make_config()
        (xs, ys), (test_x, test_y) = make_task_data(config)
        assert xs.shape == (4, 8, 5)
        assert ys.shape == (4, 8)
        assert test_x.shape == (500, 5)
        (xs2, _), _ = make_task_data(config)
        np.testing.assert_array_equal(xs, xs2)

    def test_stacked_shards_are_the_per_shard_draws(self):
        # shard i is the i-th mixture draw of the data stream, the test set the next
        config = make_config()
        (xs, ys), (test_x, test_y) = make_task_data(config)
        rng = flsim._stream(config.seed, "data")
        for i in range(config.n_clients_total):
            x, y = sample_mixture(rng, config.samples_per_client, config)
            np.testing.assert_array_equal(xs[i], x)
            np.testing.assert_array_equal(ys[i], y)
        x, y = sample_mixture(rng, config.test_samples, config)
        np.testing.assert_array_equal(test_x, x)
        np.testing.assert_array_equal(test_y, y)

    def test_margin_separates_class_means(self):
        x, y = sample_mixture(philox(1), 20_000, make_config(dimension=3, margin=3.0))
        gap = x[y == 1, 0].mean() - x[y == 0, 0].mean()
        assert gap == pytest.approx(3.0, abs=0.1)


# generator keys, and how many uint32 words each stream spends first: an odd
# count leaves half of a Philox word buffered for the next draw
stream_keys = st.tuples(
    st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3), st.integers(0, 3)
)


def keyed_streams(key, spent, m):
    rngs = [philox(*key, j) for j in range(m)]
    for rng in rngs:
        rng.integers(0, 2**32, size=spent, dtype=np.uint32)
    return rngs


class TestBatchIndices:
    """``_batch_indices`` is numpy's ``choice`` without replacement in one block.

    Up to batch 32 it replays numpy's Floyd selection over every model and
    step at once; above it, it makes the per-step calls. Both sides must
    equal the per-step calls, draws and generator states alike.
    """

    @pytest.mark.parametrize(
        "n, batch_size",
        [(8, 4), (64, 16), (5, 4), (2, 1), (9000, 1), (2**32, 1), (2**32, 32), (33, 32),
         (64, 32), (100, 33), (10001, 200), (10001, 201), (20000, 500)],
        ids=["paper", "floyd-64", "floyd-5", "n2-b1", "n9000-b1", "n2pow32-b1", "n2pow32-b32",
             "replay-at-cutoff-33", "replay-at-cutoff-64", "choice-past-cutoff",
             "floyd-at-tail-boundary", "tail-past-boundary", "tail"],
    )
    @given(stream_keys, st.integers(1, 3), st.integers(1, 3))
    @settings(max_examples=15, deadline=None)
    def test_equals_per_step_choice(self, n, batch_size, keys, m, steps):
        # batch 32 is the replay's largest and batch 33 the calls' smallest;
        # at n = 2**32 Floyd's first bound is numpy's raw-word case, among
        # bounds it maps by Lemire's method;
        # numpy's tail shuffle of arange(n), where n > 10000 and batch_size >
        # n // 50 (10001 // 50 = 200), lies on the calls' side; a numpy whose
        # choice draws differently fails here
        key, spent = keys
        block_rngs, choice_rngs = keyed_streams(key, spent, m), keyed_streams(key, spent, m)
        block = flsim._batch_indices(block_rngs, n, batch_size, steps)
        per_step = [
            [rng.choice(n, size=batch_size, replace=False) for _ in range(steps)]
            for rng in choice_rngs
        ]
        assert block.dtype == np.int64 and block.shape == (m, steps, batch_size)
        np.testing.assert_array_equal(block, per_step)
        for a, b in zip(block_rngs, choice_rngs):
            assert stream_state(a) == stream_state(b)
            assert a.standard_normal() == b.standard_normal()

    @pytest.mark.parametrize("batch_size", [4, 32])
    @given(stream_keys, st.integers(1, 3), st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_equals_per_step_choice_under_lemire_rejection(self, batch_size, keys, m, steps):
        # at n = 2**31 + 1 Lemire's map rejects about half of the words drawn
        # for the largest bounds, and each rejected word is replaced
        key, spent = keys
        n = 2**31 + 1
        block_rngs, choice_rngs = keyed_streams(key, spent, m), keyed_streams(key, spent, m)
        block = flsim._batch_indices(block_rngs, n, batch_size, steps)
        for rows, a, b in zip(block, block_rngs, choice_rngs):
            np.testing.assert_array_equal(
                rows, [b.choice(n, size=batch_size, replace=False) for _ in range(steps)]
            )
            assert stream_state(a) == stream_state(b)
            assert a.standard_normal() == b.standard_normal()

    def test_rejected_words_are_redrawn(self):
        # the rejection path runs: the draw spends more than its 2b - 1 words a step
        rng, words = philox(22), philox(22)
        flsim._batch_indices([rng], 2**31 + 1, 4, 3)
        words.integers(0, 2**32, size=3 * 7, dtype=np.uint32)
        assert stream_state(rng) != stream_state(words)

    @pytest.mark.parametrize("n, batch_size", [(8, 0), (8, 8), (2**32 + 1, 2)])
    def test_rejects_sizes_outside_its_range(self, n, batch_size):
        with pytest.raises(ValueError, match="batch_size < n"):
            flsim._batch_indices([philox(0)], n, batch_size, 2)


class TestLocalUpdate:
    def test_zero_learning_rate_is_identity(self):
        config = make_config(learning_rate=0.0)
        (xs, ys), _ = make_task_data(config)
        out = sgd(
            np.ones((4, 6)), xs, ys, config.local_steps, config.learning_rate,
            config.batch_size, [philox(0, i) for i in range(4)],
        )
        np.testing.assert_array_equal(out, np.ones((4, 6)))

    def test_single_step_matches_hand_gradient(self):
        # one sample (x=2, y=1), weights (0.3, -0.1), lr 0.25: frozen by hand
        out = sgd(
            np.array([[0.3, -0.1]]), np.array([[[2.0]]]), np.array([[1.0]]), 1, 0.25, 1,
            [philox(0)],
        )
        np.testing.assert_allclose(
            out, [[0.4887703343990727, -0.005614832800463654]], atol=1e-12
        )

    def test_leaves_start_weights_unchanged(self):
        start = np.zeros((1, 3))
        x, y = sample_mixture(philox(5), 8, make_config(dimension=2))
        out = sgd(start, x[None], y[None], 3, 0.5, 4, [philox(6)])
        np.testing.assert_array_equal(start, np.zeros((1, 3)))
        assert np.any(out != 0)

    def test_rejects_empty_shard(self):
        with pytest.raises(ValueError, match="empty"):
            sgd(np.zeros((1, 6)), np.zeros((1, 0, 5)), np.zeros((1, 0)), 5, 0.5, 8, [philox(0)])

    def test_needs_one_generator_per_model(self):
        x, y = sample_mixture(philox(5), 16, make_config(dimension=2))
        with pytest.raises(ValueError, match="one generator per model"):
            sgd(np.zeros((2, 3)), x.reshape(2, 8, 2), y.reshape(2, 8), 3, 0.5, 4, [philox(6)])

    @pytest.mark.parametrize(
        "m, n, d, batch_size, steps",
        [(5, 8, 5, 4, 10), (7, 4, 100, 3, 5), (3, 1024, 50, 1024, 20)],
        ids=["minibatch", "client-shape", "fullbatch"],
    )
    def test_batched_equals_one_model_calls(self, m, n, d, batch_size, steps):
        # model j of one batched call is, bit for bit, a one-model call on its rows
        config = make_config(dimension=d)
        pairs = [sample_mixture(philox(7, j), n, config) for j in range(m)]
        xs, ys = np.stack([x for x, _ in pairs]), np.stack([y for _, y in pairs])
        start = philox(8).normal(scale=0.1, size=(m, d + 1))
        batched = sgd(start, xs, ys, steps, 0.5, batch_size, [philox(9, j) for j in range(m)])
        for j in range(m):
            alone = sgd(start[j:j + 1], xs[j:j + 1], ys[j:j + 1], steps, 0.5, batch_size,
                        [philox(9, j)])
            np.testing.assert_array_equal(batched[j], alone[0])

    @pytest.mark.parametrize("batch_size", [8, 9, 10**9])
    def test_full_batch_draws_nothing(self, batch_size):
        # shadow fits, and the noise that follows a client's batches, rely on it
        x, y = sample_mixture(philox(5), 16, make_config(dimension=2))
        rngs = [philox(6, j) for j in range(2)]
        before = [stream_state(rng) for rng in rngs]
        sgd(np.zeros((2, 3)), x.reshape(2, 8, 2), y.reshape(2, 8), 3, 0.5, batch_size, rngs)
        assert [stream_state(rng) for rng in rngs] == before

    def test_long_run_draws_in_blocks_equal_to_per_step_choice(self):
        # 300 steps of 1024 indices pass the ~2**18 block size, so the draw is split
        x, y = sample_mixture(philox(5), 2048, make_config(dimension=1))
        rng, oracle_rng = philox(6), philox(6)
        out = sgd(np.zeros((1, 2)), x[None], y[None], 300, 0.5, 1024, [rng])
        want = choice_sgd(np.zeros((1, 2)), x[None], y[None], 300, 0.5, 1024, [oracle_rng])
        assert out.tobytes() == want.tobytes()
        assert stream_state(rng) == stream_state(oracle_rng)

    def test_converges_on_separable_task(self):
        # reference: an independent full-batch gradient-descent loop
        x, y = sample_mixture(philox(3), 40, make_config(dimension=2, margin=4.0))
        (out,) = sgd(np.zeros((1, 3)), x[None], y[None], 200, 0.5, 40, [philox(4)])

        w_ref = np.zeros(3)
        for _ in range(200):
            residual = expit(x @ w_ref[:-1] + w_ref[-1]) - y
            w_ref -= 0.5 * np.concatenate([x.T @ residual, [residual.sum()]]) / len(y)
        np.testing.assert_allclose(out, w_ref, atol=1e-12)
        accuracy, _ = evaluate(out, x, y)
        assert accuracy >= 0.99


class TestPrivatizeDelta:
    def test_all_stages_identity(self):
        config = make_config(sigma=0.0, k=None)
        delta = np.array([0.1, -0.2, 0.05, 0.0, 0.0, 0.0])
        update = release(delta, config, philox(0))
        np.testing.assert_array_equal(update, delta)

    def test_zero_delta_two_levels_symmetric(self):
        config = make_config(sigma=0.0, k=2, c_q=1.0)
        rng = philox(1)
        out = privatize_delta(np.zeros((20_000, 6)), config, [rng] * 20_000)
        assert set(np.unique(out)) == {-1.0, 1.0}
        # each coordinate is +-1 with equal probability, so the mean drifts to 0
        assert abs(out.mean()) < 4 * np.sqrt(1.0 / out.size)

    def test_coordinates_stay_on_lattice_range(self):
        config = make_config(sigma=0.5, k=16, c_q=1.0)
        rng = philox(2)
        for _ in range(50):
            delta = rng.normal(size=6)
            update = release(delta, config, rng)
            assert np.all(np.abs(update) <= 1.0)

    def test_scalar_pipeline_matches_analytic_pmf(self):
        spec = QuantizerSpec(k=16, c_q=1.0)
        config = make_config(sigma=0.5, k=16, c_q=1.0)
        # draw-by-draw, the operation is exactly clip -> noise -> quantize on
        # one stream; pin that so the bulk sampling below speaks for it
        for s in range(20):
            via_op = release(np.array([0.3]), config, philox(30, s))
            rng = philox(30, s)
            noisy = clip_vector(np.array([0.3]), 0.5) + 0.5 * rng.standard_normal(1)
            np.testing.assert_array_equal(via_op, quantize(noisy, spec, rng.random(1)))
        # the same stages in bulk give 1e6 independent mechanism draws
        n = 1_000_000
        rng = philox(3)
        noisy = 0.3 + 0.5 * rng.standard_normal(n)
        rounded = quantize(noisy, spec, rng.random(n))
        probs = np.exp(quantized_gaussian_pmf(0.3, MechanismSpec(NoiseSpec(0.5), spec)))
        counts = np.array([(rounded == lv).sum() for lv in spec.levels()]) / n
        se = np.sqrt(probs * (1 - probs) / n)
        assert np.all(np.abs(counts - probs) < 4 * se + 1e-9)

    def test_release_matches_analytic_pmf_per_coordinate(self):
        # at d = 20, sigma = 0.5 the noisy update almost always leaves the L2
        # ball of radius c_q; each coordinate must still follow the scalar pmf
        spec = QuantizerSpec(k=16, c_q=1.0)
        config = make_config(sigma=0.5, k=16, c_q=1.0, dimension=20)
        delta = np.zeros(21)
        delta[0], delta[-1] = 0.3, -0.2
        rng = philox(5)
        out = privatize_delta(np.tile(delta, (20_000, 1)), config, [rng] * 20_000)
        for x in (0.3, 0.0, -0.2):
            pooled = out[:, delta == x]
            probs = np.exp(quantized_gaussian_pmf(x, MechanismSpec(NoiseSpec(0.5), spec)))
            counts = np.array([(pooled == lv).sum() for lv in spec.levels()]) / pooled.size
            se = np.sqrt(probs * (1 - probs) / pooled.size)
            assert np.all(np.abs(counts - probs) < 4 * se + 1e-9), x

    def test_pipeline_unbiased_inside_clip_ball(self):
        # sigma small relative to c_q so neither clip binds in practice
        config = make_config(sigma=0.25, k=32, c_q=4.0)
        delta = np.array([0.8, -1.1, 0.3, 0.0, 1.2, -0.4])
        n = 100_000
        out = privatize_delta(np.broadcast_to(delta, (n, 6)), config, [philox(4)] * n)
        se = np.sqrt(out.var(axis=0) / n)
        assert np.all(np.abs(out.mean(axis=0) - delta) < 4 * se)

    @pytest.mark.parametrize("n_rngs", [1, 3, 0])
    def test_needs_one_generator_per_row(self, n_rngs):
        # one generator shared by five rows would give them all the same noise
        config = make_config(sigma=0.3, k=None)
        message = rf"one generator per row: {n_rngs} for \(5, 6\) deltas"
        with pytest.raises(ValueError, match=message):
            privatize_delta(np.zeros((5, 6)), config, [philox(6, j) for j in range(n_rngs)])

    @pytest.mark.parametrize("shape", [(6,), (0, 6), (2, 3, 6)])
    def test_needs_a_nonempty_stack_of_rows(self, shape):
        config = make_config(sigma=0.3, k=16)
        with pytest.raises(ValueError, match="one generator per row"):
            privatize_delta(np.zeros(shape), config, [philox(7)] * (shape[0] or 1))


class TestAggregate:
    def test_equal_coefficients(self):
        out = aggregate(np.zeros(2), np.array([[1.0, 1.0], [3.0, 3.0]]))
        np.testing.assert_allclose(out, [2.0, 2.0])

    def test_single_client_adds_delta(self):
        out = aggregate(np.array([1.0, 2.0]), np.array([[0.5, -0.5]]))
        np.testing.assert_allclose(out, [1.5, 1.5])

    def test_empty_updates_rejected(self):
        with pytest.raises(ValueError, match="no client updates"):
            aggregate(np.zeros(1), np.zeros((0, 1)))


class TestTrain:
    def test_smoke_reaches_high_accuracy(self):
        config = make_config(
            n_clients_total=8,
            n_sampled=8,
            rounds=30,
            local_steps=10,
            batch_size=8,
            dimension=20,
            margin=5.0,
            test_samples=2000,
        )
        result = train(config)
        assert result.metrics[-1][1] >= 0.95
        assert len(result.metrics) == 30

    def test_single_client_equals_centralized_gd(self):
        config = make_config(
            n_clients_total=1,
            n_sampled=1,
            rounds=4,
            local_steps=3,
            learning_rate=0.3,
            batch_size=10**9,
            c_q=1e9,
            dimension=3,
            samples_per_client=12,
            test_samples=2000,
        )
        result = train(config)
        (xs, ys), _ = make_task_data(config)
        x, y = xs[0], ys[0]
        w = np.zeros(4)
        for _ in range(12):
            residual = expit(x @ w[:-1] + w[-1]) - y
            w -= 0.3 * np.concatenate([x.T @ residual, [residual.sum()]]) / len(y)
        np.testing.assert_allclose(result.weights, w, atol=1e-9)

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(n_clients_total=4, n_sampled=2, c_q=1e9),
            dict(n_clients_total=6, n_sampled=4, sigma=0.3, k=16),
            dict(n_clients_total=6, n_sampled=4, c_q=0.1, dimension=50),
        ],
        ids=["unquantized", "quantized", "clipped"],
    )
    def test_round_update_is_mean_over_sampled_clients(self, overrides):
        # the update divides by n, not by N; each client's release is one sgd
        # call then one privatize_delta call on its own stream, made alone,
        # which pins the stream layout: batch indices, noise, then uniforms
        config = make_config(rounds=1, batch_size=3, **overrides)
        result = train(config)
        (xs, ys), _ = make_task_data(config)
        sampling_rng = flsim._stream(config.seed, "sampling", 0)
        sampled = np.sort(
            sampling_rng.choice(config.n_clients_total, size=config.n_sampled, replace=False)
        )
        start = np.zeros((1, config.dimension + 1))
        releases = []
        for i in sampled:
            rng = flsim._stream(config.seed, "client", 0, int(i))
            local = sgd(
                start, xs[i:i + 1], ys[i:i + 1], config.local_steps, config.learning_rate,
                config.batch_size, [rng],
            )
            releases.append(privatize_delta(local - start, config, [rng])[0])
        np.testing.assert_array_equal(result.weights, start[0] + np.mean(releases, axis=0))

    @pytest.mark.parametrize(
        "config",
        [
            config_from_flat_mapping(parse_config(CONFIGS / "fl_smoke.conf")),
            config_from_flat_mapping(parse_config(CONFIGS / "mia_base.conf")),
            # fl_paper's shape (d = 100, batch 4 of 8, k = 16), fewer clients and rounds
            make_config(n_clients_total=12, n_sampled=6, rounds=4, local_steps=10,
                        batch_size=4, sigma=0.05, k=16, seed=3, dimension=100),
            # mia_sweep's target shape (batch 16 of 64)
            make_config(n_clients_total=4, n_sampled=4, rounds=3, local_steps=10,
                        batch_size=16, sigma=0.02, k=4, seed=5, dimension=50,
                        samples_per_client=64),
            # batch 64 of 256, past the replay's cutoff
            make_config(n_clients_total=4, n_sampled=3, rounds=2, local_steps=10,
                        batch_size=64, sigma=0.02, k=16, seed=6, dimension=20,
                        samples_per_client=256),
        ],
        ids=["fl_smoke", "mia_base", "fl_paper-shape", "mia-target-shape", "batch-64-of-256"],
    )
    def test_equals_per_step_choice_oracle(self, config, monkeypatch):
        # the one-block index draw keeps every byte of the per-step rng.choice
        # loop, on both sides of the replay's cutoff
        result = train(config)
        monkeypatch.setattr(flsim, "sgd", choice_sgd)
        oracle = train(config)
        assert result.weights.tobytes() == oracle.weights.tobytes()
        assert result.metrics == oracle.metrics

    def test_identical_seed_identical_metrics(self):
        config = make_config(sigma=0.1, k=8, seed=42)
        assert train(config).metrics == train(config).metrics

    def test_given_task_equals_drawn_task(self):
        config = make_config(n_clients_total=8, n_sampled=3, sigma=0.1, k=8, seed=7)
        drawn, given = train(config), train(config, make_task_data(config))
        assert given.weights.tobytes() == drawn.weights.tobytes()
        assert given.metrics == drawn.metrics

    def test_subsampling_changes_participants(self):
        config = make_config(n_clients_total=8, n_sampled=2, rounds=6, seed=3)
        result = train(config)
        assert len(result.metrics) == 6
        assert np.all(np.isfinite(result.weights))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_names_lowest_diverged_client(self):
        # clients 0, 1 and 2 are sampled; 0 stays finite, so the message names 1
        config = make_config(learning_rate=1.7e308, local_steps=50, n_sampled=3, batch_size=4)
        with pytest.raises(RuntimeError) as info:
            train(config)
        assert str(info.value) == (
            "training diverged: client 1 produced non-finite weights in round 1"
        )

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_with_round_number(self):
        # a noise scale near the float ceiling overflows the perturbed deltas
        config = make_config(sigma=1e308, rounds=3)
        with pytest.raises(RuntimeError, match="round 1"):
            train(config)


class TestRunArtifact:
    def test_directory_contents_and_reproducibility(self, tmp_path):
        config = make_config(sigma=0.1, k=4, seed=11)
        result = train(config)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        write_run_artifact(result, out_a)
        write_run_artifact(train(config), out_b)
        for name in ("config", "metrics.csv", "model.json"):
            assert (out_a / name).exists()
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        lines = (out_a / "metrics.csv").read_text().splitlines()
        assert lines[0] == "round,test_accuracy,test_loss"
        assert len(lines) == 1 + config.rounds

    def test_config_file_round_trips_through_cli_parser(self, tmp_path):
        from qdp.cli import parse_config

        config = make_config(sigma=0.25, k=16, seed=9)
        write_run_artifact(train(config), tmp_path)
        mapping = parse_config(tmp_path / "config")
        assert config_from_flat_mapping(mapping) == config


class TestUtilityTrend:
    @pytest.mark.slow
    def test_coarser_quantization_costs_accuracy(self):
        # trend direction with 0.02 slack, mean over 5 seeds at fixed sigma > 0
        def final_acc(k, seed):
            config = make_config(
                n_clients_total=8,
                n_sampled=8,
                rounds=20,
                local_steps=10,
                sigma=0.02,
                k=k,
                seed=seed,
                dimension=20,
                margin=1.5,
                test_samples=2000,
            )
            return train(config).metrics[-1][1]

        means = {k: np.mean([final_acc(k, s) for s in range(5)]) for k in (4, 16, None)}
        assert means[4] <= means[16] + 0.02
        assert means[16] <= means[None] + 0.02
