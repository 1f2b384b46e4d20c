import dataclasses
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdp import flsim, lira
from qdp.flsim import (
    FlRunConfig,
    cross_entropy_losses,
    make_task_data,
    sample_mixture,
)
from qdp.lira import (
    SIGMA_FLOOR,
    attack_accuracy,
    audit_run,
    fit_attack,
    fit_out_distribution,
    score,
    write_report,
)

from oracles import threshold_sweep_attack_accuracy


def philox(*key):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


def leak_config(seed, sigma=0.0, k=None, **task):
    # the task settings default to d = 20, 8 samples per client, margin 1.5,
    # and the audit to 16 shadows and 64 audit samples
    return FlRunConfig(
        n_clients_total=8,
        n_sampled=8,
        rounds=20,
        local_steps=10,
        learning_rate=0.5,
        batch_size=8,
        c_q=1.0,
        sigma=sigma,
        k=k,
        seed=seed,
        **task,
    )


class TestAuditSettings:
    def test_rejects_single_shadow(self):
        with pytest.raises(ValueError, match="at least 2 shadow"):
            leak_config(0, m_shadows=1)

    def test_rejects_odd_audit(self):
        with pytest.raises(ValueError, match="even"):
            leak_config(0, audit_size=63)

    @pytest.mark.parametrize("name, value", [("m_shadows", 4.5), ("audit_size", 64.0)])
    def test_rejects_non_integer_count(self, name, value):
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {value!r}$"):
            leak_config(0, **{name: value})

    def test_accepts_numpy_integer_counts(self):
        assert leak_config(0, m_shadows=np.int64(4), audit_size=np.int64(8)).m_shadows == 4


class TestFitOutDistribution:
    def test_population_convention(self):
        # two shadows whose losses on the lone audit sample are 0 and 2:
        # population statistics give mu=1, sigma=1 (not the sqrt(2) of ddof=1)
        x = np.array([[2.0]])
        y = np.array([1.0])
        w_zero_loss = np.array([20.0, 0.0])  # z=40: log(1+e^-40) underflows to 0
        w_two_loss = np.array([0.0, -math.log(math.expm1(2.0))])  # log(1+e^-z) = 2
        mu, sd = fit_out_distribution([w_zero_loss, w_two_loss], x, y)
        assert mu[0] == pytest.approx(1.0, abs=1e-12)
        assert sd[0] == pytest.approx(1.0, abs=1e-12)

    def test_stats_match_independent_recomputation(self):
        rng = philox(0)
        models = [rng.normal(size=6) for _ in range(16)]
        audit_x = rng.normal(size=(10, 5))
        audit_y = (rng.random(10) > 0.5).astype(float)
        mu, sd = fit_out_distribution(models, audit_x, audit_y)
        losses = np.stack([cross_entropy_losses(w, audit_x, audit_y) for w in models])
        assert mu.shape == sd.shape == (10,)
        for i in range(10):
            assert mu[i] == pytest.approx(losses[:, i].mean(), abs=1e-12)
            assert sd[i] == pytest.approx(max(losses[:, i].std(), SIGMA_FLOOR), abs=1e-12)

    def test_identical_losses_hit_floor(self):
        models = [np.zeros(6), np.zeros(6)]  # same weights, same losses
        audit_x = philox(1).normal(size=(4, 5))
        audit_y = np.ones(4)
        _, sd = fit_out_distribution(models, audit_x, audit_y)
        assert np.all(sd == SIGMA_FLOOR)

    def test_rejects_single_model(self):
        with pytest.raises(ValueError, match="at least 2"):
            fit_out_distribution([np.zeros(6)], np.zeros((2, 5)), np.zeros(2))


class TestScore:
    def test_median_loss_scores_half(self):
        assert score(1.3, 1.3, 0.2) == 0.5

    def test_far_below_mean_is_member_like(self):
        assert score(1.0 - 10 * 0.1, 1.0, 0.1) > 0.9999

    def test_two_sigma_tail(self):
        assert score(0.5 + 1.959963985 * 0.25, 0.5, 0.25) == pytest.approx(0.025, abs=1e-6)

    def test_strictly_decreasing_in_loss(self):
        values = score(np.linspace(-3, 3, 41), 0.0, 1.0)
        assert np.all(np.diff(values) < 0)

    def test_elementwise_per_sample_fit(self):
        values = score(np.array([1.0, 2.0]), np.array([1.0, 3.0]), np.array([0.5, 1.0]))
        np.testing.assert_array_equal(values, [score(1.0, 1.0, 0.5), score(2.0, 3.0, 1.0)])

    def test_rejects_degenerate_sigma(self):
        with pytest.raises(ValueError, match="sigma_out"):
            score(1.0, 1.0, 0.0)
        with pytest.raises(ValueError, match="sigma_out"):
            score(np.ones(2), np.ones(2), np.array([1.0, 0.0]))


def balanced_flags(n_per_side):
    return np.arange(2 * n_per_side) < n_per_side


class TestAttackAccuracy:
    def test_perfect_scores(self):
        scores = np.where(balanced_flags(5), 1.0, 0.0)
        accuracy, _ = attack_accuracy(scores, balanced_flags(5))
        assert accuracy == 1.0

    def test_constant_scores_are_chance(self):
        accuracy, _ = attack_accuracy(np.full(10, 0.7), balanced_flags(5))
        assert accuracy == 0.5

    def test_random_scores_near_chance(self):
        # permutation baseline: 500/500 uniform scores, seeded
        rng = philox(2)
        scores = rng.random(1000)
        accuracy, _ = attack_accuracy(scores, balanced_flags(500))
        assert accuracy == pytest.approx(0.5, abs=0.05)

    def test_unbalanced_audit_rejected(self):
        scores = np.arange(10, dtype=float)
        with pytest.raises(ValueError, match="balanced"):
            attack_accuracy(scores, np.arange(10) < 4)

    def test_roc_monotone_from_origin_to_one(self):
        rng = philox(3)
        _, roc = attack_accuracy(rng.random(40), balanced_flags(20))
        assert roc[0] == (0.0, 0.0)
        assert roc[-1] == (1.0, 1.0)
        fprs = [p[0] for p in roc]
        tprs = [p[1] for p in roc]
        assert fprs == sorted(fprs)
        assert tprs == sorted(tprs)

    def test_empty_audit_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            attack_accuracy([], [])

    def test_mismatched_ids_rejected(self):
        with pytest.raises(ValueError, match="same length"):
            attack_accuracy(np.array([0.5]), np.array([True, False]))

    @given(
        st.integers(1, 40).flatmap(
            lambda n: st.tuples(
                st.lists(st.integers(0, 6), min_size=2 * n, max_size=2 * n),
                st.permutations([True] * n + [False] * n),
            )
        ),
        st.floats(1e-3, 1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_threshold_sweep_reference(self, case, scale):
        # few distinct values force ties; the sorted sweep must agree bit for bit
        levels, flags = case
        scores = np.array(levels) * scale
        is_member = np.array(flags)
        assert attack_accuracy(scores, is_member) == threshold_sweep_attack_accuracy(
            scores, is_member
        )


class TestAuditRun:
    def test_deterministic_given_seeds(self):
        report_a = audit_run(leak_config(0))
        report_b = audit_run(leak_config(0))
        assert report_a.accuracy == report_b.accuracy
        assert report_a.scores == report_b.scores

    def test_member_ids_split_train_and_fresh(self):
        config = dataclasses.replace(leak_config(1), audit_size=32)
        report = audit_run(config)
        n_train = config.n_clients_total * config.samples_per_client
        ids = sorted(report.scores)
        members = [i for i in ids if i < n_train]
        nonmembers = [i for i in ids if i >= n_train]
        assert len(members) == len(nonmembers) == 16
        assert set(nonmembers) == set(range(n_train, n_train + 16))

    def test_overfit_baseline_leaks(self):
        report = audit_run(leak_config(0))
        assert report.accuracy > 0.55

    def test_huge_noise_destroys_signal(self):
        # an uninformative model scores at chance; the audit set is large so
        # the max-over-thresholds statistic has little upward bias
        accs = []
        for seed in range(3):
            config = dataclasses.replace(
                leak_config(seed, sigma=10.0, samples_per_client=128),
                rounds=10,
                batch_size=32,
            )
            accs.append(
                audit_run(dataclasses.replace(config, m_shadows=8, audit_size=1000)).accuracy
            )
        assert np.mean(accs) == pytest.approx(0.5, abs=0.05)

    def test_audit_bigger_than_train_rejected(self, monkeypatch):
        def no_training(*args):
            raise AssertionError("a model trained before the audit set was checked")

        monkeypatch.setattr(flsim, "sgd", no_training)
        config = leak_config(0)
        with pytest.raises(ValueError, match="members"):
            audit_run(dataclasses.replace(config, audit_size=1000))

    def test_lattice_out_of_float_range_rejected_before_training(self, monkeypatch):
        fits, sgd = [], flsim.sgd

        def counted(*args):
            fits.append(args)
            return sgd(*args)

        monkeypatch.setattr(flsim, "sgd", counted)
        with pytest.raises(ValueError, match="out of float range"):
            audit_run(dataclasses.replace(leak_config(0, k=3), c_q=1e308))
        assert fits == []

    def test_one_fit_scores_every_mechanism(self):
        # the fit reads the task, the seed and the schedule but not sigma or
        # k; the first target is the fit's own config
        attack = fit_attack(leak_config(5))
        for sigma, k in ((0.0, None), (0.02, 4), (0.5, 16)):
            config = leak_config(5, sigma=sigma, k=k)
            report = attack(flsim.train(config).weights)
            assert report == audit_run(config)

    def test_shadow_shards_exclude_audit_samples(self):
        # the offline guarantee, checked on the samples: rebuild every draw
        # from its stream key and compare feature rows
        config = leak_config(4)
        half = config.audit_size // 2
        (shard_x, _), _ = make_task_data(config)
        train_x = shard_x.reshape(-1, config.dimension)
        n_train = len(train_x)
        member_rng = philox(config.seed, flsim._PURPOSES["member"])
        member_ids = np.sort(member_rng.choice(n_train, size=half, replace=False))
        assert sorted(audit_run(config).scores)[:half] == member_ids.tolist()
        nonmember_rng = philox(config.seed, flsim._PURPOSES["nonmember"])
        nonmember_x, _ = sample_mixture(nonmember_rng, half, config)

        def rows(x):
            return {row.tobytes() for row in x}

        audit_rows = rows(train_x[member_ids]) | rows(nonmember_x)
        for m in range(config.m_shadows):
            shadow_rng = philox(config.seed, flsim._PURPOSES["shadow"], m)
            shadow_x, _ = sample_mixture(shadow_rng, n_train, config)
            assert rows(shadow_x).isdisjoint(audit_rows)
        assert rows(nonmember_x).isdisjoint(rows(train_x))

    @pytest.mark.parametrize(
        "first,second",
        [
            pytest.param(
                *pair,
                marks=pytest.mark.xfail(
                    strict=True,
                    raises=AssertionError,
                    reason="each audit purpose shares its tag with a training purpose; "
                    "re-keying moves the recorded mia_sweep attack accuracies",
                ),
            )
            if set(pair) in ({"data", "member"}, {"sampling", "nonmember"}, {"client", "shadow"})
            else pair
            for pair in itertools.combinations(flsim._PURPOSES, 2)
        ],
    )
    def test_purposes_draw_distinct_streams(self, first, second):
        # at seed 3 SeedSequence reads missing trailing words as 0, so a
        # purpose's stream at no counters is the one at counters 0: round 0's
        # sampling, client 0 of round 0, shadow 0. Two purposes collide there
        # exactly when they share a tag.
        a, b = (philox(3, flsim._PURPOSES[purpose]) for purpose in (first, second))
        assert not np.array_equal(a.random(4), b.random(4))


class TestShadowFits:
    def test_grouped_fits_equal_one_model_fits(self, monkeypatch):
        # one shadow short of two full groups, so the last group is ragged;
        # each shadow's weights must be those of fitting it alone
        group = lira._SHADOW_GROUP
        config = dataclasses.replace(leak_config(6), m_shadows=2 * group - 1)
        fits, sgd = [], flsim.sgd

        def recorded(*args):
            fits.append(sgd(*args))
            return fits[-1]

        monkeypatch.setattr(flsim, "sgd", recorded)
        fit_attack(config)
        assert [len(w) for w in fits] == [group, group - 1]
        n_train = config.n_clients_total * config.samples_per_client
        steps = config.rounds * config.local_steps
        alone = []
        for m in range(config.m_shadows):
            rng = philox(config.seed, flsim._PURPOSES["shadow"], m)
            x, y = sample_mixture(rng, n_train, config)
            start = np.zeros((1, config.dimension + 1))
            alone.append(sgd(start, x[None], y[None], steps, config.learning_rate, n_train, [rng]))
        assert np.concatenate(fits).tobytes() == np.concatenate(alone).tobytes()

    def test_shards_are_drawn_as_each_group_fits(self):
        # 64 shards of 1024 x 50 hold ~26 MiB when drawn before the first fit
        config = dataclasses.replace(
            leak_config(0, dimension=50, samples_per_client=128, m_shadows=64),
            rounds=1, local_steps=1,
        )
        tracemalloc.start()
        try:
            fit_attack(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestReportFile:
    def test_report_json_contents(self, tmp_path):
        config = leak_config(2)
        report = audit_run(config)
        path = tmp_path / "report.json"
        write_report(report, config, path)
        payload = json.loads(path.read_text())
        assert set(payload) == {"accuracy", "config", "roc_points", "scores"}
        assert payload["accuracy"] == report.accuracy
        assert payload["config"]["seed"] == str(config.seed)
        assert len(payload["scores"]) == config.audit_size
        assert payload["config"]["m_shadows"] == "16"

    def test_report_bytes_stable(self, tmp_path):
        config = leak_config(3)
        write_report(audit_run(config), config, tmp_path / "a.json")
        write_report(audit_run(config), config, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
