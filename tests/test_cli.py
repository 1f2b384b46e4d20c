import csv
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qdp import __version__
from qdp.accountant import MechanismSpec, epsilon_infinity, epsilon_one
from qdp.cli import main, parse_config
from qdp.flsim import (
    FlRunConfig,
    RunResult,
    config_as_flat_mapping,
    config_from_flat_mapping,
    write_run_artifact,
)
from qdp.lira import AttackReport, write_report
from qdp.pmf import NoiseSpec
from qdp.quantizer import QuantizerSpec

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBudget:
    def test_alpha_one_matches_library(self, capsys):
        code, out, _ = run(capsys, "budget", "--k", "2", "--cq", "1", "--sigma", "1")
        assert code == 0
        expected = epsilon_one(MechanismSpec(noise=NoiseSpec(1.0), quant=QuantizerSpec(2, 1.0)))
        assert float(out) == pytest.approx(expected, rel=1e-11)

    def test_alpha_inf_matches_library(self, capsys):
        code, out, _ = run(
            capsys, "budget", "--k", "2", "--cq", "1", "--sigma", "1", "--alpha", "inf"
        )
        assert code == 0
        expected = epsilon_infinity(
            MechanismSpec(noise=NoiseSpec(1.0), quant=QuantizerSpec(2, 1.0))
        )
        assert float(out) == pytest.approx(expected, rel=1e-11)

    @pytest.mark.parametrize("alpha", ["1", "inf"])
    def test_small_sigma_prints_finite_budget(self, capsys, alpha):
        code, out, err = run(
            capsys, "budget", "--k", "8", "--cq", "1", "--sigma", "0.01", "--alpha", alpha
        )
        assert code == 0
        assert err == ""
        assert math.isfinite(float(out))

    def test_large_sigma_prints_accurate_bound(self, capsys):
        code, out, _ = run(
            capsys, "budget", "--k", "2", "--cq", "1", "--sigma", "1e200", "--alpha", "inf"
        )
        assert code == 0
        assert out == "461.435957132\n"

    @pytest.mark.parametrize("alpha", ["1", "inf"])
    @pytest.mark.parametrize(
        "k,cq,sigma,reason",
        [
            ("16", "1", "1e-160", "exceeds the largest float"),
            ("2", "1e300", "1e-10", "out of float range"),
            ("1024", "1e306", "1", "out of float range"),  # (k - 1) * c_q overflows
            (str(10**400), "1", "1", "out of float range"),  # k - 1 is beyond any float
        ],
    )
    def test_out_of_float_range_is_runtime_failure(self, capsys, alpha, k, cq, sigma, reason):
        code, out, err = run(
            capsys, "budget", "--k", k, "--cq", cq, "--sigma", sigma, "--alpha", alpha
        )
        assert code == 1
        assert out == ""
        assert reason in err

    def test_missing_k_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["budget", "--cq", "1", "--sigma", "1"])
        assert excinfo.value.code == 2

    def test_bad_alpha_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["budget", "--k", "2", "--cq", "1", "--sigma", "1", "--alpha", "3"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("k", ["1", "0"])
    def test_invalid_k_is_usage_error(self, capsys, k):
        # the same check and message as every --k-list entry
        with pytest.raises(SystemExit) as excinfo:
            main(["budget", "--k", k, "--cq", "1", "--sigma", "1"])
        assert excinfo.value.code == 2
        assert "every quantization level must be an integer >= 2" in capsys.readouterr().err


class TestSweep:
    def test_csv_contents(self, capsys, tmp_path):
        out_csv = tmp_path / "sweep.csv"
        code, _, _ = run(
            capsys,
            "sweep",
            "--k-list", "16,2,64,8,4,32",
            "--cq", "1",
            "--sigma", "1",
            "--out", str(out_csv),
        )
        assert code == 0
        with open(out_csv) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["k"] for r in rows] == ["2", "4", "8", "16", "32", "64"]
        eps1 = [float(r["eps1"]) for r in rows]
        assert eps1 == sorted(eps1)
        assert all(v < 0.5 for v in eps1)
        assert all(float(r["eps_gauss_alpha1"]) == 0.5 for r in rows)

    def test_rerun_is_byte_identical(self, capsys, tmp_path):
        # the order of --k-list does not matter either
        paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
        for k_list, path in zip(("8,2", "8,2", "2,8"), paths):
            args = ["sweep", "--k-list", k_list, "--cq", "1", "--sigma", "0.5", "--out", str(path)]
            assert main(args) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes() == paths[2].read_bytes()

    def test_rows_match_budget_command(self, capsys, tmp_path):
        # each row holds the library's budgets exactly, and `qdp budget` prints them
        out_csv = tmp_path / "rows.csv"
        argv = ["sweep", "--k-list", "16,4,3", "--cq", "1", "--sigma", "1", "--out", str(out_csv)]
        assert run(capsys, *argv)[0] == 0
        rows = list(csv.DictReader(out_csv.read_text().splitlines()))
        assert [row["k"] for row in rows] == ["3", "4", "16"]
        for row in rows:
            mech = MechanismSpec(NoiseSpec(1.0), QuantizerSpec(k=int(row["k"]), c_q=1.0))
            budgets = (("eps1", "1", epsilon_one), ("eps_inf", "inf", epsilon_infinity))
            for column, alpha, fn in budgets:
                assert float(row[column]) == fn(mech)
                argv = ["budget", "--k", row["k"], "--cq", "1", "--sigma", "1", "--alpha", alpha]
                assert run(capsys, *argv)[1] == f"{float(row[column]):.12g}\n"

    @pytest.mark.parametrize(
        "k_list,cq,sigma",
        [
            ("2,4", "1", "1e-300"),  # the baseline overflows to inf
            ("2", "1", "1e-160"),  # the baseline overflows to inf
        ],
    )
    def test_gaussian_baseline_out_of_float_range_fails(self, capsys, tmp_path, k_list, cq, sigma):
        out_csv = tmp_path / "sweep.csv"
        argv = ["sweep", "--k-list", k_list, "--cq", cq, "--sigma", sigma, "--out", str(out_csv)]
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "Gaussian budget" in err and "out of float range" in err
        assert not out_csv.exists()

    @pytest.mark.parametrize(
        "cq,sigma,expected",
        [
            ("3e-162", "2e-162", 1.125),  # both squares are subnormal
            ("1e200", "1e100", 5e199),  # c_q**2 overflows
            ("1", "1e160", 5e-321),  # sigma**2 overflows; the baseline is subnormal
        ],
    )
    def test_gaussian_baseline_beyond_the_squares_range(
        self, capsys, tmp_path, cq, sigma, expected
    ):
        out_csv = tmp_path / "sweep.csv"
        argv = ["sweep", "--k-list", "2", "--cq", cq, "--sigma", sigma, "--out", str(out_csv)]
        assert run(capsys, *argv)[0] == 0
        (row,) = csv.DictReader(out_csv.read_text().splitlines())
        assert float(row["eps_gauss_alpha1"]) == expected

    def test_unwritable_path_fails(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "sweep",
            "--k-list", "2",
            "--cq", "1",
            "--sigma", "1",
            "--out", str(tmp_path / "missing_dir" / "x.csv"),
        )
        assert code == 1
        assert err


class TestBudgetRange:
    """Every (k, c_q, sigma) the parser accepts gets a finite budget or a clean
    runtime failure: never a silent inf or a raw traceback."""

    @given(
        st.floats(-320.0, 308.0), st.floats(-320.0, 308.0), st.sampled_from(("2", "3", "1024"))
    )
    # capsys is read out after every call, so examples cannot see each other's output
    @settings(
        max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    def test_finite_output_or_exit_one(self, capsys, log_cq, log_sigma, k):
        cq, sigma = repr(10.0**log_cq), repr(10.0**log_sigma)
        for alpha in ("1", "inf"):
            code, out, err = run(
                capsys, "budget", "--k", k, "--cq", cq, "--sigma", sigma, "--alpha", alpha
            )
            assert code in (0, 1)
            if code == 0:
                assert math.isfinite(float(out))
            else:
                assert err.startswith("qdp budget: error:")
        with tempfile.TemporaryDirectory() as tmp:
            out_csv = Path(tmp) / "sweep.csv"
            code, _, err = run(
                capsys, "sweep", "--k-list", k, "--cq", cq, "--sigma", sigma, "--out", str(out_csv)
            )
            assert code in (0, 1)
            if code == 0:
                rows = list(csv.DictReader(out_csv.read_text().splitlines()))
                assert [row["k"] for row in rows] == [k]
                assert all(math.isfinite(float(value)) for row in rows for value in row.values())
            else:
                assert err.startswith("qdp sweep: error:")


class TestFlTrain:
    def test_smoke_config_artifact(self, capsys, tmp_path):
        out_dir = tmp_path / "run"
        code, out, _ = run(
            capsys,
            "fl-train",
            "--config", str(CONFIGS / "fl_smoke.conf"),
            "--seed", "0",
            "--out", str(out_dir),
        )
        assert code == 0
        rows = (out_dir / "metrics.csv").read_text().splitlines()
        assert len(rows) == 1 + 30
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest == {
            "command": "fl-train",
            "config_path": str(CONFIGS / "fl_smoke.conf"),
            "seed": 0,
            "tool_version": __version__,
        }
        model = json.loads((out_dir / "model.json").read_text())
        assert len(model["weights"]) == 21

    def test_seed_repeat_identical(self, capsys, tmp_path):
        for name in ("a", "b"):
            run(
                capsys,
                "fl-train",
                "--config", str(CONFIGS / "fl_smoke.conf"),
                "--seed", "7",
                "--out", str(tmp_path / name),
            )
        assert (tmp_path / "a" / "metrics.csv").read_bytes() == (
            tmp_path / "b" / "metrics.csv"
        ).read_bytes()

    def test_malformed_config_names_problem(self, capsys, tmp_path):
        bad = tmp_path / "bad.conf"
        bad.write_text((CONFIGS / "fl_smoke.conf").read_text().replace("rounds = 30", ""))
        code, _, err = run(capsys, "fl-train", "--config", str(bad), "--out", str(tmp_path / "o"))
        assert code == 1
        assert "rounds" in err

    def test_unknown_key_rejected(self, capsys, tmp_path):
        bad = tmp_path / "bad.conf"
        bad.write_text((CONFIGS / "fl_smoke.conf").read_text() + "mystery = 3\n")
        code, _, err = run(capsys, "fl-train", "--config", str(bad), "--out", str(tmp_path / "o"))
        assert code == 1
        assert "mystery" in err

    def test_nan_sigma_rejected(self, capsys, tmp_path):
        text = (CONFIGS / "fl_smoke.conf").read_text()
        text = text.replace("sigma = 0.0", "sigma = nan").replace("k = none", "k = 16")
        bad = tmp_path / "bad.conf"
        bad.write_text(text)
        code, _, err = run(capsys, "fl-train", "--config", str(bad), "--out", str(tmp_path / "o"))
        assert code == 1
        assert "sigma" in err
        assert not (tmp_path / "o").exists()

    def test_empty_shards_rejected(self, capsys, tmp_path):
        text = (CONFIGS / "fl_smoke.conf").read_text()
        bad = tmp_path / "bad.conf"
        bad.write_text(text.replace("samples_per_client = 8", "samples_per_client = 0"))
        code, _, err = run(capsys, "fl-train", "--config", str(bad), "--out", str(tmp_path / "o"))
        assert code == 1
        assert "samples_per_client" in err
        assert not (tmp_path / "o").exists()

    def test_seedless_config_rejected(self, capsys, tmp_path):
        seedless = tmp_path / "seedless.conf"
        seedless.write_text(
            "\n".join(
                line
                for line in (CONFIGS / "fl_smoke.conf").read_text().splitlines()
                if not line.startswith("seed")
            )
        )
        code, _, err = run(capsys, "fl-train", "--config", str(seedless), "--out", str(tmp_path / "x"))
        assert code == 1
        assert "'seed'" in err
        assert not (tmp_path / "x").exists()


class TestMia:
    @pytest.fixture()
    def quick_config(self, tmp_path):
        text = (CONFIGS / "mia_base.conf").read_text()
        text = text.replace("rounds = 20", "rounds = 5")
        text = text.replace("m_shadows = 16", "m_shadows = 4")
        path = tmp_path / "quick.conf"
        path.write_text(text)
        return path

    def test_report_written(self, capsys, tmp_path, quick_config):
        out_dir = tmp_path / "audit"
        code, out, _ = run(
            capsys, "mia", "--config", str(quick_config), "--seed", "1", "--out", str(out_dir)
        )
        assert code == 0
        payload = json.loads((out_dir / "report.json").read_text())
        assert 0.0 <= payload["accuracy"] <= 1.0
        assert len(payload["scores"]) == 64
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert set(manifest) == {"command", "config_path", "seed", "tool_version"}

    def test_single_shadow_rejected(self, capsys, tmp_path, quick_config):
        text = quick_config.read_text().replace("m_shadows = 4", "m_shadows = 1")
        bad = tmp_path / "bad.conf"
        bad.write_text(text)
        code, _, err = run(capsys, "mia", "--config", str(bad), "--out", str(tmp_path / "o"))
        assert code == 1
        assert "shadow" in err

    @pytest.mark.parametrize(
        "line", ["shadow_steps = 0", "shadow_learning_rate = -0.5", "logit_transform = true"]
    )
    def test_bad_shadow_setting_rejected(self, capsys, tmp_path, quick_config, line):
        # shadows always train as the target did; these are not config keys
        bad = tmp_path / "bad.conf"
        bad.write_text(quick_config.read_text() + line + "\n")
        code, _, err = run(capsys, "mia", "--config", str(bad), "--out", str(tmp_path / "o"))
        assert code == 1
        assert f"unknown config key {line.split(' = ')[0]!r}" in err

    def test_rerun_identical(self, capsys, tmp_path, quick_config):
        for name in ("a", "b"):
            run(
                capsys,
                "mia",
                "--config", str(quick_config),
                "--seed", "3",
                "--out", str(tmp_path / name),
            )
        assert (tmp_path / "a" / "report.json").read_bytes() == (
            tmp_path / "b" / "report.json"
        ).read_bytes()

    def test_config_echo_reproduces_report(self, capsys, tmp_path, quick_config):
        first = tmp_path / "first"
        run(capsys, "mia", "--config", str(quick_config), "--seed", "3", "--out", str(first))
        echo = json.loads((first / "report.json").read_text())["config"]
        echo_conf = tmp_path / "echo.conf"
        echo_conf.write_text("".join(f"{key} = {value}\n" for key, value in echo.items()))
        again = tmp_path / "again"
        code, _, err = run(capsys, "mia", "--config", str(echo_conf), "--out", str(again))
        assert code == 0, err
        assert (again / "report.json").read_bytes() == (first / "report.json").read_bytes()


@pytest.mark.parametrize(
    "command, config", [("fl-train", "fl_smoke.conf"), ("mia", "mia_base.conf")]
)
def test_unallocatable_test_set_is_runtime_failure(capsys, tmp_path, command, config):
    # numpy refuses the ~7 PiB test set before allocating any of it
    text = (CONFIGS / config).read_text()
    huge = tmp_path / "huge.conf"
    huge.write_text(text.replace("test_samples = 2000", "test_samples = 1000000000000000"))
    code, _, err = run(capsys, command, "--config", str(huge), "--out", str(tmp_path / "o"))
    assert code == 1
    assert err.startswith(f"qdp {command}: error: Unable to allocate")
    assert not (tmp_path / "o").exists()


class TestConfigParser:
    def test_comments_and_whitespace(self, tmp_path):
        path = tmp_path / "c.conf"
        path.write_text("# header\n a = 1 # trailing\n\nb = two words\n")
        assert parse_config(path) == {"a": "1", "b": "two words"}

    def test_rejects_garbage_line(self, tmp_path):
        path = tmp_path / "c.conf"
        path.write_text("just some words\n")
        with pytest.raises(ValueError, match="key = value"):
            parse_config(path)

    def test_rejects_duplicate_key(self, tmp_path):
        path = tmp_path / "c.conf"
        path.write_text("a = 1\na = 2\n")
        with pytest.raises(ValueError, match="duplicate"):
            parse_config(path)


finite = dict(allow_nan=False, allow_infinity=False)


@st.composite
def fl_configs(draw):
    n_total = draw(st.integers(1, 1000))
    k = draw(st.none() | st.integers(2, 10**6))
    # a lattice needs (k - 1) * c_q and 2 * c_q in float range; one ulp below
    # the quotient, because the quotient itself rounds
    c_q_max = sys.float_info.max
    if k is not None:
        c_q_max = math.nextafter(c_q_max / max(2, k - 1), 0)
    return FlRunConfig(
        n_clients_total=n_total,
        n_sampled=draw(st.integers(1, n_total)),
        rounds=draw(st.integers(1, 10**4)),
        local_steps=draw(st.integers(1, 10**4)),
        learning_rate=draw(st.floats(min_value=0.0, **finite)),
        batch_size=draw(st.integers(1, 10**4)),
        c_q=draw(st.floats(min_value=0.0, max_value=c_q_max, exclude_min=True, **finite)),
        sigma=draw(st.floats(min_value=0.0, **finite)),
        k=k,
        seed=draw(st.integers(0, 2**63)),
        dimension=draw(st.integers(1, 500)),
        samples_per_client=draw(st.integers(1, 500)),
        margin=draw(st.floats(min_value=0.0, **finite)),
        test_samples=draw(st.integers(1, 10**6)),
        m_shadows=draw(st.integers(2, 10**4)),
        audit_size=2 * draw(st.integers(1, 10**4)),
    )


class TestConfigSchema:
    @settings(max_examples=200, deadline=None)
    @given(fl_configs())
    def test_flat_mapping_round_trips(self, config):
        flat = config_as_flat_mapping(config)
        assert config_from_flat_mapping(flat) == config

    @settings(max_examples=50, deadline=None)
    @given(fl_configs())
    def test_written_configs_parse_back(self, config):
        # the run directory's config file and the report's config echo are
        # both read back through the CLI's config-file parser
        weights = np.zeros(config.dimension + 1)
        report = AttackReport(scores={}, accuracy=0.5, roc_points=[(0.0, 0.0)])
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp)
            write_run_artifact(RunResult(config=config, weights=weights, metrics=[]), out)
            mapping = parse_config(out / "config")
            assert config_from_flat_mapping(mapping) == config

            write_report(report, config, out / "report.json")
            echo = json.loads((out / "report.json").read_text())["config"]
            (out / "echo.conf").write_text("".join(f"{k} = {v}\n" for k, v in echo.items()))
            mapping = parse_config(out / "echo.conf")
        assert config_from_flat_mapping(mapping) == config

    def test_run_config_keys_are_the_config_file_keys_in_order(self):
        # mia_base.conf lists every field, the audit's included
        mapping = parse_config(CONFIGS / "mia_base.conf")
        config = config_from_flat_mapping(mapping)
        assert list(config_as_flat_mapping(config)) == list(mapping)

    def test_none_parses_in_any_case(self):
        for text in ("None", "NONE"):
            mapping = {**parse_config(CONFIGS / "mia_base.conf"), "k": text}
            assert config_from_flat_mapping(mapping).k is None

    @pytest.mark.parametrize(
        "key, value", [("rounds", "2.5"), ("k", "many"), ("m_shadows", "many")]
    )
    def test_parse_error_names_key(self, key, value):
        mapping = {**parse_config(CONFIGS / "mia_base.conf"), key: value}
        with pytest.raises(ValueError, match=f"config key '{key}'"):
            config_from_flat_mapping(mapping)

    def test_unknown_key_rejected(self):
        # the loader itself, not only the CLI, rejects a key that is no field
        mapping = {**parse_config(CONFIGS / "mia_base.conf"), "optimizer": "adam"}
        with pytest.raises(ValueError, match="^unknown config key 'optimizer'$"):
            config_from_flat_mapping(mapping)
