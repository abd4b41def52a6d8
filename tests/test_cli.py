"""Tests for config parsing, report rendering, and the command-line interface."""

import json

import numpy as np
import pytest

from rwmatch.cli import (
    EXPERIMENTS,
    FORMAT_VERSION,
    ConfigError,
    ExperimentConfig,
    main,
    parse_config,
    run,
    serialize_config,
)
from rwmatch.matching import NumericalError

SMALL_CONVERGE = "sizes = 8, 32\ntrials = 4\nn_points = 6\nd = 4\n"
SMALL_SINKHORN = "trials = 8\n"


class TestParseConfig:
    def test_empty_text_gives_defaults(self):
        cfg = parse_config("")
        assert cfg == ExperimentConfig()
        assert cfg.seed == 0
        assert cfg.sizes == (64, 256, 1024, 4096)
        assert cfg.eps == 0.1 and cfg.alpha == 1.0
        assert cfg.iters == 200 and cfg.tol == 1e-9

    def test_key_value_lines_with_comments(self):
        cfg = parse_config(
            "# comment line\nseed = 9\nsizes = 16, 64\n\ntau = 0.5  # trailing\n"
        )
        assert cfg.seed == 9
        assert cfg.sizes == (16, 64)
        assert cfg.tau == 0.5

    def test_json_object(self):
        cfg = parse_config(json.dumps({"seed": 3, "sizes": [8, 16], "lambda": 0.7, "trials": 2.0}))
        assert cfg.seed == 3
        assert cfg.sizes == (8, 16)
        assert cfg.lam == 0.7
        # an integral float is accepted for an integer key
        assert cfg.trials == 2 and type(cfg.trials) is int

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("bogus = 1\n")

    def test_all_errors_reported_at_once(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("bogus = 1\neps = -2\nheads = 3\n")
        message = str(exc.value)
        assert "bogus" in message
        assert "eps" in message
        assert "heads" in message

    def test_malformed_lines_rejected(self):
        with pytest.raises(ConfigError, match="key=value"):
            parse_config("just some words\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("seed = 1\nseed = 2\n")
        with pytest.raises(ConfigError, match="duplicate key 'seed'"):
            parse_config('{"seed": 1, "seed": 2}')
        with pytest.raises(ConfigError, match="JSON"):
            parse_config("{not json")
        # an integer past Python's digit limit and nesting past the recursion
        # limit are malformed JSON here
        with pytest.raises(ConfigError, match="JSON"):
            parse_config('{"seed": ' + "1" * 5000 + "}")
        with pytest.raises(ConfigError, match="JSON"):
            parse_config('{"seed": ' + "[" * 100000 + "]" * 100000 + "}")
        # non-object JSON text falls through to the key=value reader
        with pytest.raises(ConfigError, match="key=value"):
            parse_config("[1, 2]")

    @pytest.mark.parametrize(
        "text",
        [
            "seed = -1\n",
            "sizes = 8, 8\n",
            "sizes = \n",
            "trials = 0\n",
            "d = 1\n",
            "similarity = cosine\n",
            "method = hungarian\n",
            "eps = 0\n",
            "tau = nonsense\n",
            "iters = 2.5\n",
            "rule = magic\n",
            "rule_t = 1.5\n",
            "experiment = frobnicate\n",
            '{"seed": Infinity}',
            '{"sizes": [8, 1e400]}',
            pytest.param('{"tau": 1' + "0" * 400 + "}", id="tau-401-digits"),
        ],
    )
    def test_out_of_range_values_rejected(self, text):
        with pytest.raises(ConfigError):
            parse_config(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"trials": true}', "trials: expected an integer, got True"),
            ('{"trials": 2.5}', "trials: expected an integer, got 2.5"),
            ('{"tau": true}', "tau: expected a real number, got True"),
            ("tau = inf\n", "tau: must be finite, got 'inf'"),
            ("tau = nan\n", "tau: must be finite, got 'nan'"),
            ('{"sizes": 5}', "sizes: expected a comma-separated list, got 5"),
        ],
    )
    def test_malformed_values_named(self, text, message):
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert message in str(exc.value)

    def test_round_trip(self):
        cfg = ExperimentConfig(
            experiment="sparsify",
            seed=123,
            sizes=(8, 64),
            trials=3,
            similarity="linear",
            method="dual-softmax",
            lam=0.25,
            rule="nms",
            rule_radius=2.5,
            tol=1e-8,
        )
        assert parse_config(serialize_config(cfg)) == cfg

    def test_round_trip_across_many_random_configs(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            cfg = ExperimentConfig(
                experiment=str(rng.choice(list(EXPERIMENTS))),
                seed=int(rng.integers(0, 2**63)),
                sizes=tuple(np.cumsum(rng.integers(1, 50, size=3)).tolist()),
                trials=int(rng.integers(1, 100)),
                d=int(rng.choice([2, 4, 8])),
                heads=int(rng.choice([1, 2])),
                tau=float(rng.uniform(0.1, 3.0)),
                eps=float(rng.uniform(0.01, 1.0)),
                lam=float(rng.uniform(0.0, 2.0)),
            )
            assert parse_config(serialize_config(cfg)) == cfg


class TestRun:
    def test_report_is_byte_deterministic(self, tmp_path):
        cfg = parse_config(SMALL_SINKHORN)
        cfg = ExperimentConfig(**{**cfg.__dict__, "experiment": "sinkhorn-check", "seed": 5})
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert run(cfg, out_dir=str(d1), fmt="csv") == 0
        assert run(cfg, out_dir=str(d2), fmt="csv") == 0
        b1 = (d1 / "sinkhorn-check.csv").read_bytes()
        b2 = (d2 / "sinkhorn-check.csv").read_bytes()
        assert b1 == b2

    def test_csv_layout(self, tmp_path):
        cfg = ExperimentConfig(experiment="sinkhorn-check", trials=3, seed=1)
        run(cfg, out_dir=str(tmp_path), fmt="csv")
        lines = (tmp_path / "sinkhorn-check.csv").read_text().splitlines()
        assert lines[0] == f"# format-version: {FORMAT_VERSION}"
        assert lines[1].startswith("# config: ")
        assert "seed=1" in lines[1] and "trials=3" in lines[1]
        header = lines[2].split(",")
        assert header[0] == "experiment" and "residual" in header
        assert len(lines) == 3 + 3
        for line in lines[3:]:
            assert len(line.split(",")) == len(header)

    def test_json_layout(self, tmp_path):
        cfg = ExperimentConfig(experiment="reduce-check", trials=5, seed=2)
        code = run(cfg, out_dir=str(tmp_path), fmt="json")
        assert code == 0
        doc = json.loads((tmp_path / "reduce-check.json").read_text())
        assert doc["format_version"] == FORMAT_VERSION
        assert doc["config"]["trials"] == 5
        kinds = {row["kind"] for row in doc["rows"]}
        assert kinds == {
            "attention-softmax",
            "attention-linear",
            "dual-softmax",
            "ot-plan-bitwise",
        }
        for row in doc["rows"]:
            assert row["max_deviation"] <= row["threshold"]

    def test_floats_carry_full_precision(self, tmp_path):
        cfg = ExperimentConfig(experiment="sinkhorn-check", trials=2, seed=3)
        run(cfg, out_dir=str(tmp_path), fmt="csv")
        text = (tmp_path / "sinkhorn-check.csv").read_text()
        row = text.splitlines()[3].split(",")
        eps_text = row[4]
        # 17 significant digits reproduce the double exactly
        assert float(eps_text) == float(format(float(eps_text), ".17g"))
        assert len(eps_text.replace(".", "").replace("-", "").lstrip("0")) >= 16

    def test_unknown_experiment_or_format(self, tmp_path, capsys):
        assert run(ExperimentConfig(), out_dir=str(tmp_path), fmt="csv") == 3
        cfg = ExperimentConfig(experiment="sinkhorn-check", trials=2)
        assert run(cfg, out_dir=str(tmp_path), fmt="yaml") == 3
        # run validates a config built without parse_config
        cfg = ExperimentConfig(experiment="sinkhorn-check", trials=0)
        assert run(cfg, out_dir=str(tmp_path), fmt="csv") == 3
        assert "trials: must be in [1, 10^6], got 0" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_unwritable_out_dir(self, capsys):
        cfg = ExperimentConfig(experiment="sinkhorn-check", trials=2)
        assert run(cfg, out_dir="/proc/definitely/not/writable", fmt="csv") == 3

    def test_numerical_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        def fail(cfg):
            raise NumericalError("no finite plan")

        monkeypatch.setitem(EXPERIMENTS, "sinkhorn-check", ("sinkhorn-check", 500, fail))
        cfg = ExperimentConfig(experiment="sinkhorn-check", trials=2)
        assert run(cfg, out_dir=str(tmp_path), fmt="csv") == 2
        assert "numerical failure: no finite plan" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


class TestMain:
    def test_pass_and_report(self, tmp_path, capsys):
        config = tmp_path / "cfg"
        config.write_text(SMALL_SINKHORN)
        code = main(
            ["sinkhorn-check", "--config", str(config), "--seed", "4", "--out", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sinkhorn-check: pass" in out
        assert (tmp_path / "sinkhorn-check.csv").exists()

    def test_threshold_failure_still_writes_report(self, tmp_path, capsys):
        """Sizes one apart cannot halve the median error, so the converge
        experiment reports failure but the report file must still appear."""
        config = tmp_path / "cfg"
        config.write_text("sizes = 63, 64\ntrials = 3\nn_points = 6\nd = 4\n")
        code = main(
            ["converge-attn", "--config", str(config), "--seed", "0", "--out", str(tmp_path)]
        )
        assert code == 1
        assert (tmp_path / "attention-converge.csv").exists()

    def test_single_size_converge_passes(self, tmp_path, capsys):
        """One size cannot show a factor-2 drop; such a smoke run passes."""
        config = tmp_path / "cfg"
        config.write_text("sizes = 64\ntrials = 3\nn_points = 6\nd = 4\n")
        code = main(
            ["converge-attn", "--config", str(config), "--seed", "0", "--out", str(tmp_path)]
        )
        assert code == 0
        lines = (tmp_path / "attention-converge.csv").read_text().splitlines()
        assert len(lines) == 4

    def test_config_error_exit_code(self, tmp_path, capsys):
        config = tmp_path / "cfg"
        config.write_text("frobnicate = yes\n")
        assert main(["sinkhorn-check", "--config", str(config)]) == 3
        assert "config error" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        missing = tmp_path / "nope.cfg"
        assert main(["sinkhorn-check", "--config", str(missing)]) == 3
        assert "cannot read config" in capsys.readouterr().err

    def test_config_file_not_utf8(self, tmp_path, capsys):
        config = tmp_path / "cfg"
        config.write_bytes(b"\xff\xfeseed = 1\n")
        assert main(["sinkhorn-check", "--config", str(config)]) == 3
        assert "cannot read config" in capsys.readouterr().err

    def test_experiment_subcommand_mismatch(self, tmp_path, capsys):
        config = tmp_path / "cfg"
        config.write_text("experiment = sparsify\n")
        assert main(["sinkhorn-check", "--config", str(config)]) == 3
        assert "does not match" in capsys.readouterr().err

    def test_matching_experiment_key_accepted(self, tmp_path):
        config = tmp_path / "cfg"
        config.write_text("experiment = sinkhorn-check\ntrials = 2\n")
        assert main(["sinkhorn-check", "--config", str(config), "--out", str(tmp_path)]) == 0

    def test_seed_flag_overrides_config(self, tmp_path):
        config = tmp_path / "cfg"
        config.write_text("seed = 1\ntrials = 3\n")
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        main(["sinkhorn-check", "--config", str(config), "--out", str(out1)])
        main(
            ["sinkhorn-check", "--config", str(config), "--seed", "1", "--out", str(out2)]
        )
        assert (out1 / "sinkhorn-check.csv").read_bytes() == (
            out2 / "sinkhorn-check.csv"
        ).read_bytes()
        out3 = tmp_path / "o3"
        main(["sinkhorn-check", "--config", str(config), "--seed", "2", "--out", str(out3)])
        assert (out1 / "sinkhorn-check.csv").read_bytes() != (
            out3 / "sinkhorn-check.csv"
        ).read_bytes()

    def test_invalid_seed_flag(self, capsys):
        assert main(["sinkhorn-check", "--seed", "-3"]) == 3
        assert "seed: must be in [0, 2^64), got -3" in capsys.readouterr().err

    def test_usage_errors_exit_three(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-subcommand"])
        assert exc.value.code == 3
        with pytest.raises(SystemExit) as exc:
            main(["sinkhorn-check", "--format", "yaml"])
        assert exc.value.code == 3

    def test_json_format_flag(self, tmp_path):
        config = tmp_path / "cfg"
        config.write_text(SMALL_SINKHORN)
        code = main(
            [
                "sinkhorn-check",
                "--config",
                str(config),
                "--out",
                str(tmp_path),
                "--format",
                "json",
            ]
        )
        assert code == 0
        doc = json.loads((tmp_path / "sinkhorn-check.json").read_text())
        assert {row["case"] for row in doc["rows"]} == set(range(8))

    def test_converge_match_runs(self, tmp_path):
        config = tmp_path / "cfg"
        config.write_text("sizes = 8, 64\ntrials = 3\nn_points = 6\nd = 4\nmethod = dual-softmax\n")
        code = main(
            ["converge-match", "--config", str(config), "--seed", "3", "--out", str(tmp_path)]
        )
        assert code in (0, 1)
        assert (tmp_path / "matching-converge.csv").exists()

    def test_sparsify_runs(self, tmp_path):
        config = tmp_path / "cfg"
        config.write_text("trials = 1\nsteps = 3\nn_points = 6\nd = 4\n")
        code = main(
            ["sparsify", "--config", str(config), "--seed", "6", "--out", str(tmp_path)]
        )
        assert code == 0
        lines = (tmp_path / "sparsify.csv").read_text().splitlines()
        header = lines[2].split(",")
        assert "l1_final" in header and "survivors_a" in header
        assert len(lines) == 4
        assert lines[3].split(",")[header.index("seed")] == "6"


SMALL_CONFIGS = {
    "converge-attn": SMALL_CONVERGE,
    "converge-match": SMALL_CONVERGE,
    "sinkhorn-check": "trials = 2\n",
    "reduce-check": "trials = 2\n",
    "sparsify": "trials = 1\nsteps = 1\nn_points = 6\nd = 4\n",
}

CSV_HEADERS = {
    "converge-attn": [
        "experiment", "similarity", "method", "sample_size", "trial_count",
        "q25", "q50", "q75", "max", "seed",
    ],
    "converge-match": [
        "experiment", "similarity", "method", "sample_size", "trial_count",
        "q25", "q50", "q75", "max", "seed",
    ],
    "sinkhorn-check": [
        "experiment", "case", "n_a", "n_b", "eps", "iterations", "residual",
        "mass_error", "seed",
    ],
    "reduce-check": [
        "experiment", "kind", "instances", "max_deviation", "threshold", "seed",
    ],
    "sparsify": [
        "experiment", "lambda", "rule", "steps", "trial", "l1_initial",
        "l1_final", "loss_initial", "loss_final", "survivors_a", "survivors_b",
        "seed",
    ],
}


@pytest.mark.parametrize("sub", list(CSV_HEADERS))
def test_csv_header_is_pinned(sub, tmp_path):
    """The report columns of every subcommand, in order."""
    config = tmp_path / "cfg"
    config.write_text(SMALL_CONFIGS[sub])
    out = tmp_path / "out"
    assert main([sub, "--config", str(config), "--out", str(out)]) in (0, 1)
    (report,) = out.iterdir()
    lines = report.read_text().splitlines()
    assert lines[2].split(",") == CSV_HEADERS[sub]
    assert all(len(line.split(",")) == len(CSV_HEADERS[sub]) for line in lines[3:])
