import ast
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import qevents.cli as cli
import qevents.events
from qevents import InvariantViolation, ProtocolSample, substream

from _helpers import reference_trajectory

SCHEMA = "qevents-config/1"
C = 0.7071067811865476
CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def diagonal_detect_config(tmp_path, diag=(0.3, 0.7), **run):
    payload = {
        "schema": SCHEMA,
        "model": {
            "kind": "frame",
            "times": [1.0, 2.0],
            "initial_state": {"diag": list(diag)},
            "partitions": {"diagonal_labels": ["+", "-"]},
        },
        "run": dict(run),
    }
    return write_config(tmp_path, payload)


def hadamard_config(tmp_path, **run):
    payload = {
        "schema": SCHEMA,
        "model": {
            "kind": "frame",
            "times": [1.0, 2.0, 3.0],
            "initial_state": {"diag": [0.3, 0.7]},
            "step_propagator": {"re": [[C, C], [C, -C]]},
            "base_partitions": {"diagonal_labels": ["+", "-"]},
        },
        "run": dict(run),
    }
    return write_config(tmp_path, payload)


def mixture_config(tmp_path, **run):
    payload = {
        "schema": SCHEMA,
        "model": {"kind": "mixture", "weights": [0.4, 0.6],
                  "p_plus": [0.8, 0.3], "tau": 1.0},
        "run": dict(run),
    }
    return write_config(tmp_path, payload)


class TestDetect:
    def test_diagonal_state_fires(self, tmp_path, capsys):
        cfg = diagonal_detect_config(tmp_path)
        assert cli.main(["detect", "--config", cfg]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["happened"] is True
        assert out["t_min"] == 1.0 and out["t_star"] == 1.0
        first = out["verdicts"][0]
        assert first["distance"] == pytest.approx(0.0, abs=1e-12)
        assert first["threshold"] == pytest.approx(0.1, rel=1e-9)

    def test_superposition_never_fires(self, tmp_path, capsys):
        payload = {
            "schema": SCHEMA,
            "model": {
                "kind": "frame",
                "times": [1.0],
                "initial_state": {"re": [[0.5, 0.5], [0.5, 0.5]]},
                "partitions": {"diagonal_labels": ["+", "-"]},
            },
        }
        cfg = write_config(tmp_path, payload)
        assert cli.main(["detect", "--config", cfg]) == 3
        out = json.loads(capsys.readouterr().out)
        assert out["happened"] is False
        # inadmissible threshold serializes as null, not NaN
        assert out["verdicts"][0]["threshold"] is None
        assert out["verdicts"][0]["admissible"] is False

    def test_single_time_query(self, tmp_path, capsys):
        cfg = diagonal_detect_config(tmp_path, time=2.0)
        assert cli.main(["detect", "--config", cfg]) == 0
        out = json.loads(capsys.readouterr().out)
        assert [v["time"] for v in out["verdicts"]] == [2.0]

    def test_csv_output(self, tmp_path, capsys):
        cfg = diagonal_detect_config(tmp_path)
        assert cli.main(["detect", "--config", cfg, "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "time,candidate,happened,distance,threshold,gap,admissible"
        assert lines[1] == "1,0,true,0,0.1,0.4,true"


class TestConfigErrors:
    def test_missing_file(self, tmp_path, capsys):
        assert cli.main(["detect", "--config", str(tmp_path / "nope.json")]) == 1
        assert "config error" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert cli.main(["detect", "--config", str(path)]) == 1
        assert "valid JSON" in capsys.readouterr().err

    def test_wrong_schema(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"schema": "other/9", "model": {}})
        assert cli.main(["detect", "--config", cfg]) == 1
        assert "schema" in capsys.readouterr().err

    def test_wrong_model_kind_for_command(self, tmp_path, capsys):
        cfg = mixture_config(tmp_path)
        assert cli.main(["detect", "--config", cfg]) == 1
        assert "kind" in capsys.readouterr().err

    def test_missing_initial_state(self, tmp_path, capsys):
        payload = {"schema": SCHEMA,
                   "model": {"kind": "frame", "times": [1.0],
                             "partitions": {"diagonal_labels": ["+", "-"]}}}
        cfg = write_config(tmp_path, payload)
        assert cli.main(["detect", "--config", cfg]) == 1
        assert "initial_state" in capsys.readouterr().err

    def test_invalid_state_matrix(self, tmp_path, capsys):
        cfg = diagonal_detect_config(tmp_path, diag=(0.4, 0.4))
        assert cli.main(["detect", "--config", cfg]) == 1
        assert "initial_state" in capsys.readouterr().err

    def test_unknown_cli_flag(self, capsys):
        assert cli.main(["detect", "--nonsense"]) == 1
        assert "config error" in capsys.readouterr().err

    def test_no_output_file_written_on_config_error(self, tmp_path, capsys):
        out_path = tmp_path / "out.json"
        cfg = diagonal_detect_config(tmp_path, diag=(0.4, 0.4))
        assert cli.main(["detect", "--config", cfg, "--out", str(out_path)]) == 1
        assert not out_path.exists()
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["detect", "trajectory"])
    def test_partition_dimension_must_match_the_state(self, tmp_path, capsys, command):
        payload = {"schema": SCHEMA,
                   "model": {"kind": "frame", "times": [1.0, 2.0],
                             "initial_state": {"diag": [0.2, 0.3, 0.5]},
                             "partitions": {"labels": ["+", "-"],
                                            "projections": [{"diag": [1.0, 0.0]},
                                                            {"diag": [0.0, 1.0]}]}}}
        out_path = tmp_path / "out.json"
        cfg = write_config(tmp_path, payload)
        assert cli.main([command, "--config", cfg, "--out", str(out_path)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and not out_path.exists()
        assert err.startswith("config error: model.partitions: projections must be 3 x 3")

    @pytest.mark.parametrize("value", ["false", 0, 1, None])
    def test_require_detection_must_be_a_boolean(self, tmp_path, capsys, value):
        cfg = hadamard_config(tmp_path, require_detection=value)
        assert cli.main(["trajectory", "--config", cfg]) == 1
        assert capsys.readouterr().err.startswith(
            "config error: run.require_detection must be true or false")

    def test_keep_histories_must_not_be_negative(self, tmp_path, capsys):
        cfg = hadamard_config(tmp_path, keep_histories=-3)
        assert cli.main(["trajectory", "--config", cfg]) == 1
        assert capsys.readouterr().err.startswith(
            "config error: run.keep_histories must be at least 0")

    def test_records_are_built_only_for_kept_samples(self, tmp_path, capsys, monkeypatch):
        built = []
        real = qevents.events.SampledPath.history

        def spy(path):
            built.append(path.members.tolist())
            return real.func(path)

        monkeypatch.setattr(qevents.events.SampledPath, "history", property(spy))
        cfg = hadamard_config(tmp_path, samples=300, seed=7, keep_histories=3)
        assert cli.main(["trajectory", "--config", cfg]) == 0
        assert len(json.loads(capsys.readouterr().out)["histories"]) == 3
        assert built and all(min(members) < 3 for members in built)

    def test_numerical_failures_map_to_exit_two(self, tmp_path, capsys, monkeypatch):
        cfg = hadamard_config(tmp_path, samples=1)

        def boom(*args, **kwargs):
            raise InvariantViolation("state left the manifold")

        monkeypatch.setattr(cli, "sample_trajectories", boom)
        assert cli.main(["trajectory", "--config", cfg]) == 2
        assert "numerical invariant failed" in capsys.readouterr().err


class TestTrajectory:
    def test_histogram_and_histories(self, tmp_path, capsys):
        cfg = hadamard_config(tmp_path, samples=300, seed=7, keep_histories=3)
        assert cli.main(["trajectory", "--config", cfg]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["samples"] == 300
        assert len(out["histories"]) == 3
        fractions = {row["outcome"]: row["fraction"] for row in out["histogram"]}
        assert sum(fractions.values()) == pytest.approx(1.0)
        counts = {row["outcome"]: row["count"] for row in out["histogram"]}
        assert sum(counts.values()) == out["events_total"]

    def test_seed_flag_overrides_config(self, tmp_path, capsys):
        cfg = hadamard_config(tmp_path, samples=50, seed=7)
        cli.main(["trajectory", "--config", cfg])
        base = capsys.readouterr().out
        cli.main(["trajectory", "--config", cfg, "--seed", "7"])
        same = capsys.readouterr().out
        cli.main(["trajectory", "--config", cfg, "--seed", "8"])
        different = capsys.readouterr().out
        assert base == same
        assert base != different

    def test_unconditional_sampling_matches_weights(self, tmp_path, capsys):
        cfg = diagonal_detect_config(tmp_path, samples=4000, seed=1,
                                     require_detection=False)
        assert cli.main(["trajectory", "--config", cfg]) == 0
        out = json.loads(capsys.readouterr().out)
        fractions = {row["outcome"]: row["fraction"] for row in out["histogram"]}
        assert fractions["+"] == pytest.approx(0.3, abs=0.03)

    def test_never_policy_logs_no_events(self, tmp_path, capsys):
        cfg = hadamard_config(tmp_path, samples=5, record_policy="never")
        assert cli.main(["trajectory", "--config", cfg]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["events_total"] == 0
        assert out["histogram"] == []
        assert all(h == [] for h in out["histories"])

    def test_non_numeric_samples_is_a_config_error(self, tmp_path, capsys):
        cfg = hadamard_config(tmp_path, samples="many")
        assert cli.main(["trajectory", "--config", cfg]) == 1
        assert capsys.readouterr().err.startswith("config error: run.samples")

    def test_invalid_record_policy(self, tmp_path, capsys):
        cfg = hadamard_config(tmp_path, record_policy="sometimes")
        assert cli.main(["trajectory", "--config", cfg]) == 1
        capsys.readouterr()


class TestTrajectoryGolden:
    """sha256 of `qevents trajectory` JSON, pinned from the one-sample-at-a-time sampler."""

    GATED = {
        "schema": SCHEMA,
        "model": {
            "kind": "frame",
            "times": [1.0, 2.0, 3.0, 4.0],
            "initial_state": {"diag": [0.1, 0.2, 0.3, 0.4]},
            "step_propagator": [[0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]],
            "base_partitions": {"diagonal_labels": ["a", "a", "b", "c"]},
            "restrictions": [{"kind": "diagonal"}] * 4,
        },
        # the event skips t=1 (tied weights), then fires on some branches only
        "run": {"seed": 11, "samples": 300, "record_policy": "always",
                "require_detection": True, "keep_histories": 20},
    }

    @pytest.mark.parametrize("name,digest", [
        ("hadamard3.json", "08e56df96e415de2b111f90677d4a67290574e9d42d323914ae37b4ae2df482b"),
        ("diagonal_trajectories.json",
         "421330dcc79dfedfc8fd9028a9c09d244c4a92eef74578ff9810f7bdfb796f78"),
        ("gated", "4c86d731d234cf97065e542b3a4da683b9bac37be1b85b4415e6f8141510003a"),
    ])
    def test_output_digest(self, tmp_path, capsys, name, digest):
        cfg = (write_config(tmp_path, self.GATED) if name == "gated"
               else str(CONFIGS / name))
        assert cli.main(["trajectory", "--config", cfg]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


    def test_histogram_order_matches_a_per_sample_tally(self, tmp_path, capsys):
        # labels 1 and "1" print alike and lie on different branches; rows with
        # equal str() keep the order in which a sample-by-sample tally first
        # meets them ("1" first: sample 0 takes the likelier branch)
        payload = {
            "schema": SCHEMA,
            "model": {"kind": "frame", "times": [1.0, 2.0],
                      "initial_state": {"diag": [0.3, 0.7]},
                      "partitions": [{"diagonal_labels": [1, "x"]},
                                     {"diagonal_labels": ["y", "1"]}]},
            "run": {"seed": 5, "samples": 40, "require_detection": False},
        }
        assert cli.main(["trajectory", "--config", write_config(tmp_path, payload)]) == 0
        out = json.loads(capsys.readouterr().out)
        frame, initial = cli._build_frame(payload["model"])
        counts = {}
        for i in range(40):
            ref = reference_trajectory(frame, initial, rng_seed=substream(5, i),
                                       require_detection=False)
            for rec in ref.history:
                counts[rec.outcome] = counts.get(rec.outcome, 0) + 1
        expected = sorted(counts.items(), key=lambda kv: str(kv[0]))
        assert [row["outcome"] for row in out["histogram"]] == ["1", 1, "x", "y"]
        assert [(row["outcome"], row["count"]) for row in out["histogram"]] == expected


class TestDetectGolden:
    """sha256 of `qevents detect` JSON, pinned before the CLI's entry points went public."""

    GATED = {
        "schema": SCHEMA,
        "model": {
            "kind": "frame",
            "times": [1.0, 2.0, 3.0, 4.0],
            "initial_state": {"re": [[0.5, 0.2, 0.0], [0.2, 0.3, 0.0], [0.0, 0.0, 0.2]]},
            "step_propagator": [[0, 0, 1], [1, 0, 0], [0, 1, 0]],
            "base_partitions": [{"diagonal_labels": ["a", "b", "b"]},
                                {"diagonal_labels": ["x", "x", "y"]}],
            # full access misses the event the diagonal restriction then finds
            "restrictions": [{"kind": "full"}] + [{"kind": "diagonal"}] * 3,
        },
    }

    @pytest.mark.parametrize("name,seed,code,digest", [
        ("diagonal_model.json", "0", 0,
         "0b270e45c3f2bb57ffcbce462ffe51e84ed00d1297215f06f3a6f90ff7e20747"),
        ("diagonal_model.json", "7", 0,
         "83e10bd2879692873bf33f742465bd8f9d0c6de7c7e428c9cabf304a8872c935"),
        ("diagonal_trajectories.json", "0", 0,
         "3dd2dbe9f2b7549dd9deff0ceca28eabdf7190cd1ae47098bbb3a332cbebe481"),
        ("diagonal_trajectories.json", "7", 0,
         "e710aaa07c269217a4bc97eff211bf73459fe94954c21105a8b919139b64d16c"),
        ("hadamard3.json", "0", 0,
         "ed972be398833f2bdc59cff9c8a6a9aa9ce6cd81061ec808273545365b7fb641"),
        ("hadamard3.json", "7", 0,
         "8b24e868b75f02d96d8d63052961dca9c81239fa0467408d30c471f356c6e3d4"),
        ("superposition_model.json", "0", 3,
         "3f571957508b7946024d634ce790cbbf088d0ba1c2640262ee97935c99ab6bb8"),
        ("superposition_model.json", "7", 3,
         "5ccb0eeda050d8e21098cedbeaea298f67d8d27a5583198559571d366b0f6c4c"),
        ("gated", "0", 0, "21034d7e185f36361ccd0acca2699319ffa45caa79adea84963e414cf1117ba5"),
        ("gated", "7", 0, "e8e6505a50753e22230d07577634a5f5c5e0efdf7590cc3df6b19e7554ab63bf"),
    ])
    def test_output_digest(self, tmp_path, capsys, name, seed, code, digest):
        cfg = (write_config(tmp_path, self.GATED) if name == "gated"
               else str(CONFIGS / name))
        assert cli.main(["detect", "--config", cfg, "--seed", seed]) == code
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


class TestLswGolden:
    """sha256 of `qevents lsw --check-consistency` JSON, pinned from the per-node tree walk."""

    @pytest.mark.parametrize("name,digest", [
        ("hadamard3.json", "d2d02959c412a2a79410b25db3a57ee5498e979db6432bd55ec3800a69a8ebff"),
        ("diagonal_model.json",
         "0076a710ecb1170b5ac38442c33208b97e29fe718c12fc84e85852f6fa4351a6"),
    ])
    def test_output_digest(self, capsys, name, digest):
        cfg = str(CONFIGS / name)
        assert cli.main(["lsw", "--check-consistency", "--config", cfg]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


class TestMesoscopicGolden:
    """sha256 of `qevents mesoscopic` JSON, pinned from the eager outcome-matrix sampler."""

    @pytest.mark.parametrize("seed,digest", [
        ("0", "04426db860c872cbf93c3f9b14fe5f0f7661c4d3fa6443a99e8d6581fca0e442"),
        ("7", "a36400dc812ad170cc682c5b567d2839c7d7df0598fb313f8721ad2054d75ae1"),
    ])
    @pytest.mark.filterwarnings("ignore:band half-width")
    def test_output_digest(self, capsys, seed, digest):
        cfg = str(CONFIGS / "mixture_reference.json")
        assert cli.main(["mesoscopic", "--config", cfg, "--seed", seed]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    @pytest.mark.filterwarnings("ignore:band half-width")
    def test_the_outcome_matrix_is_never_built(self, capsys, monkeypatch):
        def boom(sample):
            raise AssertionError("outcomes materialized")

        monkeypatch.setattr(ProtocolSample, "outcomes", property(boom))
        cfg = str(CONFIGS / "mixture_reference.json")
        assert cli.main(["mesoscopic", "--config", cfg]) == 0
        assert json.loads(capsys.readouterr().out)["count"] == 20000

    @pytest.mark.filterwarnings("ignore:band half-width")
    def test_reference_run_draws_in_bounded_memory(self):
        # count 20000 and n up to 500: 10**7 click words, drawn in chunks
        cfg = json.loads((CONFIGS / "mixture_reference.json").read_text())
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            base = tracemalloc.get_traced_memory()[0]
            cli.cmd_mesoscopic(cfg, 0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < 8 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"


class TestLsw:
    def test_protocol_probability(self, tmp_path, capsys):
        cfg = diagonal_detect_config(tmp_path, protocol=["+", "+"])
        assert cli.main(["lsw", "--config", cfg]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["probability"] == pytest.approx(0.3, rel=1e-12)
        assert out["protocol"]["times"] == [1.0, 2.0]

    def test_explicit_times(self, tmp_path, capsys):
        cfg = hadamard_config(tmp_path)
        payload = json.loads(open(cfg).read())
        payload["run"]["protocol"] = {"outcomes": ["+", "+"], "times": [1.0, 3.0]}
        cfg2 = write_config(tmp_path, payload, "skip.json")
        assert cli.main(["lsw", "--config", cfg2]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["probability"] == pytest.approx(0.3, rel=1e-12)

    def test_consistency_audit(self, tmp_path, capsys):
        cfg = hadamard_config(tmp_path, protocol=["+", "+"], steps=3)
        assert cli.main(["lsw", "--config", cfg, "--check-consistency"]) == 0
        out = json.loads(capsys.readouterr().out)
        audit = out["consistency"]
        assert audit["steps"] == 3 and audit["leaves"] == 8
        assert audit["max_marginal_residual"] < 1e-12
        assert audit["normalization_residual"] < 1e-12

    def test_unknown_outcome_label_is_a_config_error(self, tmp_path, capsys):
        cfg = diagonal_detect_config(tmp_path, protocol=["?"])
        assert cli.main(["lsw", "--config", cfg]) == 1
        capsys.readouterr()

    def test_csv_row(self, tmp_path, capsys):
        cfg = diagonal_detect_config(tmp_path, protocol=["+", "+"])
        assert cli.main(["lsw", "--config", cfg, "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "steps,probability"
        assert lines[1] == "2,0.3"


class TestMesoscopic:
    @pytest.mark.filterwarnings("ignore:band half-width")
    def test_summary_values(self, tmp_path, capsys):
        cfg = mixture_config(tmp_path, n_values=[50], count=0)
        assert cli.main(["mesoscopic", "--config", cfg]) == 0
        out = json.loads(capsys.readouterr().out)
        s = out["summary"]
        assert s["kappa"] == pytest.approx(0.5)
        assert s["sigma_min_bits"] == pytest.approx(0.7705590150115544, rel=1e-9)
        assert s["time_scale"] == pytest.approx(1.2977591339775645, rel=1e-9)
        assert s["n_star"] == 1
        assert 0.5 <= s["calibration_product_nats"] <= 3.0
        # exact-only run: no sampled columns
        for row in out["rows"]:
            assert row["empirical_mass"] is None
            assert row["mean_posterior_entropy_bits"] is None
            assert row["exact_mass"] is not None

    def test_sampled_run_populates_all_columns(self, tmp_path, capsys):
        cfg = mixture_config(tmp_path, n_values=[100], count=2000, seed=0)
        assert cli.main(["mesoscopic", "--config", cfg]) == 0
        out = json.loads(capsys.readouterr().out)
        rows = out["rows"]
        assert len(rows) == 2
        by_nu = {r["nu"]: r for r in rows}
        assert by_nu[0]["empirical_mass"] == pytest.approx(by_nu[0]["exact_mass"],
                                                           abs=0.05)
        for r in rows:
            assert r["cross_rate_nats"] is None or \
                r["cross_rate_nats"] <= r["sigma_min_rate_nats"] + 0.05

    @pytest.mark.filterwarnings("ignore:band half-width")
    def test_csv_with_out_file_prints_summary(self, tmp_path, capsys):
        out_path = tmp_path / "rows.csv"
        cfg = mixture_config(tmp_path, n_values=[50], count=0)
        code = cli.main(["mesoscopic", "--config", cfg,
                         "--format", "csv", "--out", str(out_path)])
        assert code == 0
        echoed = json.loads(capsys.readouterr().out)
        assert "summary" in echoed
        lines = out_path.read_text().splitlines()
        assert lines[0].startswith("n,nu,epsilon,count,empirical_mass")
        # empty sampled cells stay empty in CSV
        assert ",,," not in lines[0]

    def test_invalid_n_values(self, tmp_path, capsys):
        cfg = mixture_config(tmp_path, n_values=[])
        assert cli.main(["mesoscopic", "--config", cfg]) == 1
        capsys.readouterr()

    def test_zero_length_protocol_is_a_config_error(self, tmp_path, capsys):
        cfg = mixture_config(tmp_path, n_values=[0])
        assert cli.main(["mesoscopic", "--config", cfg]) == 1
        assert capsys.readouterr().err.startswith("config error: run.n_values: n=0")

    def test_non_numeric_n_values_is_a_config_error(self, tmp_path, capsys):
        cfg = mixture_config(tmp_path, n_values=["ten"])
        assert cli.main(["mesoscopic", "--config", cfg]) == 1
        assert capsys.readouterr().err.startswith("config error: run.n_values")

    @pytest.mark.parametrize("field", ["weights", "p_plus"])
    def test_nan_in_the_model_is_a_config_error(self, tmp_path, capsys, field):
        model = {"kind": "mixture", "weights": [0.4, 0.6], "p_plus": [0.8, 0.3]}
        model[field] = [float("nan"), model[field][1]]
        # json writes NaN as a bare literal, which json.load accepts
        cfg = write_config(tmp_path, {"schema": SCHEMA, "model": model})
        assert "NaN" in Path(cfg).read_text()
        assert cli.main(["mesoscopic", "--config", cfg]) == 1
        assert capsys.readouterr().err.startswith("config error: model:")


class TestIntegerFields:
    """Integer fields refuse booleans and fractions instead of truncating them."""

    @pytest.mark.parametrize("value", [2.5, 0.9, True, False])
    @pytest.mark.parametrize("field", ["seed", "samples", "keep_histories"])
    def test_trajectory_fields(self, tmp_path, capsys, field, value):
        cfg = hadamard_config(tmp_path, **{field: value})
        assert cli.main(["trajectory", "--config", cfg]) == 1
        assert capsys.readouterr().err.startswith(f"config error: run.{field} must be an integer")

    @pytest.mark.parametrize("value", [2.5, True])
    def test_lsw_steps(self, tmp_path, capsys, value):
        cfg = hadamard_config(tmp_path, protocol=["+", "+"], steps=value)
        assert cli.main(["lsw", "--config", cfg, "--check-consistency"]) == 1
        assert capsys.readouterr().err.startswith("config error: run.steps must be an integer")

    @pytest.mark.parametrize("field,value", [("n_values", [50.7]), ("n_values", [True]),
                                             ("count", 0.9), ("count", True),
                                             ("seed", 1.5)])
    def test_mesoscopic_fields(self, tmp_path, capsys, field, value):
        cfg = mixture_config(tmp_path, **{field: value})
        assert cli.main(["mesoscopic", "--config", cfg]) == 1
        assert capsys.readouterr().err.startswith(f"config error: run.{field} must be an integer")

    def test_integral_floats_are_accepted(self, tmp_path, capsys):
        cfg = hadamard_config(tmp_path, samples=4e1, keep_histories=2.0, seed=3.0)
        assert cli.main(["trajectory", "--config", cfg]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["samples"] == 40 and len(out["histories"]) == 2 and out["seed"] == 3
        cli.main(["trajectory", "--config", hadamard_config(tmp_path, samples=40, seed=3,
                                                            keep_histories=2)])
        assert json.loads(capsys.readouterr().out) == out

    @pytest.mark.filterwarnings("ignore:band half-width")
    def test_integral_floats_are_accepted_by_mesoscopic(self, tmp_path, capsys):
        cfg = mixture_config(tmp_path, n_values=[50.0], count=1e2)
        assert cli.main(["mesoscopic", "--config", cfg]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["count"] == 100 and {r["n"] for r in out["rows"]} == {50}


class TestDeterminism:
    @pytest.mark.parametrize("command,builder,extra", [
        ("detect", diagonal_detect_config, []),
        ("trajectory", lambda p: hadamard_config(p, samples=100, seed=3), []),
        ("lsw", lambda p: hadamard_config(p, protocol=["+", "-"]),
         ["--check-consistency"]),
        ("mesoscopic", lambda p: mixture_config(p, n_values=[50], count=500), []),
    ])
    @pytest.mark.filterwarnings("ignore:band half-width")
    def test_byte_identical_reruns(self, tmp_path, command, builder, extra):
        cfg = builder(tmp_path)
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert cli.main([command, "--config", cfg, "--out", str(out1)] + extra) in (0, 3)
        assert cli.main([command, "--config", cfg, "--out", str(out2)] + extra) in (0, 3)
        assert out1.read_bytes() == out2.read_bytes()

    def test_output_section_in_config(self, tmp_path, capsys):
        out_path = tmp_path / "via_config.csv"
        payload = json.loads(open(diagonal_detect_config(tmp_path)).read())
        payload["output"] = {"format": "csv", "path": str(out_path)}
        cfg = write_config(tmp_path, payload, "with_output.json")
        assert cli.main(["detect", "--config", cfg]) == 0
        assert out_path.exists()
        assert out_path.read_text().startswith("time,candidate")
        capsys.readouterr()


class TestRestrictionsConfig:
    def test_span_restriction_recovers_the_event(self, tmp_path, capsys):
        r3, r7 = 0.3 ** 0.5, 0.7 ** 0.5
        state_re = [[0.3, 0.0, 0.0, r3 * r7],
                    [0.0, 0.0, 0.0, 0.0],
                    [0.0, 0.0, 0.0, 0.0],
                    [r3 * r7, 0.0, 0.0, 0.7]]
        sub_basis = []
        for B in ([[1, 0], [0, 0]], [[0, 0], [0, 1]], [[0, 1], [0, 0]], [[0, 0], [1, 0]]):
            sub_basis.append({"re": np.kron(np.array(B, dtype=float),
                                            np.eye(2)).tolist()})
        payload = {
            "schema": SCHEMA,
            "model": {
                "kind": "frame",
                "times": [1.0],
                "initial_state": {"re": state_re},
                "partitions": {"diagonal_labels": ["0", "0", "1", "1"]},
                "restrictions": [{"kind": "span", "basis": sub_basis}],
            },
        }
        cfg = write_config(tmp_path, payload)
        assert cli.main(["detect", "--config", cfg]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["happened"] is True
        assert out["verdicts"][0]["distance"] == pytest.approx(0.0, abs=1e-10)

    def test_full_access_misses_the_same_event(self, tmp_path, capsys):
        r3, r7 = 0.3 ** 0.5, 0.7 ** 0.5
        state_re = [[0.3, 0.0, 0.0, r3 * r7],
                    [0.0, 0.0, 0.0, 0.0],
                    [0.0, 0.0, 0.0, 0.0],
                    [r3 * r7, 0.0, 0.0, 0.7]]
        payload = {
            "schema": SCHEMA,
            "model": {
                "kind": "frame",
                "times": [1.0],
                "initial_state": {"re": state_re},
                "partitions": {"diagonal_labels": ["0", "0", "1", "1"]},
                "restrictions": [{"kind": "full"}],
            },
        }
        cfg = write_config(tmp_path, payload)
        assert cli.main(["detect", "--config", cfg]) == 3
        out = json.loads(capsys.readouterr().out)
        assert out["verdicts"][0]["distance"] == pytest.approx(17.0 / 30.0, rel=1e-9)


    def test_diagonal_entries_share_one_algebra(self):
        model = dict(TestDetectGolden.GATED["model"])
        model["restrictions"] = [{"kind": "diagonal"}, {"kind": "diagonal"},
                                 {"kind": "full"}, {"kind": "diagonal"}]
        with pytest.raises(cli.ConfigError, match="unrestricted access"):
            cli._build_frame(model)
        model["restrictions"] = [{"kind": "full"}] + [{"kind": "diagonal"}] * 3
        frame, _ = cli._build_frame(model)
        first = frame.restrictions[1]
        assert first.blocks == ((1, 1),) * 3
        assert all(R is first for R in frame.restrictions[1:])

    def test_equal_span_entries_share_one_algebra(self, tmp_path, capsys):
        units = [[[int(a == b == i) for b in range(3)] for a in range(3)] for i in range(3)]
        payload = json.loads(json.dumps(TestDetectGolden.GATED))
        payload["model"]["restrictions"] = ([{"kind": "full"}]
                                            + [{"kind": "span", "basis": units}] * 3)
        frame, _ = cli._build_frame(payload["model"])
        first = frame.restrictions[1]
        assert first.blocks == ((1, 1),) * 3
        assert all(R is first for R in frame.restrictions[1:])
        assert cli.main(["detect", "--config", write_config(tmp_path, payload)]) == 0
        shared = capsys.readouterr().out
        # the same basis spelled three ways builds three algebras, with the same output
        spellings = [units, [[[float(x) for x in row] for row in B] for B in units],
                     [{"re": B} for B in units]]
        payload["model"]["restrictions"][1:] = [{"kind": "span", "basis": b} for b in spellings]
        frame, _ = cli._build_frame(payload["model"])
        assert len({id(R) for R in frame.restrictions[1:]}) == 3
        assert cli.main(["detect", "--config", write_config(tmp_path, payload)]) == 0
        assert capsys.readouterr().out == shared


class TestPublicEntryPoints:
    def test_cli_imports_no_private_name(self):
        tree = ast.parse(Path(cli.__file__).read_text())
        private = [f"{node.module}.{alias.name}" for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom)
                   and (node.level > 0 or (node.module or "").startswith("qevents"))
                   for alias in node.names if alias.name.startswith("_")]
        assert private == []


def demo_runs():
    """(command, config path) for every subcommand a demo config is written for."""
    runs = []
    for path in sorted(CONFIGS.glob("*.json")):
        cfg = json.loads(path.read_text())
        if cfg["model"]["kind"] == "mixture":
            runs.append(("mesoscopic", path))
            continue
        runs += [("detect", path), ("trajectory", path)]
        if "protocol" in cfg.get("run", {}):
            runs.append(("lsw", path))
    return runs


class TestColdImport:
    @pytest.mark.filterwarnings("ignore:band half-width")
    def test_demo_configs_run_without_scipy(self, tmp_path):
        """Every subcommand runs with scipy unimportable, byte for byte as in-process."""
        runs = demo_runs()
        assert {command for command, _ in runs} == {"detect", "trajectory", "lsw",
                                                    "mesoscopic"}
        # one subprocess runs them all: sys.modules['scipy'] = None makes any
        # import of scipy raise ImportError
        script = (
            "import json, sys\n"
            "sys.modules['scipy'] = None\n"
            "import qevents.cli\n"
            "runs = json.loads(sys.argv[1])\n"
            "codes = [qevents.cli.main(argv) for argv in runs]\n"
            "print(json.dumps(codes))\n"
        )
        argvs, expected = [], []
        for i, (command, path) in enumerate(runs):
            tail = ["--check-consistency"] if command == "lsw" else []
            argv = [command, "--config", str(path)] + tail
            argvs.append(argv + ["--out", str(tmp_path / f"cold{i}.json")])
            code = cli.main(argv + ["--out", str(tmp_path / f"warm{i}.json")])
            assert code in (0, 3), (command, path.name)
            expected.append(code)
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == expected
        for i, (command, path) in enumerate(runs):
            cold = (tmp_path / f"cold{i}.json").read_bytes()
            assert cold == (tmp_path / f"warm{i}.json").read_bytes(), (command, path.name)
