"""Command-line interface: subcommands, flag overrides, error paths."""

import json
import os
import struct

import pytest

from coexctl import harness
from coexctl.cli import main
from coexctl.env import EPISODE_STEPS


def write_cfg(tmp_path, **over):
    cfg = {
        "episodes": 1,
        "eval_episodes": 1,
        "seed": 2,
        "out_dir": str(tmp_path / "out"),
        "learner": {
            "hidden_layers": [16], "batch_size": 16, "buffer_capacity": 500,
            "learning_rate": 1e-3, "target_sync_interval": 100,
        },
    }
    cfg.update(over)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_train_then_evaluate_then_compare(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert main(["train", "--config", cfg]) == 0
    out_dir = str(tmp_path / "out")
    artifact = os.path.join(out_dir, "policy.bin")
    assert os.path.exists(artifact)
    assert main(["evaluate", artifact, "--config", cfg]) == 0
    assert main(["baseline", "--config", cfg]) == 0
    capsys.readouterr()
    assert main([
        "compare",
        os.path.join(out_dir, "eval_report.txt"),
        os.path.join(out_dir, "baseline_report.txt"),
    ]) == 0
    table = capsys.readouterr().out
    assert "mean_jfi" in table and "collision_probability[gNB PC3]" in table


def test_flag_overrides_config(tmp_path):
    cfg = write_cfg(tmp_path)
    out2 = str(tmp_path / "out2")
    assert main(["baseline", "--config", cfg, "--cr-lbt", "on", "--out", out2,
                 "--seed", "9", "--eval-episodes", "2"]) == 0
    assert os.path.exists(os.path.join(out2, "baseline_report.txt"))
    log = harness.read_step_log(os.path.join(out2, "baseline_log.csv"))
    assert [row["episode"] for row in log[::EPISODE_STEPS]] == [0, 1]
    # the train-only --episodes, --action-mode and --scaling reach the run too
    out3 = str(tmp_path / "out3")
    assert main(["train", "--config", cfg, "--out", out3, "--episodes", "2",
                 "--action-mode", "aifsn", "--scaling", "off"]) == 0
    config = json.load(open(os.path.join(out3, "manifest.json")))["config"]
    assert (config["episodes"], config["action_mode"], config["scaling"]) == (2, "aifsn", False)
    assert len(harness.read_step_log(os.path.join(out3, "train_log.csv"))) == 2 * EPISODE_STEPS


def test_trace_subcommand(tmp_path):
    trace = str(tmp_path / "t.csv")
    assert main(["trace", "--seed", "1", "--duration-us", "50000",
                 "--trace-out", trace]) == 0
    header = open(trace).readline().strip()
    assert header == "t_start,t_end,node,tech,class,kind,delay"


def test_bad_config_returns_error_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"frobnicate": 1}))
    assert main(["train", "--config", str(path)]) == 2
    assert "frobnicate" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "baseline"])
def test_negative_seed_flag_is_refused_before_the_output_directory(tmp_path, capsys, command):
    cfg = write_cfg(tmp_path)
    assert main([command, "--config", cfg, "--seed", "-1"]) == 2
    assert capsys.readouterr().err.startswith("error: seed must be >= 0")
    assert not (tmp_path / "out").exists()


def test_config_path_that_is_a_directory_is_an_error(tmp_path, capsys):
    assert main(["train", "--config", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_out_path_that_is_a_file_fails_before_the_rollout(tmp_path, capsys, monkeypatch):
    def no_rollout(*args, **kwargs):
        raise AssertionError("rollout ran before the output directory was made")

    monkeypatch.setattr(harness, "greedy_rollout", no_rollout)
    cfg = write_cfg(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["baseline", "--config", cfg, "--out", str(taken)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_missing_artifact_errors(tmp_path):
    cfg = write_cfg(tmp_path)
    assert main(["evaluate", str(tmp_path / "nope.bin"), "--config", cfg]) == 2


@pytest.mark.parametrize("n", ["0", "-2"])
def test_baseline_with_no_eval_episodes_is_an_error(tmp_path, capsys, n):
    cfg = write_cfg(tmp_path)
    assert main(["baseline", "--config", cfg, "--eval-episodes", n]) == 2
    assert capsys.readouterr().err.startswith(f"error: eval_episodes must be >= 1, got {n}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [["baseline"], ["evaluate", "policy.bin"], ["trace"]])
def test_episodes_flag_is_train_only(tmp_path, capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--episodes", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --episodes 3" in capsys.readouterr().err


def test_truncated_artifact_is_an_error_not_a_traceback(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    artifact = tmp_path / "policy.bin"
    artifact.write_bytes(b"CXQP")
    assert main(["evaluate", str(artifact), "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith("error: policy artifact ends inside")


def test_wrong_typed_artifact_header_is_an_error_not_a_traceback(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    head = json.dumps({"version": 1, "obs_dim": 3, "n_actions": 2, "hidden_layers": 5,
                       "shapes": [], "checksum": ""}).encode()
    artifact = tmp_path / "policy.bin"
    artifact.write_bytes(b"CXQP" + struct.pack("<I", len(head)) + head)
    assert main(["evaluate", str(artifact), "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith("error: policy artifact header hidden_layers")
