"""Command-line interface: subcommands, flag overrides, error paths."""

import json
import os
import struct

import pytest

from coexctl.cli import main


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
                 "--seed", "9"]) == 0
    assert os.path.exists(os.path.join(out2, "baseline_report.txt"))


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


def test_missing_artifact_errors(tmp_path):
    cfg = write_cfg(tmp_path)
    assert main(["evaluate", str(tmp_path / "nope.bin"), "--config", cfg]) == 2


@pytest.mark.parametrize("n", ["0", "-2"])
def test_baseline_with_no_eval_episodes_is_an_error(tmp_path, capsys, n):
    cfg = write_cfg(tmp_path)
    assert main(["baseline", "--config", cfg, "--eval-episodes", n]) == 2
    assert capsys.readouterr().err.startswith("error: episodes must be >= 1")


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
