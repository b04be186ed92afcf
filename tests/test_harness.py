"""Harness: config loading, commands, logs, reports, comparison, traces."""

import csv
import glob
import hashlib
import json
import os
import re
import subprocess
from dataclasses import asdict, dataclass, fields, replace
from typing import ClassVar

import numpy as np
import pytest

from conftest import CONFIG_DIR
from coexctl import harness
from coexctl.harness import (
    ConfigFileError,
    EvalReport,
    ExperimentConfig,
    cmd_baseline,
    cmd_compare,
    cmd_evaluate,
    cmd_train,
    cmd_trace,
    code_version,
    config_from_dict,
    load_config,
    read_report,
    read_step_log,
    report_from_rollout,
    write_step_log,
)
from coexctl.cli import main
from coexctl.constraint import DualConfig, DualController
from coexctl.env import EPISODE_STEPS
from coexctl.learner import LearnerConfig, Rollout, StepLog, blas_threads
from coexctl.medium import NodeStats


def smoke_config(tmp_path, **overrides) -> ExperimentConfig:
    cfg = ExperimentConfig(
        episodes=2,
        eval_episodes=2,
        seed=3,
        out_dir=str(tmp_path / "run"),
        learner=LearnerConfig(
            hidden_layers=(16, 16), batch_size=16, buffer_capacity=1000,
            learning_rate=1e-3, target_sync_interval=100,
        ),
    )
    for k, v in overrides.items():
        setattr(cfg, k, v)
    return cfg


# ----------------------------------------------------------------------
# config loading


def test_full_scale_defaults_preset_loads():
    cfg = load_config(os.path.join(CONFIG_DIR, "full_scale.json"))
    assert cfg.d_th_us == 2000.0
    assert cfg.dual.kappa == 0.5
    assert cfg.dual.lambda_max == 5.0
    assert cfg.dual.update_period == 5
    assert cfg.dual.eta_lambda == 0.05
    assert cfg.learner.buffer_capacity == 100_000
    assert cfg.learner.learning_rate == 1e-5
    assert cfg.learner.batch_size == 256
    assert cfg.learner.hidden_layers == (1024, 1024, 1024)
    assert cfg.episodes == 10_000


@pytest.mark.parametrize(
    "path", sorted(glob.glob(os.path.join(CONFIG_DIR, "*.json"))), ids=os.path.basename
)
def test_bundled_config_loads_and_builds(path):
    cfg = load_config(path)
    env = cfg.build_env()
    dual = cfg.dual.controller()
    assert dual.lambda_max == cfg.dual.lambda_max
    env.reset(seed=cfg.seed)
    assert env.observe(dual.lam, dual.lambda_max).shape == (env.observation_dim,)


def test_unknown_key_rejected_by_name(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"seed": 1, "foo": 2}))
    with pytest.raises(ConfigFileError, match="foo"):
        load_config(str(path))


def test_unknown_nested_key_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"learner": {"bogus_rate": 1}}))
    with pytest.raises(ConfigFileError, match="bogus_rate"):
        load_config(str(path))


def test_cr_lbt_defaults_off(tmp_path):
    path = tmp_path / "min.json"
    path.write_text(json.dumps({"seed": 7}))
    cfg = load_config(str(path))
    assert cfg.cr_lbt is False
    assert cfg.scaling is True


def test_invalid_value_names_constraint(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"action_mode": "power"}))
    with pytest.raises(ConfigFileError, match="action_mode"):
        load_config(str(path))


@pytest.mark.parametrize("data,key", [
    ({"cr_lbt": "no"}, "cr_lbt"),
    ({"learner": 5}, "learner"),
    ({"counts": {"gnb_pc1": "2"}}, "counts"),
    ({"dual": [1]}, "dual"),
    # json.load reads NaN and Infinity; a float field takes only a finite number
    ({"d_th_us": float("nan")}, "d_th_us"),
    ({"learner": {"learning_rate": float("inf")}}, "learning_rate"),
    ([1], "JSON object"),
])
def test_wrong_typed_value_rejected_by_name(tmp_path, capsys, data, key):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ConfigFileError, match=key):
        load_config(str(path))
    assert main(["baseline", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("key,value", [
    ("episodes", 2.5), ("episodes", "5"), ("seed", True), ("d_th_us", True),
    ("cr_lbt", "no"), ("learner.batch_size", 64.0), ("d_th_us", float("nan")),
    ("d_th_us", float("-inf")), ("learner.learning_rate", float("inf")),
    pytest.param("d_th_us", 10**400, id="d_th_us-10**400"),  # beyond the float range
])
def test_validate_refuses_a_wrong_typed_value_set_in_code_by_name(tmp_path, key, value):
    cfg = smoke_config(tmp_path)
    section, _, name = key.rpartition(".")
    if section:
        cfg.learner = replace(cfg.learner, **{name: value})
    else:
        setattr(cfg, name, value)
    with pytest.raises(ConfigFileError, match=f"{section}.*wrong type for '{name}'"):
        cfg.validate()
    with pytest.raises(ConfigFileError, match=f"wrong type for '{name}'"):
        cmd_baseline(cfg)
    assert not os.path.exists(cfg.out_dir)


@pytest.mark.parametrize("dual", [
    {"kappa": 0.0}, {"kappa": -1.0}, {"update_period": 0}, {"lambda_max": -1.0},
    {"eta_lambda": 0.0}, {"alpha_v": 0.0}, {"alpha_v": 1.5},
])
def test_invalid_dual_settings_rejected_before_any_run(tmp_path, capsys, dual):
    (key,) = dual
    with pytest.raises(ValueError, match=key):
        DualController(**dual)
    # the config sets no dual: a file that tries is refused before any run
    out_dir = tmp_path / "out"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dual": dual, "eval_episodes": 1, "out_dir": str(out_dir)}))
    with pytest.raises(ConfigFileError, match="unknown key 'dual'"):
        load_config(str(path))
    assert main(["train", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out_dir.exists()


@pytest.mark.parametrize("data,key", [
    ({"seed": -1}, "seed"),
    ({"counts": {"gnb_pc1": 0, "gnb_pc3": 0, "ap_pc3": 0}}, "counts"),
    ({"episodes": 0}, "episodes"),
    ({"d_th_us": 0.0}, "d_th_us"),
    ({"counts": {"gnb_pc9": 1}}, "gnb_pc9"),
])
def test_negative_seed_and_empty_coex_mix_are_refused_by_name(tmp_path, capsys, data, key):
    out_dir = tmp_path / "out"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**data, "eval_episodes": 1, "out_dir": str(out_dir)}))
    with pytest.raises(ConfigFileError, match=key):
        load_config(str(path))
    for command in ("train", "baseline"):
        assert main([command, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err
    assert not out_dir.exists()


@pytest.mark.parametrize("count", [-1, 1.5, True])
def test_validate_refuses_a_count_set_in_code_that_is_not_an_int_of_at_least_0(tmp_path, count):
    cfg = smoke_config(tmp_path, counts={"gnb_pc1": count, "gnb_pc3": 1, "ap_pc3": 1})
    with pytest.raises(ConfigFileError, match="counts: gnb_pc1"):
        cfg.validate()
    with pytest.raises(ConfigFileError, match="counts: gnb_pc1"):
        cmd_baseline(cfg)
    assert not os.path.exists(cfg.out_dir)


@pytest.mark.parametrize("scenario", ["single_pc1", "coex"])
def test_coex_mix_is_the_only_scenario(scenario):
    # a constant that policy artifacts record, not a config key
    assert ExperimentConfig.scenario == "coex_mix"
    with pytest.raises(ConfigFileError, match="unknown key 'scenario'"):
        config_from_dict({"scenario": scenario})


# one out-of-range value for every learner and dual field, and a batch that
# the default buffer can never hold
OUT_OF_RANGE = [
    ("learner", "buffer_capacity", 0),
    ("learner", "learning_rate", 0.0),
    ("learner", "batch_size", 0),
    ("learner", "batch_size", LearnerConfig().buffer_capacity + 1),
    ("learner", "hidden_layers", [0]),
    ("learner", "target_sync_interval", 0),
    ("dual", "lambda_max", -1.0),
    ("dual", "eta_lambda", 0.0),
    ("dual", "update_period", 0),
    ("dual", "kappa", 0.0),
    ("dual", "alpha_v", 1.5),
]
SECTIONS = {"learner": LearnerConfig, "dual": DualConfig}


def test_out_of_range_cases_cover_every_learner_and_dual_field():
    assert {(section, key) for section, key, _ in OUT_OF_RANGE} == {
        (section, f.name) for section, cls in SECTIONS.items() for f in fields(cls)}


@pytest.mark.parametrize("section,key,value", OUT_OF_RANGE)
def test_out_of_range_learner_and_dual_values_are_refused_by_name(section, key, value):
    with pytest.raises(ValueError, match=key):
        SECTIONS[section](**{key: value}).validate()
    # a config file sets the learner; a dual section it refuses whole
    named = key if section == "learner" else "unknown key 'dual'"
    with pytest.raises(ConfigFileError, match=named) as refused:
        config_from_dict({section: {key: value}})
    assert section in str(refused.value)


# keys the config format once had, each at its old default: refused by name
# rather than ignored, so a config written for another meaning fails loudly
RETIRED_KEYS = {
    "step_duration_us": 2500,
    "episode_steps": 100,
    "learner.gamma": 0.99,
    "learner.epsilon_start": 1.0,
    "learner.epsilon_end": 0.01,
    "learner.epsilon_anneal_fraction": 0.5,
    "learner.total_episodes": 10_000,
    "actuate_wifi": False,
    "cr_redraw_on_defer": False,
    "scenario": "coex_mix",
    "dual": asdict(DualConfig()),
}


@pytest.mark.parametrize("key,value", RETIRED_KEYS.items(), ids=list(RETIRED_KEYS))
def test_retired_key_is_refused_by_name(tmp_path, capsys, key, value):
    section, _, name = key.rpartition(".")
    out_dir = tmp_path / "out"
    data = {"eval_episodes": 1, "out_dir": str(out_dir)}
    if section:
        data[section] = {name: value}
    else:
        data[name] = value
    path = tmp_path / "retired.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ConfigFileError, match=f"unknown key '{name}'"):
        load_config(str(path))
    assert main(["baseline", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and name in err
    assert not out_dir.exists()


def test_unparseable_config(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigFileError):
        load_config(str(path))


def test_config_roundtrip(tmp_path):
    cfg = smoke_config(tmp_path)
    again = config_from_dict(json.loads(json.dumps(asdict(cfg))))
    assert again == cfg


def test_step_log_bytes_are_those_of_csv_writer(tmp_path):
    values = [-0.0, 1e-05, 2.5e-300, 1.7976931348623157e+308, 0.1, float("inf"), 123.0]
    rows = []
    for i, big in enumerate((0, 2**62, -(10**30))):
        kw = {name: values[(i + k) % len(values)] for k, name in enumerate(StepLog._fields)}
        rows.append(StepLog(**{**kw, "episode": big, "step": 99 - i, "action": -1 + i}))
    path = tmp_path / "log.csv"
    write_step_log(str(path), rows)
    ref = tmp_path / "ref.csv"
    with open(ref, "w", newline="") as f:  # the former writer: csv.writer, repr of floats
        w = csv.writer(f)
        w.writerow(StepLog._fields)
        for r in rows:
            w.writerow([repr(v) if isinstance(v, float) else str(v) for v in r])
    assert path.read_bytes() == ref.read_bytes()
    assert b"-0.0," in path.read_bytes() and b",1e-05," in path.read_bytes()
    assert read_step_log(str(path))[0]["action"] == -1


# ----------------------------------------------------------------------
# train / evaluate / baseline


def test_smoke_train_writes_artifact_log_manifest(tmp_path):
    cfg = smoke_config(tmp_path)
    artifact, log = cmd_train(cfg)
    assert os.path.exists(artifact)
    rows = read_step_log(log)
    assert len(rows) == cfg.episodes * EPISODE_STEPS
    manifest = json.load(open(os.path.join(cfg.out_dir, "manifest.json")))
    assert manifest["seed"] == cfg.seed
    assert manifest["config"]["episodes"] == 2
    # the thread count a 2x16-wide network trains at: one, or null without control
    assert manifest["blas_threads"] == (None if blas_threads() is None else 1)


def test_five_episode_smoke_preset_writes_500_rows(tmp_path):
    cfg = load_config(os.path.join(CONFIG_DIR, "smoke.json"))
    cfg.out_dir = str(tmp_path / "smoke")
    _, log = cmd_train(cfg)
    assert len(read_step_log(log)) == 500


def test_rerun_same_manifest_bit_identical_log(tmp_path):
    logs = []
    for sub in ("a", "b"):
        cfg = smoke_config(tmp_path, out_dir=str(tmp_path / sub))
        _, log = cmd_train(cfg)
        logs.append(open(log, "rb").read())
    assert logs[0] == logs[1]


@pytest.mark.parametrize("scaling", [True, False], ids=["scaled", "raw"])
def test_train_log_constraint_consistency(tmp_path, scaling):
    # the logged violation is recomputable from the logged delay, and the
    # logged reward decomposes exactly (bitwise: the dual and the learner
    # consumed the same value)
    import math

    cfg = smoke_config(tmp_path, scaling=scaling)
    _, log = cmd_train(cfg)
    v_ema = 0.0
    alpha = cfg.dual.alpha_v
    for row in read_step_log(log):
        delay = row["delay_smooth_us"] if scaling else row["delay_inst_us"]
        v = (cfg.d_th_us - delay) / cfg.d_th_us
        assert row["v"] == v
        assert row["reward"] == row["jfi"] + row["lam"] * row["cost"]
        if scaling:
            assert row["v_scaled"] == math.tanh(v / cfg.dual.kappa)
            assert row["cost"] == min(0.0, row["v_scaled"])
            # the dual's smoothed trajectory follows the same scaled signal
            # the learner consumed
            v_ema = alpha * row["v_scaled"] + (1.0 - alpha) * v_ema
            assert row["v_ema"] == v_ema
        else:
            # raw arm: the unsmoothed signed violation goes to both sides and
            # drives the dual directly, with no EMA in between
            assert row["v_scaled"] == v
            assert row["cost"] == v
            assert row["v_ema"] == row["v_scaled"]


def test_evaluate_report_and_determinism(tmp_path):
    cfg = smoke_config(tmp_path)
    artifact, _ = cmd_train(cfg)
    r1 = cmd_evaluate(artifact, cfg)
    r2 = cmd_evaluate(artifact, cfg)
    assert r1 == r2
    assert set(r1.nodes) == {"gNB PC1", "gNB PC3", "AP PC3"}
    assert r1.d_th_ms == 2.0
    for n in r1.nodes:
        assert 0.0 <= r1.collision_probability[n] <= 1.0
        assert 0.0 <= r1.airtime_efficiency[n] <= 1.0


@pytest.mark.parametrize("mode,match", [("aifsn", "dimensions"), ("mcot", "action_mode")],
                         ids=["cw_to_aifsn", "cw_to_mcot"])
def test_evaluate_rejects_mismatched_config(tmp_path, mode, match):
    # aifsn changes the action count; mcot has cw's 49 actions, so only the
    # configuration recorded in the artifact tells the two apart
    cfg = smoke_config(tmp_path)
    artifact, _ = cmd_train(cfg)
    wrong = smoke_config(tmp_path, action_mode=mode, out_dir=str(tmp_path / "w"))
    with pytest.raises(ConfigFileError, match=match):
        cmd_evaluate(artifact, wrong)


@pytest.mark.parametrize("trained,evaluated", [
    ({"gnb_pc1": 1}, {}),
    ({}, {"ap_pc3": 1, "gnb_pc3": 1, "gnb_pc1": 1}),
], ids=["partial_then_omitted", "omitted_then_spelled_out"])
def test_evaluate_accepts_counts_spelled_another_way(tmp_path, trained, evaluated):
    cfg = smoke_config(tmp_path, episodes=1, eval_episodes=1, counts=trained)
    artifact, _ = cmd_train(cfg)
    cmd_evaluate(artifact, smoke_config(tmp_path, eval_episodes=1, counts=evaluated))


def test_evaluate_refuses_a_different_mix_of_as_many_nodes(tmp_path):
    cfg = smoke_config(tmp_path, episodes=1, eval_episodes=1, counts={"gnb_pc1": 1})
    artifact, _ = cmd_train(cfg)
    other = smoke_config(tmp_path, eval_episodes=1, counts={"gnb_pc1": 0, "gnb_pc3": 2})
    assert other.build_env().observation_dim == cfg.build_env().observation_dim
    with pytest.raises(ConfigFileError, match="trained with counts=.*'gnb_pc3': 2"):
        cmd_evaluate(artifact, other)


def test_baseline_schema_matches_evaluate(tmp_path):
    cfg = smoke_config(tmp_path, eval_episodes=1)
    artifact, _ = cmd_train(cfg)
    ev = cmd_evaluate(artifact, cfg)
    base = cmd_baseline(cfg)
    assert set(base.nodes) == set(ev.nodes)
    assert set(base.collision_probability) == set(ev.collision_probability)


def test_baseline_deterministic(tmp_path):
    cfg = smoke_config(tmp_path)
    assert cmd_baseline(cfg) == cmd_baseline(cfg)


def test_baseline_pc3_collisions_exceed_90_percent(tmp_path):
    # plain LBT, saturated defaults: PC3 collision probability above 90%
    cfg = smoke_config(tmp_path, eval_episodes=40)
    report = cmd_baseline(cfg)
    assert report.collision_probability["gNB PC3"] > 0.9
    assert report.collision_probability["AP PC3"] > 0.9


def test_single_contender_report(tmp_path):
    cfg = smoke_config(tmp_path, counts={"gnb_pc1": 1, "gnb_pc3": 0, "ap_pc3": 0})
    report = cmd_baseline(cfg)
    assert report.mean_jfi == 1.0
    assert report.collision_probability["gNB PC1"] == 0.0
    assert report.airtime_efficiency["gNB PC1"] > 0.5


def test_scenario_counts_configurable(tmp_path):
    cfg = smoke_config(tmp_path, counts={"gnb_pc1": 1, "gnb_pc3": 2, "ap_pc3": 1},
                       eval_episodes=1)
    env = cfg.build_env()
    assert env.n_nodes == 4
    report = cmd_baseline(cfg)
    assert set(report.nodes) == {"gNB PC1", "gNB PC3 #0", "gNB PC3 #1", "AP PC3"}


def test_eval_logs_are_greedy(tmp_path):
    cfg = smoke_config(tmp_path, eval_episodes=1)
    artifact, _ = cmd_train(cfg)
    cmd_evaluate(artifact, cfg)
    rows = read_step_log(os.path.join(cfg.out_dir, "eval_log.csv"))
    assert all(r["epsilon"] == 0.0 for r in rows)


@pytest.mark.parametrize("mode,cardinality", [("aifsn", 21), ("mcot", 49)])
def test_other_action_modes_train_and_evaluate(tmp_path, mode, cardinality):
    cfg = smoke_config(tmp_path, action_mode=mode, episodes=1, eval_episodes=1)
    artifact, log = cmd_train(cfg)
    assert len(read_step_log(log)) == 100
    report = cmd_evaluate(artifact, cfg)
    assert 0.0 <= report.mean_jfi <= 1.0
    env = cfg.build_env()
    assert env.n_actions == cardinality


def test_hard_episode_resets_flag(tmp_path):
    soft = smoke_config(tmp_path, out_dir=str(tmp_path / "soft"))
    hard = smoke_config(tmp_path, out_dir=str(tmp_path / "hard"))
    hard.hard_episode_resets = True
    _, log_soft = cmd_train(soft)
    _, log_hard = cmd_train(hard)
    assert open(log_soft).read() != open(log_hard).read()


def test_report_aggregation_matches_log(tmp_path):
    cfg = smoke_config(tmp_path)
    report = cmd_baseline(cfg)
    rows = read_step_log(os.path.join(cfg.out_dir, "baseline_log.csv"))
    assert report.mean_jfi == pytest.approx(np.mean([r["jfi"] for r in rows]), abs=1e-9)
    assert report.mean_pc1_delay_ms == pytest.approx(
        np.mean([r["delay_smooth_us"] for r in rows]) / 1000.0, abs=1e-9
    )
    viol = np.mean([r["delay_smooth_us"] > cfg.d_th_us for r in rows])
    assert report.violation_fraction == pytest.approx(viol, abs=1e-9)


def test_report_file_roundtrip(tmp_path):
    cfg = smoke_config(tmp_path, eval_episodes=1)
    report = cmd_baseline(cfg)
    again = read_report(os.path.join(cfg.out_dir, "baseline_report.txt"))
    assert again == report


@pytest.mark.parametrize("drop,match", [
    ("mean_pc1_delay_ms=", "lacks mean_pc1_delay_ms"),
    ("d_th_ms=", "lacks d_th_ms"),
])
def test_report_without_a_scalar_is_refused_by_name(tmp_path, capsys, drop, match):
    good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
    good.write_text("\n".join(synthetic_report().to_lines()) + "\n")
    bad.write_text("".join(line for line in good.read_text().splitlines(keepends=True)
                           if not line.startswith(drop)))
    with pytest.raises(ValueError, match=match):
        read_report(str(bad))
    assert main(["compare", str(good), str(bad)]) == 2
    assert match in capsys.readouterr().err


def test_report_line_without_equals_is_refused(tmp_path):
    path = tmp_path / "bad.txt"
    lines = synthetic_report().to_lines()
    path.write_text("\n".join(lines) + "\nmean_jfi 0.5\n")
    with pytest.raises(ValueError, match=f"bad.txt:{len(lines) + 1}: .*without '='.*mean_jfi 0.5"):
        read_report(str(path))


def test_report_with_a_repeated_key_is_refused_by_line(tmp_path, capsys):
    good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
    lines = synthetic_report().to_lines()
    good.write_text("\n".join(lines) + "\n")
    bad.write_text("\n".join(lines + ["mean_jfi=0.9"]) + "\n")
    match = f"bad.txt:{len(lines) + 1}: repeated report key 'mean_jfi'"
    with pytest.raises(ValueError, match=match):
        read_report(str(bad))
    assert main(["compare", str(good), str(bad)]) == 2
    assert match in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", ["mean_jfi", "airtime_efficiency[ap]"])
def test_report_with_a_non_finite_value_is_refused_by_line(tmp_path, capsys, key, value):
    good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
    lines = synthetic_report().to_lines()
    good.write_text("\n".join(lines) + "\n")
    number = next(i for i, line in enumerate(lines, 1) if line.startswith(key + "="))
    lines[number - 1] = f"{key}={value}"
    bad.write_text("\n".join(lines) + "\n")
    match = f"bad.txt:{number}: non-finite report value"
    with pytest.raises(ValueError, match=match):
        read_report(str(bad))
    assert main(["compare", str(good), str(bad)]) == 2
    assert match in capsys.readouterr().err


@pytest.mark.parametrize("key", ["mean_jfi", "airtime_efficiency[ap]"])
def test_report_with_a_value_that_is_not_a_number_is_refused_by_line(tmp_path, capsys, key):
    good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
    lines = synthetic_report().to_lines()
    good.write_text("\n".join(lines) + "\n")
    number = next(i for i, line in enumerate(lines, 1) if line.startswith(key + "="))
    lines[number - 1] = f"{key}=abc"
    bad.write_text("\n".join(lines) + "\n")
    match = f"bad.txt:{number}: report value is not a number"
    with pytest.raises(ValueError, match=match):
        read_report(str(bad))
    assert main(["compare", str(good), str(bad)]) == 2
    assert match in capsys.readouterr().err


def test_per_node_report_line_without_closing_bracket_is_refused(tmp_path):
    path = tmp_path / "bad.txt"
    lines = synthetic_report().to_lines()
    path.write_text("\n".join(lines) + "\ncollision_probability[a=0.1\n")
    match = rf"bad.txt:{len(lines) + 1}: .*without '\]'.*collision_probability\[a=0\.1"
    with pytest.raises(ValueError, match=match):
        read_report(str(path))


def test_per_node_report_line_with_an_empty_node_label_is_refused_by_line(tmp_path, capsys):
    good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
    lines = synthetic_report().to_lines()
    good.write_text("\n".join(lines) + "\n")
    bad.write_text("\n".join(lines + ["collision_probability[]=0.1",
                                      "airtime_efficiency[]=0.2"]) + "\n")
    match = f"bad.txt:{len(lines) + 1}: per-node report line with an empty node label"
    with pytest.raises(ValueError, match=re.escape(match)):
        read_report(str(bad))
    assert main(["compare", str(good), str(bad)]) == 2
    assert match in capsys.readouterr().err


def test_report_whose_per_node_sets_differ_is_refused_by_name(tmp_path, capsys):
    good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
    good.write_text("\n".join(synthetic_report().to_lines()) + "\n")
    bad.write_text(good.read_text().replace("airtime_efficiency[ap]", "airtime_efficiency[sta]"))
    match = "only in collision_probability: ap; only in airtime_efficiency: sta"
    with pytest.raises(ValueError, match=match):
        read_report(str(bad))
    assert main(["compare", str(good), str(bad)]) == 2
    assert match in capsys.readouterr().err


@pytest.mark.parametrize("drop,metric", [
    ("collision_probability[", "collision_probability"),
    ("airtime_efficiency[", "airtime_efficiency"),
    pytest.param(tuple(f"{m}[" for m in EvalReport.PER_NODE), "collision_probability",
                 id="all-per-node-rows"),
])
def test_report_without_rows_of_a_per_node_metric_is_refused_by_name(tmp_path, capsys,
                                                                      drop, metric):
    good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
    good.write_text("\n".join(synthetic_report().to_lines()) + "\n")
    bad.write_text("".join(line for line in good.read_text().splitlines(keepends=True)
                           if not line.startswith(drop)))
    match = f"bad.txt: report has no {metric} rows"
    with pytest.raises(ValueError, match=match):
        read_report(str(bad))
    assert main(["compare", str(good), str(bad)]) == 2
    assert match in capsys.readouterr().err


@pytest.mark.parametrize("line", ["mean_delay_ms=0.5", "airtime_share[ap]=0.3"])
def test_report_with_an_unknown_key_is_refused_by_line(tmp_path, line):
    path = tmp_path / "bad.txt"
    lines = synthetic_report().to_lines()
    path.write_text("\n".join(lines + [line]) + "\n")
    match = f"bad.txt:{len(lines) + 1}: unknown report key {line.split('=')[0]!r}"
    with pytest.raises(ValueError, match=re.escape(match)):
        read_report(str(path))


def test_a_third_per_node_metric_is_written_read_back_and_compared(tmp_path, monkeypatch):
    @dataclass
    class WithShare(EvalReport):
        PER_NODE: ClassVar[tuple] = (*EvalReport.PER_NODE, "airtime_share")
        airtime_share: dict

    monkeypatch.setattr(harness, "EvalReport", WithShare)
    report = WithShare(**asdict(synthetic_report()), airtime_share={"gnb": 0.6, "ap": 0.4})
    path = str(tmp_path / "r.txt")
    report.write(path)
    assert read_report(path) == report
    table = cmd_compare([path, path])
    assert [line.split()[0] for line in table.splitlines()[1:]] == list(report.metrics())
    assert "airtime_share[ap]" in report.metrics()


# ----------------------------------------------------------------------
# compare


def synthetic_report(**over):
    base = dict(
        nodes=["gnb", "ap"],
        collision_probability={"gnb": 0.974, "ap": 0.986},
        airtime_efficiency={"gnb": 0.09, "ap": 0.08},
        mean_pc1_delay_ms=0.52,
        p95_pc1_delay_ms=1.9,
        mean_jfi=0.5,
        violation_fraction=0.4,
        d_th_ms=2.0,
    )
    base.update(over)
    return EvalReport(**base)


def test_compare_delta_semantics(tmp_path):
    plain = synthetic_report()
    cr = synthetic_report(
        collision_probability={"gnb": 0.457, "ap": 0.616},
        airtime_efficiency={"gnb": 0.56, "ap": 0.32},
        mean_pc1_delay_ms=0.25,
    )
    p1, p2 = str(tmp_path / "plain.txt"), str(tmp_path / "cr.txt")
    plain.write(p1)
    cr.write(p2)
    table = cmd_compare([p1, p2])
    line = next(l for l in table.splitlines() if l.startswith("collision_probability[gnb]"))
    cells = line.split()
    assert float(cells[1]) == pytest.approx(0.974)
    assert float(cells[2]) == pytest.approx(0.457)
    assert float(cells[3]) == pytest.approx(0.457 - 0.974)


def test_compare_shows_each_reports_threshold(tmp_path):
    paths = []
    for d_th_ms in (2.0, 3.0):
        paths.append(str(tmp_path / f"d{d_th_ms}.txt"))
        synthetic_report(d_th_ms=d_th_ms).write(paths[-1])
    first_row = cmd_compare(paths).splitlines()[1].split()
    assert first_row[0] == "d_th_ms"
    assert [float(cell) for cell in first_row[1:]] == [2.0, 3.0, 1.0]


def test_compare_with_itself_all_zero(tmp_path):
    r = synthetic_report()
    p = str(tmp_path / "r.txt")
    r.write(p)
    table = cmd_compare([p, p])
    for line in table.splitlines()[1:]:
        assert float(line.split()[-1]) == 0.0


def test_compare_three_reports_pairwise_against_first(tmp_path):
    paths = []
    for i, jfi in enumerate([0.5, 0.6, 0.7]):
        r = synthetic_report(mean_jfi=jfi)
        p = str(tmp_path / f"r{i}.txt")
        r.write(p)
        paths.append(p)
    table = cmd_compare(paths)
    line = next(l for l in table.splitlines() if l.startswith("mean_jfi"))
    cells = line.split()
    assert float(cells[-2]) == pytest.approx(0.1)
    assert float(cells[-1]) == pytest.approx(0.2)


def test_compare_mismatched_nodes_rejected(tmp_path):
    a = synthetic_report()
    b = synthetic_report(nodes=["gnb"], collision_probability={"gnb": 0.1},
                         airtime_efficiency={"gnb": 0.9})
    pa, pb = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
    a.write(pa)
    b.write(pb)
    with pytest.raises(ValueError, match="node sets"):
        cmd_compare([pa, pb])


def test_compare_needs_two_reports(tmp_path):
    r = synthetic_report()
    p = str(tmp_path / "r.txt")
    r.write(p)
    with pytest.raises(ValueError):
        cmd_compare([p])


# ----------------------------------------------------------------------
# percentile and trace


def test_report_p95_is_the_nearest_rank():
    # the ceil(0.95 n)-th smallest delay, a sample itself, never an interpolation
    blank = StepLog._make([0] * len(StepLog._fields))
    for n in (1, 2, 19, 20, 21, 100, 1001):
        delays = np.random.default_rng(n).permutation(np.arange(1, n + 1) * 1000.0)
        log = [blank._replace(delay_smooth_us=float(d)) for d in delays]
        report = report_from_rollout(Rollout(log, {"nru_pc1_0": NodeStats()}), 2000.0)
        assert report.p95_pc1_delay_ms == -(-95 * n // 100), n


# The trace is integers only, so these digests do not depend on the BLAS build.
@pytest.mark.parametrize("seed,cr_lbt,digest", [
    (3, False, "14d882653cedad5f571faa9b7080499b3f66e78aaf6d45dc9d84fe1ff59d00d1"),
    (5, True, "05c93452d719ec193b10e67b95b041da7fc4961426aa6ac8d218b0c9e291d70e"),
])
def test_trace_event_stream_is_pinned(tmp_path, seed, cr_lbt, digest):
    out = tmp_path / "trace.csv"
    cmd_trace(ExperimentConfig(seed=seed, cr_lbt=cr_lbt), duration_us=1_000_000,
              out_path=str(out))
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# Computed before the single access timer replaced per-node access events.
def test_dense_cr_trace_event_stream_is_pinned(tmp_path):
    out = tmp_path / "trace.csv"
    cfg = ExperimentConfig(seed=7, cr_lbt=True, counts={"gnb_pc1": 2, "gnb_pc3": 3, "ap_pc3": 3})
    cmd_trace(cfg, duration_us=1_000_000, out_path=str(out))
    assert hashlib.sha256(out.read_bytes()).hexdigest() == "beb307fe12e2c5c306324aa0baba05a4d62a37e65842c04cea619076028babdb"


def test_trace_export_schema(tmp_path):
    cfg = smoke_config(tmp_path)
    out = str(tmp_path / "trace.csv")
    n = cmd_trace(cfg, duration_us=200_000, out_path=out)
    lines = open(out).read().splitlines()
    assert lines[0] == "t_start,t_end,node,tech,class,kind,delay"
    assert len(lines) == n + 1
    kinds = set()
    for line in lines[1:]:
        cells = line.split(",")
        assert int(cells[0]) < int(cells[1])
        assert cells[3] in ("NRU", "WIFI")
        assert cells[4] in ("PC1", "PC3")
        kinds.add(cells[5])
        if cells[5] == "SUCCESS":
            assert cells[6] != ""
        if cells[5] in ("RS", "CR_PULSE", "COLLISION"):
            assert cells[6] == ""
    assert "SUCCESS" in kinds or "COLLISION" in kinds


@pytest.mark.parametrize("status_out,expected", [("", "abc123"),
                                                 (" M src/coexctl/learner.py\n", "abc123+dirty")])
def test_code_version_marks_a_tree_with_local_edits(monkeypatch, status_out, expected):
    def fake_run(cmd, **kwargs):
        out = {"rev-parse": "abc123\n", "status": status_out}[cmd[1]]
        return subprocess.CompletedProcess(cmd, 0, stdout=out, stderr="")

    monkeypatch.setattr(subprocess, "run", fake_run)
    assert code_version() == expected
