"""End-to-end CLI behavior: exit codes, artifacts, determinism."""

import csv
import json
import os
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from condcnn import cli, storage, training
from condcnn import data as dp
from condcnn.errors import NumericError
from helpers import (CORRUPT_CONTAINERS, DAMAGED_CHECKPOINTS, make_motif_dataset,
                     stream_from_dataset, write_damaged_checkpoint)


@pytest.fixture
def workspace(tmp_path):
    """A canonical CSV plus a small run config pointing at it."""
    ds = make_motif_dataset(n_per_class=25, t=32, seed=0)
    stream = stream_from_dataset(ds)
    csv_path = tmp_path / "synth.csv"
    dp.write_canonical(csv_path, stream)
    config = {
        "name": "synth-smoke",
        "dataset": {
            "name": "synth",
            "canonical_csv": "synth.csv",
            "window_len": 32,
            "step": 32,
            "classes": 4,
            "resample_to_hz": None,
            "normalization": "zscore",
            "split": {"kind": "random", "train_fraction": 0.7},
        },
        "model": {
            "shorthand": "C(4)-C(8)-FC-Sm",
            "convs_per_block": 1,
            "kernel_length": 5,
            "pool": [2, 2],
            "n_experts": 2,
            "condconv_mask": None,
            "head": "pointwise-condconv",
            "routing_activation": "sigmoid",
            "dropout_rate": 0.1,
        },
        "train": {
            "batch_size": 20,
            "epochs": 2,
            "lr_schedule": {"type": "step", "init": 0.001, "factor": 0.1, "every": 50},
        },
        "seed": 0,
        "output_dir": str(tmp_path / "run"),
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    return tmp_path, config_path


# (section, key, value, field named in the error); a value of _DELETE drops the key
_DELETE = object()
MALFORMED_DATASET = [
    ("dataset", "window_len", "32", "window_len"),
    ("dataset", "step", 0, "step"),
    ("dataset", "classes", "4", "classes"),
    ("dataset", "split", {"kind": "random", "train_fraction": "0.7"}, "train_fraction"),
    ("dataset", "split", {"kind": "random", "train_fraction": 1.5}, "train_fraction"),
    ("dataset", "split", {"kind": "random", "train_fraction": 0.0}, "train_fraction"),
    ("dataset", "test_step", 16, "test_step"),
    ("dataset", "step", _DELETE, "step"),
    ("dataset", "split", [1], "split"),
    ("dataset", "split", {"kind": "bogus"}, "split"),
    ("dataset", "split", {"kind": "sessions", "train": [["s1", "a"]]}, "split"),
    ("dataset", "resample_to_hz", "33.3", "resample_to_hz"),
    ("dataset", "resample_to_hz", 0, "resample_to_hz"),
]
# kept apart so that pytest's index-based ids of the cases after
# MALFORMED_DATASET stay as they were
MALFORMED_CSV_PATH = [
    ("dataset", "canonical_csv", None, "canonical_csv"),
    ("dataset", "canonical_csv", 5, "canonical_csv"),
]
# split sections that, unchecked, would run as a 70/30 split or as a
# sessions split that matches no window
MALFORMED_SPLIT = {
    "misspelt train_fraction": {"kind": "random", "train_frac": 0.9},
    "integer subject": {"kind": "sessions", "train": [[1, "w0"]],
                        "test": [["synth", "w1"]]},
}


def _set_config_value(config_path, section, key, value):
    """Set `key` in `section`, or at the top level when `section` is None."""
    config = json.loads(config_path.read_text())
    target = config if section is None else config[section]
    if value is _DELETE:
        del target[key]
    else:
        target[key] = value
    config_path.write_text(json.dumps(config))


class TestConvert:
    def test_valid_file_exits_zero(self, tmp_path, capsys):
        raw = tmp_path / "raw.txt"
        raw.write_text("1,Walking,0,1.0,2.0,3.0;1,Jogging,1,2.0,3.0,4.0;")
        code = cli.main([
            "convert", "--dataset", "wisdm",
            "--in", str(raw), "--out", str(tmp_path / "c.csv"),
        ])
        assert code == 0
        assert "written: 2" in capsys.readouterr().out

    def test_missing_file_exits_two(self, tmp_path):
        code = cli.main([
            "convert", "--dataset", "wisdm",
            "--in", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "c.csv"),
        ])
        assert code == 2

    def test_bad_usage_exits_one(self):
        assert cli.main(["convert", "--dataset", "wisdm"]) == 1


class TestSegment:
    def test_window_count_matches_formula(self, workspace):
        tmp_path, config_path = workspace
        out = tmp_path / "seg"
        assert cli.main(["segment", "--config", str(config_path), "--out", str(out)]) == 0
        summary = json.loads((out / "segment-summary.json").read_text())
        assert summary["train_windows"] + summary["test_windows"] == 100

    def test_summary_shape_holds_for_an_empty_train_split(self, workspace):
        tmp_path, config_path = workspace
        _set_config_value(config_path, "dataset", "split", {
            "kind": "sessions", "train": [["synth", "nope"]],
            "test": [["synth", f"w{i}"] for i in range(100)]})
        out = tmp_path / "seg"
        assert cli.main(["segment", "--config", str(config_path), "--out", str(out)]) == 0
        summary = json.loads((out / "segment-summary.json").read_text())
        assert summary["train_windows"] == 0
        assert (summary["window_len"], summary["step"], summary["channels"]) == (32, 32, 3)
        _, meta = storage.load_container(out / "train.ds")
        assert sorted(meta) == ["label_names", "normalization_stats", "session", "subject"]

    def test_same_config_gives_identical_hashes(self, workspace):
        tmp_path, config_path = workspace
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cli.main(["segment", "--config", str(config_path), "--out", str(out_a)])
        cli.main(["segment", "--config", str(config_path), "--out", str(out_b)])
        sa = json.loads((out_a / "segment-summary.json").read_text())
        sb = json.loads((out_b / "segment-summary.json").read_text())
        assert sa["train_sha256"] == sb["train_sha256"]
        assert sa["test_sha256"] == sb["test_sha256"]
        assert (out_a / "train.ds").read_bytes() == (out_b / "train.ds").read_bytes()

    def test_label_beyond_configured_classes_exits_two(self, workspace, caplog):
        tmp_path, config_path = workspace
        config = json.loads(config_path.read_text())
        config["dataset"]["classes"] = 3  # the CSV carries 4 classes
        config_path.write_text(json.dumps(config))
        code = cli.main(["segment", "--config", str(config_path), "--out", str(tmp_path / "s")])
        assert code == 2
        assert "label 3" in caplog.text

    @pytest.mark.parametrize("section,key,value,field", MALFORMED_DATASET + MALFORMED_CSV_PATH)
    def test_malformed_dataset_value_exits_one(self, workspace, caplog,
                                               section, key, value, field):
        tmp_path, config_path = workspace
        _set_config_value(config_path, section, key, value)
        out = tmp_path / "bad-value"
        code = cli.main(["segment", "--config", str(config_path), "--out", str(out)])
        assert code == 1
        assert field in caplog.text
        assert "Traceback" not in caplog.text
        assert not (out / "train.ds").exists()

    @pytest.mark.parametrize("split", MALFORMED_SPLIT.values(), ids=MALFORMED_SPLIT)
    def test_malformed_split_exits_one_with_one_line(self, workspace, caplog, split):
        tmp_path, config_path = workspace
        _set_config_value(config_path, "dataset", "split", split)
        out = tmp_path / "bad-split"
        code = cli.main(["segment", "--config", str(config_path), "--out", str(out)])
        assert code == 1
        assert len(caplog.records) == 1 and "dataset split" in caplog.text
        assert not (out / "train.ds").exists()

    @staticmethod
    def _segment_and_train_exit_two_with_one_line(workspace, caplog, line_no):
        tmp_path, config_path = workspace
        for command in ("segment", "train"):
            caplog.clear()
            out = tmp_path / f"out-{command}"
            code = cli.main([command, "--config", str(config_path), "--out", str(out)])
            assert code == 2
            assert len(caplog.records) == 1
            assert caplog.records[0].getMessage().endswith(
                f"synth.csv: line {line_no}: not valid UTF-8")
            assert not (out / "train.ds").exists()

    def test_non_utf8_header_exits_two(self, workspace, caplog):
        csv_path = workspace[0] / "synth.csv"
        lines = csv_path.read_bytes().split(b"\n")
        lines[1] = lines[1].replace(b"subject", b"subj\xe9ct")
        csv_path.write_bytes(b"\n".join(lines))
        self._segment_and_train_exit_two_with_one_line(workspace, caplog, 2)

    def test_non_utf8_body_label_exits_two(self, workspace, caplog):
        # the last row, so the first reads decode cleanly and the body parse meets it
        csv_path = workspace[0] / "synth.csv"
        lines = csv_path.read_bytes().split(b"\n")
        assert lines[-1] == b""
        cells = lines[-2].split(b",")
        cells[2] += b"\xe9"
        lines[-2] = b",".join(cells)
        csv_path.write_bytes(b"\n".join(lines))
        self._segment_and_train_exit_two_with_one_line(workspace, caplog, len(lines) - 1)

    def test_missing_dataset_key_exits_one_in_a_subprocess(self, workspace):
        tmp_path, config_path = workspace
        _set_config_value(config_path, "dataset", "step", _DELETE)
        done = subprocess.run(
            [sys.executable, "-m", "condcnn.cli", "segment", "--config", str(config_path),
             "--out", str(tmp_path / "s")],
            capture_output=True, text=True,
        )
        assert done.returncode == 1
        assert "step" in done.stderr and "Traceback" not in done.stderr
        assert len(done.stderr.strip().splitlines()) == 1

    @pytest.mark.parametrize("body", [b'{"dataset": ', b'{"name": "\xff"}'],
                             ids=["truncated", "not-utf8"])
    def test_unreadable_config_exits_one_with_one_line(self, tmp_path, caplog, body):
        config_path = tmp_path / "config.json"
        config_path.write_bytes(body)
        out = tmp_path / "s"
        code = cli.main(["segment", "--config", str(config_path), "--out", str(out)])
        assert code == 1
        assert len(caplog.records) == 1 and str(config_path) in caplog.text
        assert "Traceback" not in caplog.text
        assert not out.exists()


class TestTrain:
    def test_smoke_run_produces_artifacts(self, workspace):
        tmp_path, config_path = workspace
        run = tmp_path / "run"
        assert cli.main(["train", "--config", str(config_path)]) == 0
        for name in ("config.json", "history.csv", "report.txt", "best.ckpt", "last.ckpt"):
            assert (run / name).exists(), name
        history = (run / "history.csv").read_text().strip().splitlines()
        assert history[0] == "epoch,lr,train_loss,test_acc"
        assert len(history) == 3  # header + 2 epochs

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
                        reason="needs 2 usable CPUs and affinity masks")
    def test_run_on_one_core_writes_the_bytes_of_a_run_on_all(self, workspace):
        # WISDM-shaped (T 200, 3 channels) and wide enough that the init fill,
        # the 64 -> 128 conv (82 M multiply-adds a batch), batch norm and
        # Adam (the 164 k-element experts) each split over the cores
        tmp_path, config_path = workspace
        ds = make_motif_dataset(n_per_class=10, t=200, seed=0)
        dp.write_canonical(tmp_path / "wide.csv", stream_from_dataset(ds))
        config = json.loads(config_path.read_text())
        config["dataset"].update(canonical_csv="wide.csv", window_len=200, step=200)
        config["model"].update(shorthand="C(64)-C(128)-FC-Sm", n_experts=4)
        config["train"]["epochs"] = 1
        config_path.write_text(json.dumps(config))
        cpu = min(os.sched_getaffinity(0))
        runs = {}
        for name, pin in [("one-core", lambda: os.sched_setaffinity(0, {cpu})),
                          ("all-cores", None)]:
            runs[name] = tmp_path / name
            done = subprocess.run(
                [sys.executable, "-m", "condcnn.cli", "train", "--config", str(config_path),
                 "--out", str(runs[name])],
                capture_output=True, text=True, preexec_fn=pin, timeout=300,
            )
            assert done.returncode == 0, done.stderr
        for artifact in ("config.json", "history.csv", "report.txt", "last.ckpt", "best.ckpt",
                         "train.ds", "test.ds"):
            assert ((runs["one-core"] / artifact).read_bytes()
                    == (runs["all-cores"] / artifact).read_bytes()), artifact

    def test_zero_epochs_exits_zero_with_empty_history(self, workspace):
        tmp_path, config_path = workspace
        run = tmp_path / "zero"
        code = cli.main([
            "train", "--config", str(config_path), "--epochs", "0", "--out", str(run),
        ])
        assert code == 0
        assert (run / "history.csv").read_text().strip() == "epoch,lr,train_loss,test_acc"

    def test_rerun_reproduces_history_bytes(self, workspace):
        tmp_path, config_path = workspace
        run_a, run_b = tmp_path / "ra", tmp_path / "rb"
        cli.main(["train", "--config", str(config_path), "--out", str(run_a)])
        cli.main(["train", "--config", str(config_path), "--out", str(run_b)])
        assert (run_a / "history.csv").read_bytes() == (run_b / "history.csv").read_bytes()
        assert (run_a / "best.ckpt").read_bytes() == (run_b / "best.ckpt").read_bytes()

    def test_expert_override_lands_in_echoed_config(self, workspace):
        tmp_path, config_path = workspace
        run = tmp_path / "override"
        cli.main([
            "train", "--config", str(config_path), "--out", str(run), "--experts", "4",
        ])
        echoed = json.loads((run / "config.json").read_text())
        assert echoed["model"]["n_experts"] == 4

    def test_numeric_halt_exits_three_after_writing_the_run(self, workspace, caplog,
                                                            monkeypatch):
        tmp_path, config_path = workspace
        step, calls = training.Adam.step, []

        def second_step_of_epoch_one_fails(adam, lr):
            calls.append(lr)
            if len(calls) == 6:  # 70 training windows in batches of 20: 4 steps an epoch
                raise NumericError("non-finite gradient in 'head.experts'; step aborted")
            return step(adam, lr)

        monkeypatch.setattr(training.Adam, "step", second_step_of_epoch_one_fails)
        run = tmp_path / "halted"
        caplog.clear()
        code = cli.main(["train", "--config", str(config_path), "--out", str(run)])
        assert code == 3
        assert len(caplog.records) == 1 and "halting" in caplog.text
        for name in ("history.csv", "report.txt", "best.ckpt", "last.ckpt"):
            assert (run / name).exists(), name
        assert len((run / "history.csv").read_text().splitlines()) == 2  # header + epoch 0
        assert "halted: True" in (run / "report.txt").read_text().splitlines()
        _, meta = storage.load_container(run / "last.ckpt")
        assert meta["epoch"] == 1 and "halted" not in meta

    def test_halt_before_any_epoch_reports_no_results(self, workspace, capsys,
                                                       monkeypatch):
        tmp_path, config_path = workspace

        def step_fails(adam, lr):
            raise NumericError("non-finite gradient in 'head.experts'; step aborted")

        monkeypatch.setattr(training.Adam, "step", step_fails)
        run = tmp_path / "halted-early"
        assert cli.main(["train", "--config", str(config_path), "--out", str(run)]) == 3
        assert capsys.readouterr().out == f"no epoch completed -> {run}\n"
        report = (run / "report.txt").read_text().splitlines()
        assert "no epoch completed" in report
        assert not any(line.startswith("best ") or "-1" in line for line in report[2:])
        assert not (run / "last.ckpt").exists() and not (run / "best.ckpt").exists()

    def test_killed_run_leaves_a_resumable_directory(self, workspace):
        tmp_path, config_path = workspace
        run = tmp_path / "killed"
        proc = subprocess.Popen(
            [sys.executable, "-m", "condcnn.cli", "train", "--config", str(config_path),
             "--out", str(run), "--epochs", "100000"],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 60
            while not (run / "last.ckpt").exists():
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.01)
            assert proc.poll() is None
        finally:
            proc.kill()
            proc.wait(timeout=30)
        killed = tmp_path / "killed.ckpt"
        os.replace(run / "last.ckpt", killed)
        model, state = training.load_checkpoint(killed)
        epochs = state["epoch"] + 2

        # the uninterrupted run, in the directory the killed run still names
        code = cli.main(["train", "--config", str(config_path), "--out", str(run),
                         "--epochs", str(epochs)])
        assert code == 0

        config = json.loads((run / "config.json").read_text())
        resumed = tmp_path / "resumed"
        history = training.train(
            model, dp.WindowedDataset.load(run / "train.ds"),
            dp.WindowedDataset.load(run / "test.ds"),
            training.TrainConfig(
                batch_size=config["train"]["batch_size"], epochs=epochs,
                lr_schedule=training.schedule_from_dict(config["train"]["lr_schedule"]),
                seed=config["seed"], checkpoint_dir=str(resumed),
            ),
            start_state=state,
        )
        history.to_csv(resumed / "history.csv")
        for name in ("history.csv", "last.ckpt"):
            assert (resumed / name).read_bytes() == (run / name).read_bytes(), name

    @pytest.mark.parametrize("schedule,field", [
        ({"type": "step", "init": 0.001, "factor": 0.1, "every": 0}, "every"),
        ({"type": "step", "init": 0.001, "factor": 0.0, "every": 50}, "factor"),
        ({"type": "milestones", "points": []}, "points"),
        ({"type": "step", "init": "0.001", "factor": 0.1, "every": 50}, "init"),
        ({"type": "milestones", "points": [[0.5]]}, "points"),
        ({"type": "milestones", "points": 5}, "points"),
        ({"type": "milestones", "points": [["a", 0.001]]}, "points"),
        (5, "lr_schedule"),
        ([], "lr_schedule"),
        ({"type": "step", "init": 0.001, "factor": 0.1, "every": 50, "warmup": 5}, "warmup"),
        ({"type": "step", "init": 0.001, "every": 50}, "factor"),
        ({"type": "milestones", "points": [[1.0, 0.001]], "every": 50}, "every"),
        ({"init": 0.001, "factor": 0.1, "every": 50}, "type"),
    ])
    def test_bad_lr_schedule_exits_one_before_writing(self, workspace, caplog,
                                                       schedule, field):
        tmp_path, config_path = workspace
        config = json.loads(config_path.read_text())
        config["train"]["lr_schedule"] = schedule
        config_path.write_text(json.dumps(config))
        run = tmp_path / "bad-schedule"
        code = cli.main(["train", "--config", str(config_path), "--out", str(run)])
        assert code == 1
        assert field in caplog.text
        assert not (run / "train.ds").exists()

    @pytest.mark.parametrize("section,key,value,field", MALFORMED_DATASET + [
        ("train", "batch_size", "32", "batch_size"),
        ("train", "epochs", True, "epochs"),
        ("train", "weight_decay", 0.1, "weight_decay"),
        ("train", "epochs", _DELETE, "epochs"),
        (None, "seeds", [0, 1], "seeds"),
        (None, "train", 5, "train config"),
        (None, "dataset", _DELETE, "dataset"),
        (None, "dataset", 5, "dataset"),
        ("model", "n_expert", 8, "n_expert"),
        ("model", "shorthand", _DELETE, "shorthand"),
        ("model", "shorthand", "C(4)-C(8)-Sm", "FC-Sm"),
        ("model", "n_experts", 0, "n_experts"),
        ("model", "n_experts", 1.5, "n_experts"),
        ("model", "head", "bogus", "head"),
        ("model", "dropout_rate", 1.5, "dropout_rate"),
        ("model", "kernel_length", 0, "kernel_length"),
        ("model", "kernel_length", 33, "kernel length 33"),
        ("model", "convs_per_block", 0, "convs_per_block"),
    ] + MALFORMED_CSV_PATH + [
        ("model", "shorthand", 5, "shorthand"),
        ("model", "condconv_mask", 5, "condconv_mask"),
        ("model", "pin_routing", "yes", "pin_routing"),
        (None, "seed", -1, "seed"),
        (None, "seed", 1.5, "seed"),
        (None, "seed", "a", "seed"),
        (None, "seed", True, "seed"),
        (None, "output_dir", 5, "output_dir"),
    ])
    def test_malformed_config_value_exits_one_before_writing(
            self, workspace, caplog, section, key, value, field):
        tmp_path, config_path = workspace
        _set_config_value(config_path, section, key, value)
        run = tmp_path / "bad-value"
        code = cli.main(["train", "--config", str(config_path), "--out", str(run)])
        assert code == 1
        assert field in caplog.text
        assert "Traceback" not in caplog.text
        assert not (run / "config.json").exists()
        assert not (run / "train.ds").exists()

    @pytest.mark.parametrize("section,value,flag", [
        ("train", 5, ["--epochs", "3"]),
        ("model", [1], ["--experts", "3"]),
    ])
    def test_override_into_malformed_section_exits_one_before_writing(
            self, workspace, caplog, section, value, flag):
        tmp_path, config_path = workspace
        _set_config_value(config_path, None, section, value)
        run = tmp_path / "bad-section"
        code = cli.main(["train", "--config", str(config_path), "--out", str(run)] + flag)
        assert code == 1
        assert f"{section} " in caplog.text and "must be a dict" in caplog.text
        assert not (run / "train.ds").exists()

    @pytest.mark.parametrize("empty", ["train", "test"])
    def test_empty_split_exits_two_before_writing(self, workspace, caplog, empty):
        tmp_path, config_path = workspace
        pairs = {"train": [["synth", f"w{i}"] for i in range(50)],
                 "test": [["synth", f"w{i}"] for i in range(50, 100)]}
        pairs[empty] = [["synth", "nope"]]
        _set_config_value(config_path, "dataset", "split", {"kind": "sessions", **pairs})
        run = tmp_path / "empty-split"
        code = cli.main(["train", "--config", str(config_path), "--out", str(run)])
        assert code == 2
        # the split's own warnings come first: the windows it drops, the
        # classes the empty split lacks
        errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1 and f"{empty} split" in errors[0]
        assert list(run.iterdir()) == []

    # (command, section, key, flags); each key is deleted from the config
    MISSING_KEYS = [
        ("train", None, "train", []),
        ("train", None, "model", []),
        ("train", None, "train", ["--epochs", "3"]),
        ("train", None, "model", ["--experts", "3"]),
        ("segment", "dataset", "canonical_csv", []),
        ("train", "dataset", "canonical_csv", []),
    ]

    @pytest.mark.parametrize("command,section,key,flags", MISSING_KEYS)
    def test_missing_key_exits_one_with_one_line(self, workspace, caplog,
                                                  command, section, key, flags):
        tmp_path, config_path = workspace
        _set_config_value(config_path, section, key, _DELETE)
        out = tmp_path / "missing-key"
        code = cli.main([command, "--config", str(config_path), "--out", str(out)] + flags)
        assert code == 1
        assert len(caplog.records) == 1
        assert "missing" in caplog.text and key in caplog.text
        assert not any(out.glob("*"))

    def test_lock_of_a_live_process_is_reported_concurrent(self, workspace, caplog):
        tmp_path, config_path = workspace
        run = tmp_path / "locked"
        holder = subprocess.Popen(
            [sys.executable, "-c",
             "import sys, time\n"
             "from condcnn import cli\n"
             "with cli._RunLock(sys.argv[1]):\n"
             "    print('held', flush=True)\n"
             "    time.sleep(600)\n",
             str(run)],
            stdout=subprocess.PIPE, text=True,
        )
        try:
            assert holder.stdout.readline() == "held\n"
            caplog.clear()
            code = cli.main(["train", "--config", str(config_path), "--out", str(run)])
            assert code == 1
            assert len(caplog.records) == 1 and "locked by another process" in caplog.text
            assert list(run.iterdir()) == []  # the lock is no file, and nothing was written
        finally:
            holder.kill()
            holder.wait(timeout=30)
            holder.stdout.close()
        assert cli.main(["train", "--config", str(config_path), "--out", str(run)]) == 0

    def test_leftover_lockfile_blocks_nothing(self, workspace):
        # older versions guarded a run with a `.lock` file that a killed run
        # left behind; it means nothing now
        tmp_path, config_path = workspace
        run = tmp_path / "old-lock"
        run.mkdir()
        (run / ".lock").write_text(json.dumps({"host": "gone", "pid": 1}) + "\n")
        assert cli.main(["train", "--config", str(config_path), "--out", str(run)]) == 0


class TestAnalyze:
    @pytest.fixture
    def trained(self, workspace):
        tmp_path, config_path = workspace
        run = tmp_path / "run"
        cli.main(["train", "--config", str(config_path)])
        return tmp_path, run

    def test_flops_report_needs_no_dataset(self, trained, capsys):
        tmp_path, run = trained
        out = tmp_path / "flops"
        code = cli.main([
            "analyze", "--checkpoint", str(run / "best.ckpt"),
            "--which", "flops", "--out", str(out),
        ])
        assert code == 0
        text = (out / "flops.csv").read_text()
        assert "layer,multiply_adds,flops,params" in text
        # the checkpointed model has 2 experts: report carries the ratio
        assert "flops ratio vs 1 expert" in (out / "flops.txt").read_text()

    def test_flops_report_draws_no_random_init(self, trained, monkeypatch):
        tmp_path, run = trained

        def no_rng(*args, **kwargs):
            raise AssertionError("analyze drew a random init")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        out = tmp_path / "flops"
        code = cli.main([
            "analyze", "--checkpoint", str(run / "best.ckpt"),
            "--which", "flops", "--out", str(out),
        ])
        assert code == 0
        assert "flops ratio vs 1 expert" in (out / "flops.txt").read_text()

    def test_confusion_matches_history_accuracy(self, trained):
        tmp_path, run = trained
        out = tmp_path / "conf"
        code = cli.main([
            "analyze", "--checkpoint", str(run / "best.ckpt"),
            "--which", "confusion", "--dataset", str(run / "test.ds"),
            "--out", str(out),
        ])
        assert code == 0
        # best checkpoint accuracy equals the best row of the history
        history = (run / "history.csv").read_text().strip().splitlines()[1:]
        best_acc = max(float(line.split(",")[3]) for line in history)
        report = (out / "confusion.txt").read_text()
        assert f"accuracy: {best_acc:.4f}" in report

    def test_confusion_csv_quotes_label_names(self, workspace):
        """Label names with a comma or a double quote reach confusion.csv
        quoted: csv.reader reads three cells a row, naming them exactly."""
        tmp_path, config_path = workspace
        names = ['say "hi"', "sit", "walk", "walk, fast"]
        stream = stream_from_dataset(make_motif_dataset(n_per_class=25, t=32, seed=0))
        dp.write_canonical(tmp_path / "synth.csv", replace(stream, label_names=names))
        run, out = tmp_path / "run", tmp_path / "conf"
        assert cli.main(["train", "--config", str(config_path), "--epochs", "1"]) == 0
        code = cli.main([
            "analyze", "--checkpoint", str(run / "best.ckpt"),
            "--which", "confusion", "--dataset", str(run / "test.ds"),
            "--out", str(out),
        ])
        assert code == 0
        with open(out / "confusion.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["true", "predicted", "count"]
        assert all(len(row) == 3 for row in rows)
        assert [row[:2] for row in rows[1:]] == [[t, p] for t in names for p in names]

    def test_routing_reports_written(self, trained):
        tmp_path, run = trained
        out = tmp_path / "routing"
        code = cli.main([
            "analyze", "--checkpoint", str(run / "last.ckpt"),
            "--which", "routing", "--dataset", str(run / "test.ds"),
            "--out", str(out),
        ])
        assert code == 0
        assert (out / "routing-histogram.csv").exists()
        assert (out / "routing-class-means.csv").exists()

    def test_divergence_report(self, trained):
        tmp_path, run = trained
        out = tmp_path / "div"
        code = cli.main([
            "analyze", "--checkpoint", str(run / "last.ckpt"),
            "--which", "divergence", "--dataset", str(run / "test.ds"),
            "--out", str(out),
        ])
        assert code == 0
        lines = (out / "divergence.csv").read_text().strip().splitlines()
        assert lines[0] == "layer,divergence"
        assert len(lines) > 1

    def test_key_error_inside_a_command_reaches_the_caller(self, trained, monkeypatch):
        # a KeyError from a bug is not reported as a config error
        from condcnn import analysis

        def count_flops(model):
            raise KeyError("bug")

        monkeypatch.setattr(analysis, "count_flops", count_flops)
        tmp_path, run = trained
        with pytest.raises(KeyError, match="bug"):
            cli.main(["analyze", "--checkpoint", str(run / "best.ckpt"),
                      "--which", "flops", "--out", str(tmp_path / "flops")])

    def test_missing_dataset_flag_is_usage_error(self, trained):
        tmp_path, run = trained
        code = cli.main([
            "analyze", "--checkpoint", str(run / "best.ckpt"),
            "--which", "routing", "--out", str(tmp_path / "x"),
        ])
        assert code == 1

    @pytest.mark.parametrize("case", sorted(CORRUPT_CONTAINERS) + sorted(DAMAGED_CHECKPOINTS))
    def test_corrupt_checkpoint_exits_two_with_one_line(self, tmp_path, caplog, case):
        ckpt = tmp_path / "corrupt.ckpt"
        if case in CORRUPT_CONTAINERS:
            ckpt.write_bytes(CORRUPT_CONTAINERS[case][0])
        else:
            write_damaged_checkpoint(ckpt, DAMAGED_CHECKPOINTS[case])
        code = cli.main([
            "analyze", "--checkpoint", str(ckpt), "--which", "flops",
            "--out", str(tmp_path / "flops"),
        ])
        assert code == 2
        assert len(caplog.records) == 1 and str(ckpt) in caplog.text
        assert "Traceback" not in caplog.text

    def test_dataset_without_a_meta_key_exits_two_with_one_line(self, trained, caplog):
        tmp_path, run = trained
        arrays, meta = storage.load_container(run / "test.ds")
        del meta["label_names"]
        bad = tmp_path / "no-label-names.ds"
        storage.save_container(bad, arrays, meta)
        caplog.clear()
        code = cli.main([
            "analyze", "--checkpoint", str(run / "best.ckpt"),
            "--which", "confusion", "--dataset", str(bad), "--out", str(tmp_path / "z"),
        ])
        assert code == 2
        assert len(caplog.records) == 1 and "label_names" in caplog.text
        assert "Traceback" not in caplog.text

    @pytest.mark.parametrize("names", [5, None], ids=["number", "null"])
    def test_dataset_with_malformed_label_names_exits_two_with_one_line(self, trained, caplog,
                                                                        names):
        tmp_path, run = trained
        arrays, meta = storage.load_container(run / "test.ds")
        bad = tmp_path / "bad-label-names.ds"
        storage.save_container(bad, arrays, dict(meta, label_names=names))
        caplog.clear()
        code = cli.main([
            "analyze", "--checkpoint", str(run / "best.ckpt"),
            "--which", "confusion", "--dataset", str(bad), "--out", str(tmp_path / "z"),
        ])
        assert code == 2
        assert len(caplog.records) == 1
        assert str(bad) in caplog.text and "label_names" in caplog.text
        assert "Traceback" not in caplog.text

    @pytest.mark.parametrize("which", ["confusion", "routing"])
    def test_labels_beyond_the_model_classes_exit_two_with_one_line(self, trained, caplog,
                                                                    which):
        tmp_path, run = trained
        arrays, meta = storage.load_container(run / "test.ds")
        arrays["y"][0] = 4  # the model has 4 classes, 0..3
        bad = tmp_path / "label-4.ds"
        storage.save_container(bad, arrays, meta)
        caplog.clear()
        out = tmp_path / f"out-{which}"
        code = cli.main([
            "analyze", "--checkpoint", str(run / "best.ckpt"),
            "--which", which, "--dataset", str(bad), "--out", str(out),
        ])
        assert code == 2
        assert len(caplog.records) == 1
        assert str(bad) in caplog.text and "[0, 4]" in caplog.text
        assert "4 classes" in caplog.text and "Traceback" not in caplog.text
        assert os.listdir(out) == []

    @pytest.mark.parametrize("which", ["confusion", "routing"])
    def test_more_label_names_than_classes_exit_two_with_one_line(self, trained, caplog,
                                                                  which):
        tmp_path, run = trained
        arrays, meta = storage.load_container(run / "test.ds")
        names = [*meta["label_names"], "extra1", "extra2"]  # every label stays < 4
        bad = tmp_path / "six-names.ds"
        storage.save_container(bad, arrays, dict(meta, label_names=names))
        caplog.clear()
        out = tmp_path / f"out-{which}"
        code = cli.main([
            "analyze", "--checkpoint", str(run / "best.ckpt"),
            "--which", which, "--dataset", str(bad), "--out", str(out),
        ])
        assert code == 2
        assert len(caplog.records) == 1 and str(bad) in caplog.text
        assert "6 label names" in caplog.text and "4 classes" in caplog.text
        assert "Traceback" not in caplog.text
        assert os.listdir(out) == []

    def test_incompatible_dataset_is_data_error(self, trained, tmp_path):
        tmp_path_ws, run = trained
        other = make_motif_dataset(n_per_class=5, t=16, seed=1)
        bad = tmp_path_ws / "bad.ds"
        other.save(bad)
        code = cli.main([
            "analyze", "--checkpoint", str(run / "best.ckpt"),
            "--which", "confusion", "--dataset", str(bad),
            "--out", str(tmp_path_ws / "y"),
        ])
        assert code == 2


@pytest.mark.parametrize("command", ["train", "segment", "analyze"])
@pytest.mark.parametrize("below", ["", "sub"])
def test_out_through_a_regular_file_exits_one_with_one_line(workspace, caplog, monkeypatch,
                                                            command, below):
    tmp_path, config_path = workspace

    def too_early(*args, **kwargs):
        raise AssertionError("input read before --out was made")

    # `--out` is made first, so a bad one costs no data or checkpoint load
    monkeypatch.setattr(dp, "ingest_canonical", too_early)
    monkeypatch.setattr(training, "load_checkpoint", too_early)
    blocker = tmp_path / "notadir"
    blocker.write_text("a file\n")
    out = blocker / below if below else blocker
    if command == "analyze":
        ckpt = tmp_path / "model.ckpt"
        write_damaged_checkpoint(ckpt, lambda arrays, meta: None)  # left intact
        argv = ["analyze", "--checkpoint", str(ckpt), "--which", "flops"]
    else:
        argv = [command, "--config", str(config_path)]
    before = sorted(tmp_path.rglob("*"))
    caplog.clear()
    code = cli.main(argv + ["--out", str(out)])
    assert code == 1
    assert len(caplog.records) == 1 and str(out) in caplog.text
    assert "Traceback" not in caplog.text
    assert sorted(tmp_path.rglob("*")) == before
    assert blocker.read_text() == "a file\n"


@pytest.mark.parametrize("command", ["train", "segment"])
def test_negative_seed_flag_exits_one_before_any_read(workspace, caplog, monkeypatch,
                                                      command):
    tmp_path, config_path = workspace

    def too_early(*args, **kwargs):
        raise AssertionError("data read before the seed was checked")

    monkeypatch.setattr(dp, "ingest_canonical", too_early)
    out = tmp_path / "out"
    code = cli.main([command, "--config", str(config_path), "--out", str(out), "--seed", "-1"])
    assert code == 1
    assert len(caplog.records) == 1 and "seed" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("where", ["analyze --checkpoint", "analyze --dataset",
                                   "segment canonical_csv", "train --config",
                                   "segment --config"])
def test_input_that_is_a_directory_exits_two_with_one_line(workspace, caplog, where):
    """An input path that exists but cannot be read as a file is an OSError:
    exit 2, with one log line that names it."""
    tmp_path, config_path = workspace
    folder = tmp_path / "a-directory"
    folder.mkdir()
    ckpt = tmp_path / "model.ckpt"
    write_damaged_checkpoint(ckpt, lambda arrays, meta: None)  # left intact
    if where == "analyze --checkpoint":
        argv = ["analyze", "--checkpoint", str(folder), "--which", "flops"]
    elif where == "analyze --dataset":
        argv = ["analyze", "--checkpoint", str(ckpt), "--which", "confusion",
                "--dataset", str(folder)]
    elif where.endswith("--config"):
        argv = [where.split()[0], "--config", str(folder)]
    else:
        _set_config_value(config_path, "dataset", "canonical_csv", str(folder))
        argv = ["segment", "--config", str(config_path)]
    caplog.clear()
    code = cli.main(argv + ["--out", str(tmp_path / "out")])
    assert code == 2
    assert len(caplog.records) == 1 and str(folder) in caplog.text
    assert "Traceback" not in caplog.text
    if where.endswith("--config"):  # read before anything is written
        assert not (tmp_path / "out").exists()


def test_importing_the_cli_leaves_numpy_unloaded():
    # `main` pins the numeric thread count, which numpy reads when it loads
    done = subprocess.run(
        [sys.executable, "-c", "import sys, condcnn.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS")


def test_the_test_process_pins_blas_threads():
    # tests/conftest.py pins them before any test imports numpy, as `main` does
    assert all(os.environ.get(var) for var in BLAS_THREAD_VARS)


def test_pinning_keeps_a_thread_count_the_caller_set(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    cli._pin_threads()
    assert (os.environ["OPENBLAS_NUM_THREADS"], os.environ["MKL_NUM_THREADS"]) == ("3", "1")


def test_data_preparation_leaves_the_engine_unloaded():
    # importing `autodiff` raises glibc's mmap and trim thresholds; `segment`
    # and `convert` run on these modules alone and keep glibc's defaults
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, condcnn.cli, condcnn.data; print('condcnn.autodiff' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


class TestBundledConfigs:
    def test_all_four_parse_and_build(self):
        import importlib.resources as resources

        from condcnn import archspec
        from condcnn.autodiff import Tensor

        shapes = {
            "wisdm": (200, 3, 6),
            "pamap2": (512, 27, 12),
            "unimib": (151, 3, 17),
            "opportunity": (64, 113, 18),
        }
        for name, (t, c, classes) in shapes.items():
            text = resources.files("condcnn.configs").joinpath(f"{name}.json").read_text()
            config = json.loads(text)
            spec = archspec.spec_from_dict(config["model"])
            model = archspec.build_model(spec, (t, c), classes, seed=0)
            assert model.meta["n_classes"] == classes
            x = Tensor(np.random.default_rng(0).normal(size=(2, t, c)))
            shape = (t, c)
            for layer in model.eval().layers:
                shape, _, _ = layer.cost(shape)
                x = layer.forward(x)
                assert x.data.shape == (2,) + shape, layer.name
            assert x.data.shape == (2, classes)
