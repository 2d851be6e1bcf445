"""End-to-end CLI behavior: exit codes, artifacts, determinism."""

import json
import os
import shlex
import socket
import subprocess
import sys

import numpy as np
import pytest

from condcnn import cli, storage
from condcnn import data as dp
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
SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


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

    @pytest.mark.parametrize("section,key,value,field", MALFORMED_DATASET)
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
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC_DIR),
        )
        assert done.returncode == 1
        assert "step" in done.stderr and "Traceback" not in done.stderr
        assert len(done.stderr.strip().splitlines()) == 1


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
        assert not (run / ".lock").exists()

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
        ("model", "n_experts", 0, "n_experts"),
        ("model", "n_experts", 1.5, "n_experts"),
        ("model", "head", "bogus", "head"),
        ("model", "dropout_rate", 1.5, "dropout_rate"),
        ("model", "kernel_length", 0, "kernel_length"),
        ("model", "kernel_length", 33, "kernel length 33"),
        ("model", "convs_per_block", 0, "convs_per_block"),
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

    def test_lockfile_blocks_concurrent_runs(self, workspace):
        tmp_path, config_path = workspace
        run = tmp_path / "locked"
        os.makedirs(run, exist_ok=True)
        (run / ".lock").write_text("")
        code = cli.main(["train", "--config", str(config_path), "--out", str(run)])
        assert code == 1

    def test_lockfile_names_its_process_and_host(self, tmp_path):
        with cli._RunLock(str(tmp_path / "held")):
            owner = json.loads((tmp_path / "held" / ".lock").read_text())
        assert owner == {"host": socket.gethostname(), "pid": os.getpid()}
        assert not (tmp_path / "held" / ".lock").exists()

    def _train_against_lock(self, workspace, pid):
        tmp_path, config_path = workspace
        run = tmp_path / "locked"
        os.makedirs(run)
        lock = run / ".lock"
        lock.write_text(json.dumps({"host": socket.gethostname(), "pid": pid}))
        code = cli.main(["train", "--config", str(config_path), "--out", str(run)])
        assert lock.exists()  # never removed automatically
        return code, lock

    def test_lock_of_an_exited_process_is_reported_stale(self, workspace, caplog):
        done = subprocess.run([sys.executable, "-c", "import os; print(os.getpid())"],
                              capture_output=True, text=True, check=True)
        code, lock = self._train_against_lock(workspace, int(done.stdout))
        assert code == 1
        assert "stale lock" in caplog.text
        assert f"rm {shlex.quote(str(lock))}" in caplog.text

    def test_lock_of_a_live_process_is_reported_concurrent(self, workspace, caplog):
        code, _ = self._train_against_lock(workspace, os.getpid())
        assert code == 1
        assert "locked by another process" in caplog.text
        assert "stale" not in caplog.text


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
        del meta["window_len"]
        bad = tmp_path / "no-window-len.ds"
        storage.save_container(bad, arrays, meta)
        caplog.clear()
        code = cli.main([
            "analyze", "--checkpoint", str(run / "best.ckpt"),
            "--which", "confusion", "--dataset", str(bad), "--out", str(tmp_path / "z"),
        ])
        assert code == 2
        assert len(caplog.records) == 1 and "window_len" in caplog.text
        assert "Traceback" not in caplog.text

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
