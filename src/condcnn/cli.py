"""Command-line interface: convert raw data, segment datasets, train
models, and produce analysis reports from reproducible JSON configs.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 numeric
failure. All artifacts (configs, datasets, checkpoints, CSVs, reports)
are byte-deterministic for a fixed config and seed; timestamps appear
only in log lines on stderr.

The numeric thread count is pinned before numpy loads (default 1, for
run-to-run determinism); override with CONDCNN_NUM_THREADS.
"""

import argparse
import hashlib
import json
import logging
import os
import shlex
import socket
import sys

log = logging.getLogger("condcnn")


def _pin_threads():
    count = os.environ.get("CONDCNN_NUM_THREADS", "1")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, count)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="condcnn",
        description="Conditionally parameterized temporal CNNs for "
                    "time-series classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_convert = sub.add_parser("convert", help="convert a raw dataset to canonical CSV")
    p_convert.add_argument("--dataset", required=True, choices=["wisdm"])
    p_convert.add_argument("--in", dest="in_path", required=True)
    p_convert.add_argument("--out", required=True)

    p_segment = sub.add_parser("segment", help="window, normalize, and split a dataset")
    p_segment.add_argument("--config", required=True)
    p_segment.add_argument("--out", required=True)
    p_segment.add_argument("--seed", type=int, default=None)

    p_train = sub.add_parser("train", help="train a model per config into a run directory")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--out", default=None, help="run directory (default: config output_dir)")
    p_train.add_argument("--seed", type=int, default=None)
    p_train.add_argument("--epochs", type=int, default=None)
    p_train.add_argument("--experts", type=int, default=None)

    p_analyze = sub.add_parser("analyze", help="produce reports from a checkpoint")
    p_analyze.add_argument("--checkpoint", required=True)
    p_analyze.add_argument("--which", required=True,
                           choices=["flops", "confusion", "routing", "divergence"])
    p_analyze.add_argument("--dataset", default=None,
                           help="segmented dataset artifact (.ds); not needed for flops")
    p_analyze.add_argument("--out", required=True)
    return parser


def load_run_config(path, seed=None, epochs=None, experts=None):
    """Read a run config, apply CLI overrides, resolve data paths
    relative to the config file."""
    from .errors import check_dict, check_keys

    with open(path, "r", encoding="utf-8") as fh:
        config = json.load(fh)
    check_keys("run config", config, ("dataset",),
               ("name", "model", "train", "seed", "output_dir"))
    base = os.path.dirname(os.path.abspath(path))
    dataset = check_dict("dataset config", config["dataset"])
    csv_path = dataset.get("canonical_csv")
    if csv_path and not os.path.isabs(csv_path):
        dataset["canonical_csv"] = os.path.normpath(os.path.join(base, csv_path))
    if seed is not None:
        config["seed"] = seed
    if epochs is not None:
        check_dict("train config", config["train"])["epochs"] = epochs
    if experts is not None:
        check_dict("model spec", config["model"])["n_experts"] = experts
    config.setdefault("seed", 0)
    return config


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_json(path, payload):
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


class _RunLock:
    """Guards a run directory against concurrent writers.

    The lockfile records the owner's PID and host. A clash with a lock
    whose process no longer exists on this host is reported as stale, with
    the command that clears it; the lock is never removed automatically.
    """

    def __init__(self, directory):
        self.path = os.path.join(directory, ".lock")

    def __enter__(self):
        from .errors import ConfigError

        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        try:
            self.fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise ConfigError(self._clash_message()) from None
        owner = {"host": socket.gethostname(), "pid": os.getpid()}
        os.write(self.fd, (json.dumps(owner) + "\n").encode("utf-8"))
        return self

    def __exit__(self, *exc):
        os.close(self.fd)
        os.unlink(self.path)

    def _clash_message(self):
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                owner = json.load(fh)
            pid, host = int(owner["pid"]), owner["host"]
        except (OSError, ValueError, TypeError, KeyError):
            pid = host = None
        if host == socket.gethostname() and pid > 0 and not _process_exists(pid):
            return (
                f"stale lock {self.path}: process {pid} on {host} no longer "
                f"exists; clear it with: rm {shlex.quote(self.path)}"
            )
        return (
            f"run directory is locked by another process ({self.path}); "
            f"remove the lockfile if that process is gone"
        )


def _process_exists(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OverflowError):
        return True  # alive under another user, or not a PID to judge
    return True


def _prepare_datasets(config):
    """Config -> (train, test) windowed datasets, normalized with
    train-split statistics only."""
    from . import data as dp

    dataset_cfg = config["dataset"]
    profile = dp.DatasetProfile.from_dict(dataset_cfg)
    stream = dp.ingest_canonical(dataset_cfg["canonical_csv"])
    if profile.resample_to_hz:
        stream = dp.resample(stream, profile.resample_to_hz)
    windows = dp.segment_windows(stream, profile)
    train_ds, test_ds = dp.split(windows, profile, seed=config["seed"])
    train_ds, stats = dp.normalize(train_ds, profile.normalization)
    if stats is not None:  # empty train split leaves nothing to standardize by
        test_ds, _ = dp.normalize(test_ds, profile.normalization, stats=stats)
    return train_ds, test_ds


def cmd_convert(args):
    from . import data as dp

    report = dp.convert_wisdm(args.in_path, args.out)
    print(report.summary())
    return 0


def cmd_segment(args):
    config = load_run_config(args.config, seed=args.seed)
    train_ds, test_ds = _prepare_datasets(config)
    os.makedirs(args.out, exist_ok=True)
    train_path = os.path.join(args.out, "train.ds")
    test_path = os.path.join(args.out, "test.ds")
    train_ds.save(train_path)
    test_ds.save(test_path)
    summary = {
        "train_windows": len(train_ds),
        "test_windows": len(test_ds),
        "window_len": train_ds.window_len,
        "step": train_ds.step,
        "channels": int(train_ds.x.shape[2]) if len(train_ds) else None,
        "train_sha256": _sha256(train_path),
        "test_sha256": _sha256(test_path),
        "config": config,
    }
    _write_json(os.path.join(args.out, "segment-summary.json"), summary)
    if len(train_ds) == 0:
        log.warning("segmentation produced an empty training set")
    print(f"train windows: {len(train_ds)}; test windows: {len(test_ds)}")
    return 0


def cmd_train(args):
    from . import analysis, archspec, training
    from .errors import check_keys

    config = load_run_config(
        args.config, seed=args.seed, epochs=args.epochs, experts=args.experts
    )
    run_dir = args.out or config.get("output_dir") or "run"
    # the train and model sections are validated before anything is written
    train_section = config["train"]
    check_keys("train config", train_section, ("batch_size", "epochs", "lr_schedule"))
    train_cfg = training.TrainConfig(
        batch_size=train_section["batch_size"],
        epochs=train_section["epochs"],
        lr_schedule=training.schedule_from_dict(train_section["lr_schedule"]),
        seed=config["seed"],
        checkpoint_dir=run_dir,
    )
    spec = archspec.spec_from_dict(config["model"])
    with _RunLock(run_dir):
        # first, so a malformed dataset section or a model that does not fit
        # the windows leaves nothing written
        train_ds, test_ds = _prepare_datasets(config)
        input_shape = (train_ds.window_len, train_ds.x.shape[2])
        model = archspec.build_model(spec, input_shape, config["dataset"]["classes"],
                                     seed=config["seed"])
        _write_json(os.path.join(run_dir, "config.json"), config)
        train_ds.save(os.path.join(run_dir, "train.ds"))
        test_ds.save(os.path.join(run_dir, "test.ds"))
        history = training.train(model, train_ds, test_ds, train_cfg)
        history.to_csv(os.path.join(run_dir, "history.csv"))

        flops = analysis.count_flops(model)
        report_lines = [
            "condcnn training report",
            f"config: {json.dumps(config, sort_keys=True)}",
            f"epochs run: {len(history.rows)}",
            f"best epoch: {history.best_epoch}",
            f"best test accuracy: {history.best_accuracy:.6f}",
            f"halted: {history.halted}",
            f"parameters: {analysis.count_params(model)}",
            f"flops per example: {flops.total_flops}",
            f"flops convention: {flops.counting_convention}",
        ]
        with open(os.path.join(run_dir, "report.txt"), "w", newline="\n",
                  encoding="utf-8") as fh:
            fh.write("\n".join(report_lines) + "\n")
        print(f"best epoch {history.best_epoch}: "
              f"test accuracy {history.best_accuracy:.4f} -> {run_dir}")
    return 0


def cmd_analyze(args):
    from . import analysis, training
    from . import data as dp
    from .errors import ConfigError

    model, _state = training.load_checkpoint(args.checkpoint)
    os.makedirs(args.out, exist_ok=True)

    if args.which == "flops":
        report = analysis.count_flops(model)
        lines = [report.to_text()]
        meta = model.meta
        if meta.get("spec") and meta["spec"].get("n_experts", 1) != 1:
            from . import archspec

            baseline_spec = archspec.spec_from_dict(dict(meta["spec"], n_experts=1))
            baseline = archspec.build_model(
                baseline_spec, tuple(meta["input_shape"]), meta["n_classes"],
                seed=meta["seed"],
            )
            base_total = analysis.count_flops(baseline).total_flops
            lines.append(
                f"flops ratio vs 1 expert: {report.total_flops / base_total:.4f}"
            )
        report.to_csv(os.path.join(args.out, "flops.csv"))
        text = "\n".join(lines)
        with open(os.path.join(args.out, "flops.txt"), "w", newline="\n",
                  encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(text)
        return 0

    if args.dataset is None:
        raise ConfigError(f"--which {args.which} needs --dataset")
    ds = dp.WindowedDataset.load(args.dataset)
    expected = tuple(model.meta.get("input_shape", ()))
    if expected and (ds.window_len, ds.x.shape[2]) != expected:
        from .errors import ShapeError

        raise ShapeError(
            f"dataset windows are {(ds.window_len, ds.x.shape[2])}, "
            f"checkpointed model expects {expected}"
        )

    if args.which == "confusion":
        report = analysis.confusion_matrix_report(model, ds)
        report.to_csv(os.path.join(args.out, "confusion.csv"))
        with open(os.path.join(args.out, "confusion.txt"), "w", newline="\n",
                  encoding="utf-8") as fh:
            fh.write(report.to_text() + "\n")
        print(report.to_text())
    elif args.which == "routing":
        stats = analysis.routing_stats(model, ds)
        stats.histogram_to_csv(os.path.join(args.out, "routing-histogram.csv"))
        stats.class_means_to_csv(os.path.join(args.out, "routing-class-means.csv"))
        print(f"routing statistics over {len(ds)} examples, "
              f"{len(stats.per_layer)} layers")
    else:  # divergence
        stats = analysis.routing_stats(model, ds)
        scores = analysis.depth_divergence(stats)
        with open(os.path.join(args.out, "divergence.csv"), "w", newline="\n",
                  encoding="utf-8") as fh:
            fh.write("layer,divergence\n")
            for name, score in scores.items():
                fh.write(f"{name},{repr(float(score))}\n")
        for name, score in scores.items():
            print(f"{name}: {score:.6f}")
    return 0


def main(argv=None):
    _pin_threads()
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO,
        format="%(asctime)s %(levelname)s %(name)s: %(message)s",
    )
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1

    from .errors import ArchitectureError, ConfigError, DataError, NumericError, ShapeError

    handler = {
        "convert": cmd_convert,
        "segment": cmd_segment,
        "train": cmd_train,
        "analyze": cmd_analyze,
    }[args.command]
    try:
        return handler(args)
    except (ConfigError, ArchitectureError) as err:
        log.error("%s", err)
        return 1
    except KeyError as err:
        log.error("config is missing required key %s", err)
        return 1
    except (DataError, ShapeError, FileNotFoundError) as err:
        log.error("%s", err)
        return 2
    except NumericError as err:
        log.error("%s", err)
        return 3


if __name__ == "__main__":
    sys.exit(main())
