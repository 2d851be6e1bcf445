"""Command-line interface: convert raw data, segment datasets, train
models, and produce analysis reports from reproducible JSON configs.

Exit codes: 0 success, 1 usage/config error, 2 data error or an input
that cannot be read, 3 numeric failure. All artifacts (configs,
datasets, checkpoints, CSVs, reports) are byte-deterministic for a fixed
config and seed; timestamps appear only in log lines on stderr.

BLAS runs one thread: each BLAS variable left unset is pinned to 1 before
numpy loads, for run-to-run determinism. The conv ops split their work
over every CPU the process may use (limit them with `taskset`), with
results that do not depend on the core count.

`train` and `analyze` import the engine (`autodiff`), which raises
glibc's mmap and trim thresholds so that a step's arrays are reused from
the heap; `segment` and `convert` never import it and keep glibc's
defaults.
"""

import argparse
import fcntl
import hashlib
import json
import logging
import os
import sys

from .errors import (ConfigError, DataError, NumericError, ShapeError, check_count, check_dict,
                     check_keys)

log = logging.getLogger("condcnn")


def _pin_threads():
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, "1")


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


def load_run_config(path, seed=None):
    """Read a run config, apply a seed override, resolve data paths
    relative to the config file. A file that cannot be opened or read
    raises its OSError; one that is not UTF-8 JSON is a ConfigError naming
    it, as is a bad seed, `output_dir` or `canonical_csv`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except ValueError as err:  # malformed JSON or not UTF-8
        raise ConfigError(f"cannot read config {path}: {err}") from None
    check_keys("run config", config, ("dataset",),
               ("name", "model", "train", "seed", "output_dir"))
    base = os.path.dirname(os.path.abspath(path))
    dataset = check_dict("dataset config", config["dataset"])
    if seed is not None:
        config["seed"] = seed
    check_count("seed", config.setdefault("seed", 0), 0)
    for what, section, key in (("output_dir", config, "output_dir"),
                               ("dataset canonical_csv", dataset, "canonical_csv")):
        if key in section and (not isinstance(section[key], str) or not section[key]):
            raise ConfigError(f"{what} must be a non-empty string, got {section[key]!r}")
    if "canonical_csv" in dataset and not os.path.isabs(dataset["canonical_csv"]):
        dataset["canonical_csv"] = os.path.normpath(os.path.join(base, dataset["canonical_csv"]))
    return config


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_json(path, payload):
    from .storage import write_text

    write_text(path, [json.dumps(payload, indent=2, sort_keys=True)])


def _make_dir(path):
    """Create directory `path` and its parents unless it exists; a failure,
    such as a path through a regular file, is a ConfigError naming it."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"cannot create directory {path}: {err.strerror}") from None


class _RunLock:
    """Guards a run directory against concurrent writers with an exclusive
    `flock` on the directory itself. The kernel releases it however its
    holder exits, so a killed run never blocks the next one."""

    def __init__(self, directory):
        self.directory = directory

    def __enter__(self):
        _make_dir(self.directory)
        self.fd = os.open(self.directory, os.O_RDONLY)
        try:
            fcntl.flock(self.fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            os.close(self.fd)
            raise ConfigError(
                f"run directory {self.directory} is locked by another process"
            ) from None
        return self

    def __exit__(self, *exc):
        os.close(self.fd)


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
    del stream  # each step's input is dropped once the next holds a copy
    train_ds, test_ds = dp.split(windows, profile, seed=config["seed"])
    del windows
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
    _make_dir(args.out)  # first, so a bad --out costs no data preparation
    train_ds, test_ds = _prepare_datasets(config)
    train_path = os.path.join(args.out, "train.ds")
    test_path = os.path.join(args.out, "test.ds")
    train_ds.save(train_path)
    test_ds.save(test_path)
    summary = {
        "train_windows": len(train_ds),
        "test_windows": len(test_ds),
        "window_len": train_ds.window_len,
        "step": config["dataset"]["step"],
        "channels": train_ds.n_channels,
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
    from .storage import write_text

    config = load_run_config(args.config, seed=args.seed)
    run_dir = args.out or config.get("output_dir") or "run"
    # the train and model sections are validated before anything is written
    missing = [key for key in ("train", "model") if key not in config]
    if missing:
        raise ConfigError(f"run config is missing key(s): {', '.join(missing)}")
    if args.epochs is not None:
        check_dict("train config", config["train"])["epochs"] = args.epochs
    if args.experts is not None:
        check_dict("model spec", config["model"])["n_experts"] = args.experts
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
        # first, so a malformed dataset section, an empty split or a model
        # that does not fit the windows leaves nothing written
        train_ds, test_ds = _prepare_datasets(config)
        input_shape = (train_ds.window_len, train_ds.n_channels)
        model = archspec.build_model(spec, input_shape, config["dataset"]["classes"],
                                     seed=config["seed"])
        for name, ds in (("train", train_ds), ("test", test_ds)):
            training.check_dataset(model, ds, f"{name} split")
        _write_json(os.path.join(run_dir, "config.json"), config)
        train_ds.save(os.path.join(run_dir, "train.ds"))
        test_ds.save(os.path.join(run_dir, "test.ds"))
        history = training.train(model, train_ds, test_ds, train_cfg)
        history.to_csv(os.path.join(run_dir, "history.csv"))

        flops = analysis.count_flops(model)
        if history.best_epoch < 0:
            best_lines = ["no epoch completed"]
            outcome = "no epoch completed"
        else:
            best_lines = [f"best epoch: {history.best_epoch}",
                          f"best test accuracy: {history.best_accuracy:.6f}"]
            outcome = (f"best epoch {history.best_epoch}: "
                       f"test accuracy {history.best_accuracy:.4f}")
        report_lines = [
            "condcnn training report",
            f"config: {json.dumps(config, sort_keys=True)}",
            f"epochs run: {len(history.rows)}",
            *best_lines,
            f"halted: {history.halted}",
            f"parameters: {analysis.count_params(model)}",
            f"flops per example: {flops.total_flops}",
            f"flops convention: {analysis.COUNTING_CONVENTION}",
        ]
        write_text(os.path.join(run_dir, "report.txt"), report_lines)
        print(f"{outcome} -> {run_dir}")
    return 3 if history.halted else 0  # a numeric halt, after writing the run


def cmd_analyze(args):
    from . import analysis, training
    from . import data as dp
    from .storage import csv_line, write_text

    if args.which != "flops" and args.dataset is None:
        raise ConfigError(f"--which {args.which} needs --dataset")
    _make_dir(args.out)
    model, _state = training.load_checkpoint(args.checkpoint)

    if args.which == "flops":
        report = analysis.count_flops(model)
        lines = [report.to_text()]
        if model.meta["spec"]["n_experts"] != 1:
            lines.append(f"flops ratio vs 1 expert: {analysis.flops_ratio_vs_one_expert(model):.4f}")
        report.to_csv(os.path.join(args.out, "flops.csv"))
        write_text(os.path.join(args.out, "flops.txt"), lines)
        print("\n".join(lines))
        return 0

    ds = dp.WindowedDataset.load(args.dataset)
    training.check_dataset(model, ds, args.dataset)

    if args.which == "confusion":
        report = analysis.confusion_matrix_report(model, ds)
        report.to_csv(os.path.join(args.out, "confusion.csv"))
        write_text(os.path.join(args.out, "confusion.txt"), [report.to_text()])
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
        write_text(os.path.join(args.out, "divergence.csv"), ["layer,divergence"] + [
            csv_line([name, score]) for name, score in scores.items()])
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

    handler = {
        "convert": cmd_convert,
        "segment": cmd_segment,
        "train": cmd_train,
        "analyze": cmd_analyze,
    }[args.command]
    try:
        return handler(args)
    except ConfigError as err:  # ArchitectureError included
        log.error("%s", err)
        return 1
    except (DataError, ShapeError, OSError) as err:  # OSError: an unreadable input
        log.error("%s", err)
        return 2
    except NumericError as err:
        log.error("%s", err)
        return 3


if __name__ == "__main__":
    sys.exit(main())
