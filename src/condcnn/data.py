"""Sensor data pipeline: ingestion, resampling, sliding-window segmentation,
normalization, and train/test splitting.

Raw datasets arrive in heterogeneous formats, so everything downstream
consumes one canonical CSV layout:

    # rate_hz=<float>
    subject,session,label,<ch1>,<ch2>,...
    s1,a,Walking,0.12,-9.81,0.4
    ...

UTF-8, LF line endings, '.' decimal separator. Labels may be class names
(mapped to ids by sorted order) or non-negative integers (used directly).
A row with a NaN channel value (a sensor dropout) is dropped and the drop
is counted in a warning; infinite values are kept. Pre-windowed corpora
are expressed as one session per window with exactly window_len samples
and step == window_len.

A config's `dataset` section maps onto `DatasetProfile` fields plus the
`canonical_csv` path; an unknown or missing key, in it or in its `split`,
is a ConfigError.
"""

import csv
import logging
import warnings
from dataclasses import MISSING, dataclass, fields, replace
from itertools import chain

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import storage
from .errors import ConfigError, DataError, check_count, check_keys, is_number

log = logging.getLogger(__name__)


@dataclass
class SensorStream:
    """Multichannel samples with per-sample labels and provenance tags."""

    data: np.ndarray          # (L, C) float64
    channel_names: list
    sample_rate_hz: float
    labels: np.ndarray        # (L,) int
    label_names: list
    subject: np.ndarray       # (L,) str
    session: np.ndarray       # (L,) str

    def __post_init__(self):
        L = self.data.shape[0]
        if not (len(self.labels) == len(self.subject) == len(self.session) == L):
            raise DataError("stream columns disagree on sample count")
        if self.sample_rate_hz <= 0:
            raise DataError(f"sample rate must be positive, got {self.sample_rate_hz}")

    def __len__(self):
        return self.data.shape[0]


@dataclass
class WindowedDataset:
    """Fixed-length windows ready for model consumption."""

    x: np.ndarray             # (N, T, C) float64
    y: np.ndarray             # (N,) int
    label_names: list
    subject: np.ndarray       # (N,) str
    session: np.ndarray       # (N,) str
    normalization_stats: tuple | None = None   # (mean[C], std[C])

    def __len__(self):
        return self.x.shape[0]

    @property
    def window_len(self):
        return self.x.shape[1]

    @property
    def n_channels(self):
        return self.x.shape[2]

    def subset(self, indices):
        return replace(
            self,
            x=self.x[indices],
            y=self.y[indices],
            subject=self.subject[indices],
            session=self.session[indices],
        )

    def save(self, path):
        arrays = {"x": self.x, "y": self.y.astype(np.int64)}
        meta = {
            "label_names": list(self.label_names),
            "subject": [str(s) for s in self.subject],
            "session": [str(s) for s in self.session],
            "normalization_stats": None if self.normalization_stats is None else [
                list(map(float, self.normalization_stats[0])),
                list(map(float, self.normalization_stats[1])),
            ],
        }
        storage.save_container(path, arrays, meta)

    @classmethod
    def load(cls, path):
        """Read a dataset file; meta keys other than the fields' are ignored.
        `normalization_stats` must be null or two lists (mean, std) of one
        number per channel."""
        arrays, meta = storage.load_container(path)
        try:
            stats = meta["normalization_stats"]
            ds = cls(
                x=arrays["x"],
                y=arrays["y"],
                label_names=meta["label_names"],
                subject=np.array(meta["subject"], dtype=object),
                session=np.array(meta["session"], dtype=object),
            )
        except KeyError as err:
            raise DataError(f"{path}: dataset file is missing {err}") from None
        x, y, names = ds.x, ds.y, ds.label_names
        if not (isinstance(names, list) and all(isinstance(name, str) for name in names)):
            raise DataError(f"{path}: label_names must be a list of strings, got {names!r}")
        if x.ndim != 3:
            raise DataError(f"{path}: x must be (windows, time, channels), "
                            f"got shape {x.shape}")
        if y.shape != (len(x),) or not np.issubdtype(y.dtype, np.integer):
            raise DataError(f"{path}: y must be {len(x)} integer labels, "
                            f"got {y.dtype} of shape {y.shape}")
        if not ds.subject.shape == ds.session.shape == (len(x),):
            raise DataError(f"{path}: subject and session must have {len(x)} entries, "
                            f"got shapes {ds.subject.shape} and {ds.session.shape}")
        if stats is not None:
            if not (isinstance(stats, list) and len(stats) == 2 and all(
                    isinstance(row, list) and len(row) == ds.n_channels
                    and all(map(is_number, row)) for row in stats)):
                raise DataError(f"{path}: normalization_stats must be null or two lists of "
                                f"{ds.n_channels} numbers, got {stats!r}")
            ds.normalization_stats = (np.array(stats[0]), np.array(stats[1]))
        return ds


@dataclass
class DatasetProfile:
    """Per-dataset recipe: windowing, rates, normalization, split strategy."""

    name: str
    window_len: int
    step: int
    classes: int
    resample_to_hz: float | None = None
    normalization: str = "none"          # "none" | "zscore"
    split: dict | None = None            # {"kind": "random"[, "train_fraction": f]}
                                         # or {"kind": "sessions", "train": [[subj, sess]...],
                                         #     "test": [[subj, sess]...]}

    def __post_init__(self):
        for name in ("window_len", "step", "classes"):
            check_count(f"dataset {name}", getattr(self, name), 1)
        if self.normalization not in ("none", "zscore"):
            raise ConfigError(f"unknown normalization {self.normalization!r}")
        if self.resample_to_hz is not None and not (
                is_number(self.resample_to_hz) and self.resample_to_hz > 0):
            raise ConfigError(f"dataset resample_to_hz must be null or a number > 0, "
                              f"got {self.resample_to_hz!r}")
        split = self.split
        kind = split.get("kind") if isinstance(split, dict) else None
        if split is not None and kind not in ("random", "sessions"):
            raise ConfigError(f"dataset split must be null or a dict whose kind is "
                              f"'random' or 'sessions', got {split!r}")
        if kind == "random":
            check_keys("dataset split", split, ("kind",), ("train_fraction",))
            frac = self.train_fraction
            if not is_number(frac) or not 0.0 < frac < 1.0:
                raise ConfigError(f"dataset split train_fraction must be a number "
                                  f"strictly between 0 and 1, got {frac!r}")
        if kind == "sessions":
            check_keys("dataset split", split, ("kind", "train", "test"))
            # tags are matched as strings, so a pair of other values matches nothing
            if not all(isinstance(split[part], (list, tuple)) and all(
                    isinstance(p, (list, tuple)) and len(p) == 2
                    and all(isinstance(tag, str) for tag in p) for p in split[part])
                    for part in ("train", "test")):
                raise ConfigError(f"dataset split of kind 'sessions' needs train and "
                                  f"test lists of [subject, session] string pairs, "
                                  f"got {split!r}")

    @property
    def train_fraction(self):
        """Train share of a random split; 70/30 unless the split sets it."""
        return (self.split or {}).get("train_fraction", 0.7)

    @classmethod
    def from_dict(cls, d):
        """Profile of a config's `dataset` section, whose keys are the
        fields plus `canonical_csv`, the CSV path the CLI reads."""
        required = [f.name for f in fields(cls) if f.default is MISSING]
        optional = [f.name for f in fields(cls) if f.default is not MISSING]
        check_keys("dataset config", d, required + ["canonical_csv"], optional)
        return cls(**{k: v for k, v in d.items() if k != "canonical_csv"})


def window_count(length, window_len, step):
    """Windows obtainable from a run of `length` samples."""
    if length < window_len:
        return 0
    return (length - window_len) // step + 1


# -- canonical CSV --------------------------------------------------------------

def write_canonical(path, stream):
    header = ["subject", "session", "label"] + list(stream.channel_names)
    storage.write_text(path, chain(
        [f"# rate_hz={stream.sample_rate_hz}", storage.csv_line(header)],
        (storage.csv_line([stream.subject[i], stream.session[i],
                           stream.label_names[stream.labels[i]], *stream.data[i]])
         for i in range(len(stream)))))


def ingest_canonical(path):
    """Load a canonical CSV into a SensorStream.

    The body is parsed in one C pass of `np.loadtxt`, which takes `"`-quoted
    cells, skips blank lines and parses channel cells as Python's `float`
    does, except that it rejects literals such as `1_0`. Rows with a NaN
    channel cell are dropped and counted. Ragged rows and non-numeric cells
    raise, with the offending line number, as do bytes that are not UTF-8.
    """
    try:
        # untranslated line ends, so that a quoted CR or CR LF in a cell
        # stays as written; `csv` and `np.loadtxt` still end rows at CR LF
        with open(path, "r", encoding="utf-8", newline="") as fh:
            first = fh.readline().strip()
            if not first.startswith("# rate_hz="):
                raise DataError(f"{path}: line 1 must be '# rate_hz=<float>', got {first!r}")
            try:
                rate = float(first.split("=", 1)[1])
            except ValueError:
                raise DataError(f"{path}: line 1 has a non-numeric rate") from None
            if not (np.isfinite(rate) and rate > 0):
                raise DataError(f"{path}: line 1: rate_hz must be a finite number > 0, "
                                f"got {rate}")
            # one record, which a quoted line break in a name carries on to
            # the next line; read by `readline`, so that `tell` still works
            header_reader = csv.reader(iter(fh.readline, ""))
            header = next(header_reader, None)
            if header is None:
                raise DataError(f"{path}: missing header row")
            if header[:3] != ["subject", "session", "label"] or len(header) < 4:
                raise DataError(
                    f"{path}: line 2 must start 'subject,session,label' and "
                    f"name at least one channel"
                )
            channel_names = header[3:]
            # one record per row: a row with any other number of cells is an error
            row = np.dtype([("subject", object), ("session", object), ("label", object),
                            ("data", np.float64, (len(channel_names),))])
            body = fh.tell()
            try:
                with warnings.catch_warnings():
                    # a header-only file warns that the input "contained no data"
                    warnings.simplefilter("ignore", UserWarning)
                    table = np.loadtxt(fh, dtype=row, delimiter=",", comments=None,
                                       quotechar='"', ndmin=1)
            except ValueError as err:
                fh.seek(body)
                _raise_first_bad_row(path, fh, len(header), 2 + header_reader.line_num)
                raise DataError(f"{path}: unparseable body: {err}") from None
    except UnicodeDecodeError:  # from any read, the body rescan's included
        with open(path, "rb") as fh:  # a line is UTF-8 if it survives a round trip
            line_no = next(i for i, line in enumerate(fh, start=1)
                           if line.decode("utf-8", "replace").encode("utf-8") != line)
        raise DataError(f"{path}: line {line_no}: not valid UTF-8") from None

    data = table["data"]
    keep = ~np.isnan(data).any(axis=1)
    if not keep.all():
        log.warning("%s: dropped %d rows with NaN cells", path, len(keep) - int(keep.sum()))
    labels, label_names = _encode_labels(table["label"][keep].tolist())
    return SensorStream(
        data=data[keep],
        channel_names=channel_names,
        sample_rate_hz=rate,
        labels=labels,
        label_names=label_names,
        subject=table["subject"][keep],
        session=table["session"][keep],
    )


def _raise_first_bad_row(path, fh, n_cols, first_line):
    """Raise a DataError naming the file line, counting `fh`'s first as
    `first_line`, on which the first ragged row or non-numeric channel cell
    that `csv.reader` finds from `fh` onwards starts. Return if none."""
    reader, next_line = csv.reader(fh), first_line
    for row in reader:  # a quoted line break carries a row on to the next line
        line_no, next_line = next_line, first_line + reader.line_num
        if not row:
            continue
        if len(row) != n_cols:
            raise DataError(
                f"{path}: line {line_no}: expected {n_cols} columns, got {len(row)}"
            )
        try:
            for cell in row[3:]:
                float(cell)
        except ValueError:
            raise DataError(
                f"{path}: line {line_no}: non-numeric channel value"
            ) from None


def _encode_labels(raw):
    if all(r.isdecimal() for r in raw) and raw:  # exactly the digits int() reads
        ids = np.array([int(r) for r in raw], dtype=np.int64)
        names = [str(i) for i in range(int(ids.max()) + 1)]
        return ids, names
    names = sorted(set(raw))
    index = {name: i for i, name in enumerate(names)}
    return np.array([index[r] for r in raw], dtype=np.int64), names


# -- WISDM raw-format converter ----------------------------------------------------

WISDM_RATE_HZ = 20.0


@dataclass
class ConversionReport:
    records_seen: int
    records_written: int
    records_skipped: int
    class_counts: dict

    def summary(self):
        parts = [
            f"records seen: {self.records_seen}",
            f"written: {self.records_written}",
            f"skipped: {self.records_skipped}",
        ]
        for name in sorted(self.class_counts):
            parts.append(f"{name}: {self.class_counts[name]}")
        return "; ".join(parts)


def convert_wisdm(raw_path, out_path):
    """Convert raw WISDM text (user,activity,timestamp,x,y,z; records
    terminated by ';') into a canonical CSV at 20 Hz.

    Malformed records are skipped and counted, never fatal.
    """
    with open(raw_path, "r", encoding="utf-8", errors="replace") as fh:
        text = fh.read()

    subjects, labels, rows = [], [], []
    seen = skipped = 0
    for record in text.split(";"):
        record = record.strip().strip(",")
        if not record:
            continue
        seen += 1
        fields = [f.strip() for f in record.split(",")]
        if len(fields) != 6:
            skipped += 1
            continue
        user, activity, _timestamp, xs, ys, zs = fields
        if not user or not activity:
            skipped += 1
            continue
        try:
            rows.append([float(xs), float(ys), float(zs)])
        except ValueError:
            skipped += 1
            continue
        subjects.append(user)
        labels.append(activity)

    data = np.array(rows, dtype=np.float64).reshape(len(rows), 3)
    keep = ~np.isnan(data).any(axis=1)
    skipped += len(keep) - int(keep.sum())
    subjects = np.array(subjects, dtype=object)[keep]
    labels = np.array(labels, dtype=object)[keep].tolist()
    label_ids, label_names = _encode_labels(labels)
    stream = SensorStream(
        data=data[keep],
        channel_names=["x_accel", "y_accel", "z_accel"],
        sample_rate_hz=WISDM_RATE_HZ,
        labels=label_ids,
        label_names=label_names,
        subject=subjects,
        session=subjects,  # WISDM has no session notion
    )
    write_canonical(out_path, stream)
    counts = {}
    for lab in labels:
        counts[lab] = counts.get(lab, 0) + 1
    report = ConversionReport(seen, len(labels), skipped, counts)
    log.info("wisdm conversion: %s", report.summary())
    return report


# -- transforms -----------------------------------------------------------------

def resample(stream, to_hz):
    """Decimate to approximately `to_hz` by keeping every round(from/to)-th
    sample; labels and provenance are decimated identically."""
    if to_hz <= 0:
        raise ConfigError(f"target rate must be positive, got {to_hz}")
    if to_hz > stream.sample_rate_hz:
        raise ConfigError(
            f"cannot resample upward: {stream.sample_rate_hz} -> {to_hz} Hz"
        )
    factor = int(round(stream.sample_rate_hz / to_hz))
    if factor == 1:
        return stream
    return SensorStream(
        data=stream.data[::factor].copy(),
        channel_names=stream.channel_names,
        sample_rate_hz=stream.sample_rate_hz / factor,
        labels=stream.labels[::factor].copy(),
        label_names=stream.label_names,
        subject=stream.subject[::factor].copy(),
        session=stream.session[::factor].copy(),
    )


def segment_windows(stream, profile):
    """Slide a window of profile.window_len, advanced by profile.step, over
    every (subject, session) run; windows never span a run boundary.

    Each window takes the majority label of its samples (ties resolve to
    the smaller class id). Raises DataError when a label lies outside
    [0, profile.classes).
    """
    t_w, step = profile.window_len, profile.step
    if t_w > len(stream):
        log.warning("window length %d exceeds stream length %d", t_w, len(stream))

    n_classes = profile.classes
    outside = (stream.labels < 0) | (stream.labels >= n_classes)
    if outside.any():
        label = int(stream.labels[outside][0])
        name = stream.label_names[label] if 0 <= label < len(stream.label_names) else label
        raise DataError(
            f"label {label} ({name!r}) lies outside the {n_classes} classes the "
            f"profile configures; valid labels are 0..{n_classes - 1}"
        )
    # runs end where the (subject, session) tag changes; a run's windows
    # start every `step` rows while a whole window fits
    cuts = np.flatnonzero((stream.subject[1:] != stream.subject[:-1])
                          | (stream.session[1:] != stream.session[:-1])) + 1
    bounds = np.concatenate(([0], cuts, [len(stream)]))
    starts = np.concatenate([np.arange(a, b - t_w + 1, step, dtype=np.int64)
                             for a, b in zip(bounds[:-1], bounds[1:])])
    shape = (t_w, stream.data.shape[1])
    if len(starts):
        x = sliding_window_view(stream.data, shape)[starts, 0]
    else:
        log.warning("segmentation produced an empty dataset")
        x = np.empty((0,) + shape)
    # majority label: only a strictly larger count wins, so ties keep the smaller id
    y = np.zeros(len(starts), dtype=np.int64)
    best = np.zeros(len(starts), dtype=np.int64)
    for c in range(n_classes):
        count = np.concatenate(([0], np.cumsum(stream.labels == c)))
        in_window = count[starts + t_w] - count[starts]
        y[in_window > best] = c
        np.maximum(best, in_window, out=best)
    return WindowedDataset(x, y, stream.label_names,
                           subject=stream.subject[starts].astype(object),
                           session=stream.session[starts].astype(object))


def normalize(ds, policy, stats=None):
    """Per-channel z-scoring. Without `stats`, statistics come from `ds`
    itself (call this on the train split); pass the returned stats to
    transform the test split so nothing leaks."""
    if policy == "none":
        return ds, None
    if policy != "zscore":
        raise ConfigError(f"unknown normalization policy {policy!r}")
    if len(ds) == 0 and stats is None:
        return ds, None
    if stats is None:
        flat = ds.x.reshape(-1, ds.x.shape[2])
        mean = flat.mean(axis=0)
        std = flat.std(axis=0)
        if (std < 1e-12).any():
            log.warning(
                "zero-variance channels %s; guarded to unit scale",
                np.nonzero(std < 1e-12)[0].tolist(),
            )
        std = np.where(std < 1e-12, 1.0, std)
        stats = (mean, std)
    mean, std = stats
    x = ds.x - mean  # the one new array; the division reuses it
    x /= std
    return replace(ds, x=x, normalization_stats=(mean, std)), stats


def split(ds, profile, seed=0):
    """Partition windows into train/test per the profile's strategy."""
    kind = profile.split["kind"] if profile.split else "random"
    if kind == "random":
        train_idx, test_idx = _stratified_indices(ds.y, profile.train_fraction, seed)
    else:  # "sessions", the one other kind DatasetProfile accepts
        train_pairs = {tuple(p) for p in profile.split["train"]}
        test_pairs = {tuple(p) for p in profile.split["test"]}
        tags = [(str(s), str(e)) for s, e in zip(ds.subject, ds.session)]
        train_idx = np.array([i for i, t in enumerate(tags) if t in train_pairs], dtype=int)
        test_idx = np.array([i for i, t in enumerate(tags) if t in test_pairs], dtype=int)
        unused = len(ds) - len(train_idx) - len(test_idx)
        if unused:
            log.warning("%d windows belong to neither split and were dropped", unused)

    train = ds.subset(train_idx)
    test = ds.subset(test_idx)
    for tag, part in (("train", train), ("test", test)):
        present = set(np.unique(part.y).tolist())
        missing = [c for c in range(profile.classes) if c not in present]
        if missing:
            log.warning("%s split has no examples of classes %s", tag, missing)
    return train, test


def _stratified_indices(y, train_fraction, seed):
    """Seed-deterministic stratified split; per-class counts are
    apportioned by largest remainder so totals hit round(frac * N)."""
    rng = np.random.default_rng([seed, 0x5711])
    n = len(y)
    target = int(round(train_fraction * n))
    classes = np.unique(y)
    base, remainders = {}, []
    for c in classes:
        exact = train_fraction * int((y == c).sum())
        base[c] = int(np.floor(exact))
        remainders.append((-(exact - base[c]), int(c)))
    leftover = target - sum(base.values())
    for _, c in sorted(remainders):
        if leftover <= 0:
            break
        base[c] += 1
        leftover -= 1

    train_parts, test_parts = [], []
    for c in classes:
        idx = np.nonzero(y == c)[0]
        perm = rng.permutation(len(idx))
        take = base[int(c)]
        train_parts.append(idx[perm[:take]])
        test_parts.append(idx[perm[take:]])
    train_idx = np.sort(np.concatenate(train_parts))
    test_idx = np.sort(np.concatenate(test_parts))
    return train_idx, test_idx
