"""Ingestion, conversion, windowing, normalization, and split behavior."""

import csv
import importlib.util
import os
import struct
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from condcnn import data as dp
from condcnn import storage
from condcnn.errors import ConfigError, DataError
from helpers import CORRUPT_CONTAINERS


def make_stream(n=100, channels=3, rate=20.0, label_fn=None, subject="s1", session="a", seed=0):
    rng = np.random.default_rng(seed)
    labels = np.array([label_fn(i) if label_fn else 0 for i in range(n)], dtype=np.int64)
    names = [str(i) for i in range(int(labels.max()) + 1)]
    return dp.SensorStream(
        data=rng.normal(size=(n, channels)),
        channel_names=[f"ch{i}" for i in range(channels)],
        sample_rate_hz=rate,
        labels=labels,
        label_names=names,
        subject=np.array([subject] * n, dtype=object),
        session=np.array([session] * n, dtype=object),
    )


def profile(**kw):
    base = dict(name="test", window_len=20, step=5, classes=2)
    base.update(kw)
    return dp.DatasetProfile(**base)


class TestCanonicalCsv:
    @pytest.mark.parametrize("tag", ["", 'say "hi", ', "\r", "\n", "\r\n"],
                             ids=["plain", "quoted", "cr", "lf", "crlf"])
    def test_round_trip(self, tmp_path, tag):
        """Every name, prefixed by `tag`, comes back as written: a comma, a
        double quote, a CR or a LF in it is quoted on the way out and read
        back, a CR LF included."""
        stream = make_stream(10, label_fn=lambda i: i % 2, subject=tag + "s1", session=tag + "a")
        stream = replace(stream, label_names=[tag + n for n in stream.label_names],
                         channel_names=[tag + n for n in stream.channel_names])
        path = tmp_path / "c.csv"
        dp.write_canonical(path, stream)
        back = dp.ingest_canonical(path)
        assert len(back) == 10
        np.testing.assert_allclose(back.data, stream.data, atol=0)
        np.testing.assert_array_equal(back.labels, stream.labels)
        assert back.sample_rate_hz == 20.0
        assert list(back.label_names) == stream.label_names
        assert list(back.channel_names) == stream.channel_names
        assert list(back.subject) == list(stream.subject)
        assert list(back.session) == list(stream.session)

    def test_nan_rows_dropped_by_default(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(
            "# rate_hz=10\nsubject,session,label,a\n"
            "s,x,w,1.0\ns,x,w,nan\ns,x,w,3.0\n"
        )
        stream = dp.ingest_canonical(path)
        assert len(stream) == 2

    def test_nan_rows_dropped_with_their_columns(self, tmp_path, caplog):
        rows = [  # subject, session, label, a, b
            ("s1", "x", "walk", "1.0", "2.0"),
            ("s1", "x", "run", "nan", "2.5"),
            ("s1", "x", "sit", "inf", "3.0"),
            ("s1", "y", "jump", "4.0", "nan"),
            ("s2", "y", "run", "5.0", "-inf"),
            ("s2", "y", "walk", "nan", "nan"),
            ("s2", "y", "sit", "7.0", "8.0"),
        ]
        path = tmp_path / "c.csv"
        path.write_text(
            "# rate_hz=10\nsubject,session,label,a,b\n"
            + "".join(",".join(row) + "\n" for row in rows)
        )
        kept = [row for row in rows if "nan" not in row[3:]]
        with caplog.at_level("WARNING"):
            stream = dp.ingest_canonical(path)
        assert "dropped 3 rows" in caplog.text
        np.testing.assert_array_equal(
            stream.data, [[float(a), float(b)] for *_, a, b in kept])
        assert np.isinf(stream.data).sum() == 2  # inf cells are kept
        assert stream.label_names == ["run", "sit", "walk"]  # "jump" was only on a NaN row
        assert [stream.label_names[i] for i in stream.labels] == [row[2] for row in kept]
        assert list(stream.subject) == [row[0] for row in kept]
        assert list(stream.session) == [row[1] for row in kept]

    def test_all_nan_file_gives_empty_stream(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("# rate_hz=10\nsubject,session,label,a\ns,x,w,nan\ns,x,v,nan\n")
        stream = dp.ingest_canonical(path)
        assert len(stream) == 0 and stream.data.shape == (0, 1)
        assert stream.label_names == []

    def test_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(
            "# rate_hz=10\nsubject,session,label,a,b\ns,x,w,1.0,2.0\ns,x,w,1.0\n"
        )
        with pytest.raises(DataError, match="line 4"):
            dp.ingest_canonical(path)

    def test_non_numeric_cell_reports_line(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("# rate_hz=10\nsubject,session,label,a\ns,x,w,oops\n")
        with pytest.raises(DataError, match="line 3"):
            dp.ingest_canonical(path)

    def test_missing_rate_header(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("subject,session,label,a\ns,x,w,1.0\n")
        with pytest.raises(DataError, match="rate_hz"):
            dp.ingest_canonical(path)

    @pytest.mark.parametrize("rate", ["nan", "inf", "-inf", "0", "-20", "1e400"])
    def test_rate_must_be_finite_and_positive(self, tmp_path, rate):
        path = tmp_path / "c.csv"
        path.write_text(f"# rate_hz={rate}\nsubject,session,label,a\ns,x,w,1.0\n")
        with pytest.raises(DataError, match=f"{path}: line 1: rate_hz"):
            dp.ingest_canonical(path)


HEAD = "# rate_hz=10\nsubject,session,label,a,b\n"


def stream_of(rows, names):
    """Expected stream fields from (subject, session, label id, values) rows."""
    return {
        "data": [r[3] for r in rows], "labels": [r[2] for r in rows],
        "label_names": names, "subject": [r[0] for r in rows],
        "session": [r[1] for r in rows],
    }


# (canonical CSV text, expected stream fields or the DataError message pattern)
INGEST_CASES = {
    "quoted label with commas": (
        HEAD + 's1,a,"walk, fast",1.0,2.0\ns1,a,sit,3.0,4.0\n',
        stream_of([("s1", "a", 1, [1.0, 2.0]), ("s1", "a", 0, [3.0, 4.0])],
                  ["sit", "walk, fast"])),
    "doubled quote inside a quoted label": (
        HEAD + 's1,a,"say ""hi""",+.5,2.\n',
        stream_of([("s1", "a", 0, [0.5, 2.0])], ['say "hi"'])),
    "crlf line endings": (
        HEAD.replace("\n", "\r\n") + "s1,a,w,1.0,2.0\r\ns2,b,w,3.0,4.0\r\n",
        stream_of([("s1", "a", 0, [1.0, 2.0]), ("s2", "b", 0, [3.0, 4.0])], ["w"])),
    "hash inside a label": (
        HEAD + "s1,a,w#1,1.0,2.0\n",
        stream_of([("s1", "a", 0, [1.0, 2.0])], ["w#1"])),
    "infinities kept": (
        HEAD + "s1,a,w,Infinity,-inf\ns1,a,w,inf,1e400\n",
        stream_of([("s1", "a", 0, [np.inf, -np.inf]), ("s1", "a", 0, [np.inf, np.inf])],
                  ["w"])),
    "padded numeric cells": (
        HEAD + "s1,a,w, 1.5 ,\t-2e-3\n",
        stream_of([("s1", "a", 0, [1.5, -0.002])], ["w"])),
    "digit labels": (
        HEAD + "s1,a,2,1.0,2.0\ns1,a,0,3.0,4.0\n",
        stream_of([("s1", "a", 2, [1.0, 2.0]), ("s1", "a", 0, [3.0, 4.0])],
                  ["0", "1", "2"])),
    "superscript-digit labels are names": (
        HEAD + "s1,a,\u00b2,1.0,2.0\ns1,a,\u00b2,3.0,4.0\n",
        stream_of([("s1", "a", 0, [1.0, 2.0]), ("s1", "a", 0, [3.0, 4.0])], ["\u00b2"])),
    "blank lines skipped": (
        HEAD + "\ns1,a,w,1.0,2.0\n\n\ns1,a,w,3.0,4.0\n\n",
        stream_of([("s1", "a", 0, [1.0, 2.0]), ("s1", "a", 0, [3.0, 4.0])], ["w"])),
    "single row": (
        HEAD + "s9,z,run,-0.25,8\n",
        stream_of([("s9", "z", 0, [-0.25, 8.0])], ["run"])),
    "single channel": (
        "# rate_hz=10\nsubject,session,label,a\ns1,a,w,1.0\ns1,b,v,nan\ns2,b,v,2.0\n",
        stream_of([("s1", "a", 1, [1.0]), ("s2", "b", 0, [2.0])], ["v", "w"])),
    "header only": (HEAD, stream_of([], [])),
    "whitespace-only line": (HEAD + "s1,a,w,1.0,2.0\n   \n", "line 4: expected 5 columns, got 1"),
    "empty cell": (HEAD + "s1,a,w,1.0,2.0\ns1,a,w,,2.0\n", "line 4: non-numeric"),
    "extra cell": (HEAD + "s1,a,w,1.0,2.0\ns1,a,w,1.0,2.0,3.0\n",
                   "line 4: expected 5 columns, got 6"),
    "underscore literal": (HEAD + "s1,a,w,1_0,2.0\n", "c.csv: .*'1_0'"),
    # a quoted line break makes a record span two file lines: the error
    # names the file line on which the bad row starts
    "line break in a channel name": (
        '# rate_hz=20\nsubject,session,label,a,"b\nc"\ns1,a,w,1.0,2.0\ns1,a,w,x,2.0\n',
        "line 5: non-numeric"),
    "line break in a channel name, crlf": (
        '# rate_hz=20\r\nsubject,session,label,a,"b\r\nc"\r\ns1,a,w,1.0,2.0\r\n'
        's1,a,w,x,2.0\r\n', "line 5: non-numeric"),
    "line break in a subject": (HEAD + '"s\n1",a,w,1.0,2.0\ns1,a,w,x,2.0\n',
                                "line 5: non-numeric"),
    "ragged row after a line break in a subject": (
        HEAD + '"s\n1",a,w,1.0,2.0\n"s\n2",a,w,1.0\n', "line 5: expected 5 columns, got 4"),
}


def reference_ingest(path):
    """The csv.reader rule ingest_canonical replaced, for well-formed files:
    float() per cell, NaN rows dropped, labels encoded as ingest does."""
    with open(path, encoding="utf-8") as fh:
        rate = float(fh.readline().split("=", 1)[1])
        reader = csv.reader(fh)
        header = next(reader)
        rows = [row for row in reader if row]
    values = np.array([[float(c) for c in row[3:]] for row in rows]).reshape(
        len(rows), len(header) - 3)
    keep = ~np.isnan(values).any(axis=1)
    kept = [row for row, k in zip(rows, keep) if k]
    labels, names = dp._encode_labels([row[2] for row in kept])
    return rate, header[3:], values[keep], labels, names, kept


def load_workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestIngestGrammar:
    @pytest.mark.parametrize("text,expected", INGEST_CASES.values(), ids=INGEST_CASES)
    def test_case(self, tmp_path, text, expected):
        path = tmp_path / "c.csv"
        path.write_bytes(text.encode("utf-8"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if isinstance(expected, str):
                with pytest.raises(DataError, match=expected):
                    dp.ingest_canonical(path)
                return
            stream = dp.ingest_canonical(path)
        n_channels = text.splitlines()[1].count(",") - 2
        assert stream.data.dtype == np.float64 and stream.data.flags.c_contiguous
        np.testing.assert_array_equal(
            stream.data, np.array(expected["data"]).reshape(-1, n_channels))
        assert stream.labels.tolist() == expected["labels"]
        assert stream.label_names == expected["label_names"]
        assert stream.subject.dtype == object and stream.session.dtype == object
        assert stream.subject.tolist() == expected["subject"]
        assert stream.session.tolist() == expected["session"]

    @pytest.mark.parametrize("recipe", ["wisdm-n8", "pamap2-analyze"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_benchmark_inputs_match_the_csv_reader_rule(self, tmp_path, recipe, seed):
        workloads = load_workloads()
        src = Path(__file__).resolve().parents[1] / "src"
        workloads.make_inputs(workloads.WORKLOADS[recipe], seed, str(src), str(tmp_path))
        path = tmp_path / "data.csv"
        stream = dp.ingest_canonical(path)
        rate, channels, values, labels, names, kept = reference_ingest(path)
        assert stream.sample_rate_hz == rate and stream.channel_names == channels
        assert stream.data.tobytes() == values.tobytes()
        assert stream.labels.tolist() == labels.tolist() and stream.label_names == names
        assert stream.subject.tolist() == [row[0] for row in kept]
        assert stream.session.tolist() == [row[1] for row in kept]


class TestWisdmConverter:
    def test_well_formed_records(self, tmp_path):
        raw = tmp_path / "raw.txt"
        raw.write_text(
            "33,Jogging,491059,-0.69,12.68,0.50;"
            "33,Jogging,491100,5.01,11.26,0.95;\n"
            "33,Walking,491150,4.90,10.88,-0.08;"
            "17,Sitting,491200,0.5,9.1,0.2;"
            "17,Standing,491250,0.1,9.8,0.1;"
        )
        out = tmp_path / "canon.csv"
        report = dp.convert_wisdm(raw, out)
        assert report.records_written == 5 and report.records_skipped == 0
        stream = dp.ingest_canonical(out)
        assert len(stream) == 5
        assert stream.sample_rate_hz == 20.0

    def test_malformed_record_skipped_and_counted(self, tmp_path):
        raw = tmp_path / "raw.txt"
        raw.write_text(
            "33,Jogging,1,1.0,2.0,3.0;"
            "33,Jogging,2,1.0,2.0;"       # missing z
            "33,Jogging,3,1.0,2.0,junk;"  # non-numeric z
            ";"                            # empty record
            "33,Walking,4,0.1,0.2,0.3;"
        )
        report = dp.convert_wisdm(raw, tmp_path / "c.csv")
        assert report.records_written == 2
        assert report.records_skipped == 2

    def test_class_histogram_matches_line_scan(self, tmp_path):
        rng = np.random.default_rng(1)
        activities = ["Walking", "Jogging", "Upstairs", "Downstairs", "Sitting", "Standing"]
        records = []
        for i in range(300):
            act = activities[rng.integers(0, 6)]
            records.append(f"{rng.integers(1, 30)},{act},{i},1.0,2.0,3.0")
        raw = tmp_path / "raw.txt"
        raw.write_text(";".join(records) + ";")
        report = dp.convert_wisdm(raw, tmp_path / "c.csv")
        # independent scan of the raw text
        expected = {}
        for rec in raw.read_text().split(";"):
            rec = rec.strip()
            if rec:
                expected[rec.split(",")[1]] = expected.get(rec.split(",")[1], 0) + 1
        assert report.class_counts == expected

    def test_nan_records_skipped_and_left_out_of_counts(self, tmp_path):
        raw = tmp_path / "raw.txt"
        raw.write_text(
            "7,Walking,0,1.0,2.0,3.0;"
            "7,Walking,1,nan,2.0,3.0;"
            "8,Sitting,2,0.5,NaN,0.5;"      # the only Sitting record
            "8,Jogging,3,-1.5,0.25,9.81;"
            "8,Jogging,4,1.0,2.0,junk;"
            "9,Jogging,5,0.0,0.0,nan;"
            "9,Walking,6,inf,0.0,0.0;"      # infinite values are kept
        )
        out = tmp_path / "c.csv"
        report = dp.convert_wisdm(raw, out)
        assert (report.records_seen, report.records_written, report.records_skipped) == (7, 3, 4)
        assert report.class_counts == {"Walking": 2, "Jogging": 1}
        assert out.read_text() == (
            "# rate_hz=20.0\n"
            "subject,session,label,x_accel,y_accel,z_accel\n"
            "7,7,Walking,1.0,2.0,3.0\n"
            "8,8,Jogging,-1.5,0.25,9.81\n"
            "9,9,Walking,inf,0.0,0.0\n"
        )

    def test_reingested_count_matches_written(self, tmp_path):
        raw = tmp_path / "raw.txt"
        raw.write_text("1,Walking,0,1,2,3;bad;1,Walking,1,4,5,6;")
        out = tmp_path / "c.csv"
        report = dp.convert_wisdm(raw, out)
        assert len(dp.ingest_canonical(out)) == report.records_written


class TestResample:
    def test_100_to_33_3(self):
        stream = make_stream(300, rate=100.0)
        out = dp.resample(stream, 33.3)
        assert len(out) == 100
        np.testing.assert_allclose(out.sample_rate_hz, 100 / 3)

    def test_identity_when_rates_match(self):
        stream = make_stream(50, rate=20.0)
        assert dp.resample(stream, 20.0) is stream

    def test_matches_slice_oracle(self):
        stream = make_stream(100, rate=100.0, label_fn=lambda i: i % 2)
        out = dp.resample(stream, 25.0)
        np.testing.assert_array_equal(out.data, stream.data[::4])
        np.testing.assert_array_equal(out.labels, stream.labels[::4])

    def test_upsampling_rejected(self):
        with pytest.raises(ConfigError):
            dp.resample(make_stream(10, rate=10.0), 20.0)


class TestDatasetProfile:
    @pytest.mark.parametrize("field,value", [
        ("window_len", "64"), ("window_len", 0), ("window_len", 2.5),
        ("step", True), ("step", -1), ("classes", "6"), ("classes", 0),
    ])
    def test_bad_count_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            profile(**{field: value})

    @pytest.mark.parametrize("frac", ["0.7", 1.5, 1.0, 0.0, -0.2, True, None])
    def test_random_train_fraction_must_lie_in_open_unit_interval(self, frac):
        with pytest.raises(ConfigError, match="train_fraction"):
            profile(split={"kind": "random", "train_fraction": frac})

    @pytest.mark.parametrize("field,value", [
        ("split", [1]), ("split", {"kind": "bogus"}), ("split", {}),
        ("split", {"kind": "sessions", "train": [["s1", "a"]]}),
        ("split", {"kind": "sessions", "train": [["s1"]], "test": []}),
        ("resample_to_hz", "33.3"), ("resample_to_hz", 0), ("resample_to_hz", True),
    ])
    def test_bad_split_or_rate_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            profile(**{field: value})

    @pytest.mark.parametrize("split,message", [
        ({"kind": "random", "train_frac": 0.9}, "unknown key.*train_frac"),
        ({"kind": "random", "train_fraction": 0.7, "test": []}, "unknown key.*test"),
        ({"kind": "sessions", "train": [["s1", "a"]], "test": [], "seed": 1},
         "unknown key.*seed"),
        ({"kind": "sessions", "test": []}, "missing key.*train"),
        ({"kind": "sessions", "train": [[1, "s"]], "test": []}, "string pairs"),
        ({"kind": "sessions", "train": [["s1", "a"]], "test": [["s2", None]]},
         "string pairs"),
    ])
    def test_split_keys_and_session_tags_checked(self, split, message):
        with pytest.raises(ConfigError, match=f"dataset split.*{message}"):
            profile(split=split)

    def test_from_dict_reads_fields_and_allows_csv_path(self):
        d = dict(name="w", canonical_csv="w.csv", window_len=200, step=10, classes=6,
                 normalization="zscore")
        assert dp.DatasetProfile.from_dict(d) == profile(
            name="w", window_len=200, step=10, classes=6, normalization="zscore")

    @pytest.mark.parametrize("key", ["test_step", "stride"])
    def test_from_dict_rejects_unknown_key(self, key):
        d = dict(name="w", window_len=200, step=10, classes=6, **{key: 5})
        with pytest.raises(ConfigError, match=key):
            dp.DatasetProfile.from_dict(d)

    def test_from_dict_names_missing_key(self):
        with pytest.raises(ConfigError, match="step"):
            dp.DatasetProfile.from_dict(dict(name="w", window_len=200, classes=6))


class TestSegmentation:
    def test_wisdm_window_arithmetic(self):
        stream = make_stream(1000)
        ds = dp.segment_windows(stream, profile(window_len=200, step=10))
        assert len(ds) == 81

    def test_exact_fit_gives_one_window(self):
        ds = dp.segment_windows(make_stream(20), profile(window_len=20, step=5))
        assert len(ds) == 1

    def test_majority_label_with_tie_to_smaller_id(self):
        stream = make_stream(10, label_fn=lambda i: 1 if i >= 5 else 0)
        ds = dp.segment_windows(stream, profile(window_len=10, step=1))
        assert ds.y[0] == 0  # 5 vs 5 tie resolves to class 0

    def test_windows_do_not_span_sessions(self):
        stream = make_stream(40)
        stream.session = np.array(["a"] * 20 + ["b"] * 20, dtype=object)
        ds = dp.segment_windows(stream, profile(window_len=15, step=5))
        # each 20-sample run yields floor((20-15)/5)+1 = 2 windows
        assert len(ds) == 4
        assert set(ds.session) == {"a", "b"}

    def test_label_beyond_configured_classes_rejected(self):
        # raw numeric ids (PAMAP2 goes up to 24) must not widen the class count
        stream = make_stream(40, label_fn=lambda i: 0 if i < 20 else 3)
        with pytest.raises(DataError, match=r"label 3 .*outside the 2 classes"):
            dp.segment_windows(stream, profile())

    def test_labels_inside_configured_classes_accepted(self):
        stream = make_stream(40, label_fn=lambda i: 0 if i < 20 else 2)
        ds = dp.segment_windows(stream, profile(classes=3))
        assert set(ds.y) == {0, 2}

    def test_matches_a_per_window_reference(self):
        """Against a loop over samples and windows, on seeded random streams
        of several subjects and sessions, with runs shorter than the window,
        majority ties, an empty stream and windows longer than the stream."""
        rng = np.random.default_rng(15)
        seen = dict(ties=0, short_runs=0, empty=0, window_beyond_stream=0)
        for trial in range(200):
            run_lens = rng.integers(0, 40, size=rng.integers(0 if trial == 0 else 1, 6))
            length, t_w = int(run_lens.sum()), int(rng.integers(1, 30))
            channels, classes = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            tag_type = object if trial % 2 else str  # provenance may arrive as str arrays
            stream = dp.SensorStream(
                data=rng.normal(size=(length, channels)),
                channel_names=[f"ch{i}" for i in range(channels)],
                sample_rate_hz=20.0,
                labels=rng.integers(0, classes, size=length),
                label_names=[str(c) for c in range(classes)],
                subject=np.repeat([f"s{i}" for i in rng.integers(0, 3, len(run_lens))],
                                  run_lens).astype(tag_type),
                session=np.repeat([f"e{i}" for i in rng.integers(0, 2, len(run_lens))],
                                  run_lens).astype(tag_type),
            )
            step = int(rng.integers(1, 12))
            ds = dp.segment_windows(stream, profile(window_len=t_w, step=step, classes=classes))

            xs, ys, subjects, sessions = [], [], [], []
            run_start = 0
            for i in range(1, length + 1):
                if i < length and (stream.subject[i], stream.session[i]) == (
                        stream.subject[run_start], stream.session[run_start]):
                    continue
                seen["short_runs"] += i - run_start < t_w
                for a in range(run_start, i - t_w + 1, step):
                    counts = [int((stream.labels[a:a + t_w] == c).sum()) for c in range(classes)]
                    seen["ties"] += counts.count(max(counts)) > 1
                    xs.append(stream.data[a:a + t_w])
                    ys.append(counts.index(max(counts)))  # the first maximum: smaller id
                    subjects.append(stream.subject[a])
                    sessions.append(stream.session[a])
                run_start = i
            seen["empty"] += length == 0
            seen["window_beyond_stream"] += t_w > length

            x = np.array(xs, dtype=np.float64).reshape(len(xs), t_w, channels)
            assert ds.x.dtype == np.float64 and ds.x.flags.c_contiguous
            assert ds.x.shape == x.shape and ds.x.tobytes() == x.tobytes()
            assert ds.y.dtype == np.int64 and ds.y.tolist() == ys
            assert ds.subject.dtype == object and ds.subject.tolist() == subjects
            assert ds.session.dtype == object and ds.session.tolist() == sessions
        assert all(seen.values()), seen

    def test_window_count_property_against_enumeration(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            length = int(rng.integers(1, 400))
            t_w = int(rng.integers(1, 60))
            step = int(rng.integers(1, 40))
            naive = sum(
                1 for start in range(0, length) if start % step == 0 and start + t_w <= length
            )
            assert dp.window_count(length, t_w, step) == naive

    def test_deterministic_artifact_bytes(self, tmp_path):
        stream = make_stream(100, label_fn=lambda i: i % 2)
        ds = dp.segment_windows(stream, profile())
        a, b = tmp_path / "a.ds", tmp_path / "b.ds"
        ds.save(a)
        ds.save(b)
        assert a.read_bytes() == b.read_bytes()

    def test_artifact_round_trip(self, tmp_path):
        stream = make_stream(60, label_fn=lambda i: i % 2)
        ds = dp.segment_windows(stream, profile())
        path = tmp_path / "d.ds"
        ds.save(path)
        back = dp.WindowedDataset.load(path)
        np.testing.assert_array_equal(back.x, ds.x)
        np.testing.assert_array_equal(back.y, ds.y)
        assert back.window_len == ds.window_len
        assert back.label_names == ds.label_names
        assert back.subject.tolist() == ds.subject.tolist()
        assert back.session.tolist() == ds.session.tolist()
        _, meta = storage.load_container(path)
        assert sorted(meta) == ["label_names", "normalization_stats", "session", "subject"]

    def test_artifact_of_the_older_layout_loads(self, tmp_path):
        """Files that also record the window length, step and split tag load
        as they did; those keys are ignored."""
        ds, _ = dp.normalize(dp.segment_windows(
            make_stream(60, label_fn=lambda i: i % 2), profile()), "zscore")
        path = tmp_path / "d.ds"
        ds.save(path)
        arrays, meta = storage.load_container(path)
        storage.save_container(path, arrays, dict(meta, window_len=20, step=5,
                                                  split_tag="train"))
        back = dp.WindowedDataset.load(path)
        assert back.x.tobytes() == ds.x.tobytes() and back.y.tolist() == ds.y.tolist()
        for got, want in zip(back.normalization_stats, ds.normalization_stats):
            assert got.tobytes() == want.tobytes()
        resaved = tmp_path / "resaved.ds"
        back.save(resaved)
        ds.save(tmp_path / "current.ds")
        assert resaved.read_bytes() == (tmp_path / "current.ds").read_bytes()

    @pytest.mark.parametrize("missing", ["label_names", "subject", "session",
                                         "normalization_stats", "x", "y"])
    def test_artifact_without_a_key_raises_data_error(self, tmp_path, missing):
        path = tmp_path / "d.ds"
        dp.segment_windows(make_stream(60, label_fn=lambda i: i % 2), profile()).save(path)
        arrays, meta = storage.load_container(path)
        (arrays if missing in arrays else meta).pop(missing)
        storage.save_container(path, arrays, meta)
        with pytest.raises(DataError, match=f"{path}.*{missing}"):
            dp.WindowedDataset.load(path)

    # (array or meta key, replacement built from the saved arrays and meta)
    MALFORMED_ARTIFACTS = {
        "2-d x": ("x", lambda a, m: a["x"][:, :, 0]),
        "2-d y": ("y", lambda a, m: a["y"][:, None]),
        "float y": ("y", lambda a, m: a["y"].astype(np.float64)),
        "short y": ("y", lambda a, m: a["y"][1:]),
        "short subject": ("subject", lambda a, m: m["subject"][1:]),
        "long session": ("session", lambda a, m: m["session"] + ["extra"]),
        "session as one string": ("session", lambda a, m: "a"),
        "label_names as a number": ("label_names", lambda a, m: 5),
        "null label_names": ("label_names", lambda a, m: None),
        "label_names with a number": ("label_names", lambda a, m: m["label_names"][:1] + [1]),
    }

    @pytest.mark.parametrize("case", MALFORMED_ARTIFACTS)
    def test_artifact_with_inconsistent_arrays_raises_data_error(self, tmp_path, case):
        path = tmp_path / "d.ds"
        dp.segment_windows(make_stream(60, label_fn=lambda i: i % 2), profile()).save(path)
        arrays, meta = storage.load_container(path)
        key, replace = self.MALFORMED_ARTIFACTS[case]
        (arrays if key in arrays else meta)[key] = replace(arrays, meta)
        storage.save_container(path, arrays, meta)
        with pytest.raises(DataError, match=f"{path}: {key[0]}"):
            dp.WindowedDataset.load(path)


class TestNormalize:
    def _dataset(self, seed=3):
        stream = make_stream(200, label_fn=lambda i: i % 2, seed=seed)
        return dp.segment_windows(stream, profile())

    def test_constant_channel_guarded_to_zero(self):
        ds = self._dataset()
        ds.x[:, :, 1] = 7.5
        out, _ = dp.normalize(ds, "zscore")
        np.testing.assert_allclose(out.x[:, :, 1], 0.0, atol=1e-12)

    def test_already_standardized_unchanged(self):
        ds = self._dataset()
        first, stats = dp.normalize(ds, "zscore")
        second, _ = dp.normalize(first, "zscore")
        np.testing.assert_allclose(second.x, first.x, atol=1e-10)

    def test_train_stats_reused_on_test(self):
        ds = self._dataset()
        train, test = dp.split(ds, profile(split={"kind": "random", "train_fraction": 0.7}))
        train_n, stats = dp.normalize(train, "zscore")
        test_n, _ = dp.normalize(test, "zscore", stats=stats)
        # oracle: recompute transformation directly from train statistics
        flat = train.x.reshape(-1, train.x.shape[2])
        mean, std = flat.mean(axis=0), flat.std(axis=0)
        np.testing.assert_allclose(test_n.x, (test.x - mean) / std, atol=1e-12)

    def test_none_policy_is_passthrough(self):
        ds = self._dataset()
        out, stats = dp.normalize(ds, "none")
        assert out is ds and stats is None

    @pytest.mark.parametrize("given_stats", [False, True])
    def test_peak_is_one_output_and_bits_match_the_formula(self, given_stats):
        """z-scoring allocates the normalized windows once (subtract into a
        new array, divide it in place), computing statistics included, and
        gives the bits of (x - mean) / std."""
        n = 500
        ds = dp.WindowedDataset(
            x=np.random.default_rng(9).normal(3.0, 2.0, size=(n, 100, 3)),
            y=np.zeros(n, dtype=np.int64), label_names=["a"],
            subject=np.array(["s"] * n, dtype=object),
            session=np.array(["e"] * n, dtype=object),
        )
        _, stats = dp.normalize(ds, "zscore")
        tracemalloc.start()
        try:
            out, _ = dp.normalize(ds, "zscore", stats=stats if given_stats else None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * out.x.nbytes, peak / out.x.nbytes
        mean, std = stats
        assert out.x.tobytes() == ((ds.x - mean) / std).tobytes()


class TestSplit:
    def _balanced(self, n=100, classes=2):
        stream = make_stream(n * 10, label_fn=lambda i: (i // 10) % classes)
        return dp.segment_windows(stream, profile(window_len=10, step=10, classes=classes))

    def test_70_30_counts(self):
        ds = self._balanced(100)
        train, test = dp.split(ds, profile(split={"kind": "random", "train_fraction": 0.7}))
        assert len(train) == 70 and len(test) == 30

    def test_same_seed_same_indices(self):
        ds = self._balanced(100)
        p = profile(split={"kind": "random", "train_fraction": 0.7})
        a_train, a_test = dp.split(ds, p, seed=5)
        b_train, b_test = dp.split(ds, p, seed=5)
        np.testing.assert_array_equal(a_train.x, b_train.x)
        np.testing.assert_array_equal(a_test.y, b_test.y)

    def test_disjoint_and_exhaustive(self):
        ds = self._balanced(60)
        train, test = dp.split(ds, profile(split={"kind": "random", "train_fraction": 0.7}), seed=1)
        key = lambda part: {tuple(row) for row in part.x.reshape(len(part), -1)}
        assert not key(train) & key(test)
        assert len(train) + len(test) == len(ds)

    def test_stratification_is_per_class(self):
        ds = self._balanced(100, classes=2)
        train, _ = dp.split(ds, profile(split={"kind": "random", "train_fraction": 0.7}))
        counts = np.bincount(train.y)
        assert counts[0] == counts[1] == 35

    def test_session_split_excludes_held_out_sessions(self):
        stream = make_stream(200)
        stream.subject = np.array(
            ["s1"] * 50 + ["s2"] * 50 + ["s4"] * 100, dtype=object
        )
        stream.session = np.array(
            ["ADL1"] * 50 + ["ADL2"] * 50 + ["ADL4"] * 50 + ["ADL5"] * 50, dtype=object
        )
        ds = dp.segment_windows(stream, profile(window_len=10, step=10, classes=1))
        p = profile(window_len=10, step=10, classes=1, split={
            "kind": "sessions",
            "train": [["s1", "ADL1"], ["s2", "ADL2"]],
            "test": [["s4", "ADL4"], ["s4", "ADL5"]],
        })
        train, test = dp.split(ds, p)
        assert set(train.session) == {"ADL1", "ADL2"}
        assert set(test.session) == {"ADL4", "ADL5"}
        assert "ADL4" not in set(train.session) and "ADL5" not in set(train.session)


class TestStorageContainer:
    @pytest.mark.parametrize("writer", ["save_container", "write_text", "write_canonical"])
    def test_a_write_cut_short_leaves_the_previous_file(self, tmp_path, writer):
        def lines():
            yield "a line"
            raise RuntimeError("cut short")

        # label id 1 has no name: the second row fails after the first is written
        stream = dp.SensorStream(
            data=np.zeros((2, 1)), channel_names=["c"], sample_rate_hz=1.0,
            labels=np.array([0, 1]), label_names=["only"],
            subject=np.array(["s", "s"]), session=np.array(["a", "a"]))
        write = {
            # an object array has no raw bytes: it fails after the header and "a"
            "save_container": lambda path: storage.save_container(
                path, {"a": np.zeros(2), "b": np.array([None])}),
            "write_text": lambda path: storage.write_text(path, lines()),
            "write_canonical": lambda path: dp.write_canonical(path, stream),
        }[writer]
        path = tmp_path / "file"
        path.write_bytes(b"previous bytes")
        with pytest.raises((TypeError, RuntimeError, IndexError)):
            write(path)
        assert path.read_bytes() == b"previous bytes"
        assert os.listdir(tmp_path) == ["file"]

    def test_round_trip_and_determinism(self, tmp_path):
        arrays = {
            "b": np.arange(6, dtype=np.float64).reshape(2, 3),
            "a": np.array([1, 2, 3], dtype=np.int64),
        }
        meta = {"k": [1, 2], "name": "x"}
        p1, p2 = tmp_path / "c1.bin", tmp_path / "c2.bin"
        storage.save_container(p1, arrays, meta)
        storage.save_container(p2, arrays, meta)
        assert p1.read_bytes() == p2.read_bytes()
        back, back_meta = storage.load_container(p1)
        np.testing.assert_array_equal(back["b"], arrays["b"])
        assert back["a"].dtype == np.int64
        assert back_meta == meta

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"not a container")
        with pytest.raises(DataError, match="magic"):
            storage.load_container(path)

    def test_layout_matches_the_documented_bytes(self, tmp_path):
        path = tmp_path / "golden.bin"
        storage.save_container(path, {"w": np.array([[1.5, -2.0]]),
                                      "n": np.array([7, 8], dtype=np.int64)}, {"epoch": 3})
        header = (b'{"arrays":[{"dtype":"<i8","name":"n","nbytes":16,"offset":0,"shape":[2]},'
                  b'{"dtype":"<f8","name":"w","nbytes":16,"offset":16,"shape":[1,2]}],'
                  b'"meta":{"epoch":3},"version":1}')
        assert path.read_bytes() == (b"CCNNAR01" + struct.pack("<Q", len(header)) + header
                                     + struct.pack("<2q", 7, 8) + struct.pack("<2d", 1.5, -2.0))

    @pytest.mark.parametrize("arr", [
        np.empty((0, 20, 3)),
        np.array(2.5),
        np.asfortranarray(np.arange(12.0).reshape(3, 4)),
        np.arange(12.0).reshape(3, 4).T,
        np.arange(20.0)[::3],
        np.array([True, False, True]),
        np.arange(-3, 3, dtype=np.int64),
    ], ids=["empty", "0-d", "fortran", "transposed", "strided", "bool", "int64"])
    def test_round_trip_of_edge_arrays(self, tmp_path, arr):
        path = tmp_path / "edge.bin"
        storage.save_container(path, {"a": arr, "z": np.ones(2)})
        back, _ = storage.load_container(path)
        expected = arr.reshape(1) if arr.ndim == 0 else arr  # 0-d is stored as shape [1]
        assert back["a"].shape == expected.shape and back["a"].dtype == arr.dtype
        np.testing.assert_array_equal(back["a"], expected)
        np.testing.assert_array_equal(back["z"], np.ones(2))

    @pytest.mark.parametrize("case", sorted(CORRUPT_CONTAINERS))
    def test_corrupt_container_raises_data_error_naming_the_path(self, tmp_path, case):
        raw, message = CORRUPT_CONTAINERS[case]
        path = tmp_path / "corrupt.bin"
        path.write_bytes(raw)
        with pytest.raises(DataError, match=message) as err:
            storage.load_container(path)
        assert str(path) in str(err.value)

    def test_bytes_after_the_last_array_are_ignored(self, tmp_path):
        path = tmp_path / "tail.bin"
        storage.save_container(path, {"a": np.arange(4.0)})
        path.write_bytes(path.read_bytes() + b"trailing")
        np.testing.assert_array_equal(storage.load_container(path)[0]["a"], np.arange(4.0))

    @staticmethod
    def _traced_peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @staticmethod
    def _big_arrays():
        return {f"a{i}": np.full((1024, 512), float(i)) for i in range(8)}  # 32 MiB

    def test_save_stages_no_copy_of_the_payload(self, tmp_path):
        arrays = self._big_arrays()
        payload = sum(a.nbytes for a in arrays.values())
        peak = self._traced_peak(lambda: storage.save_container(tmp_path / "big.bin", arrays))
        assert peak <= 0.05 * payload, peak / payload

    def test_load_allocates_only_the_arrays(self, tmp_path):
        arrays = self._big_arrays()
        payload = sum(a.nbytes for a in arrays.values())
        storage.save_container(tmp_path / "big.bin", arrays)
        del arrays
        peak = self._traced_peak(lambda: storage.load_container(tmp_path / "big.bin"))
        assert peak <= 1.1 * payload, peak / payload

    def test_loaded_arrays_are_owned_and_writable(self, tmp_path):
        path = tmp_path / "own.bin"
        storage.save_container(path, {"a": np.arange(6.0), "b": np.ones((2, 2)),
                                      "e": np.empty(0)})
        back, _ = storage.load_container(path)
        for arr in back.values():
            assert arr.flags.owndata and arr.flags.writeable and arr.flags.c_contiguous
