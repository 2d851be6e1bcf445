"""One seeded training step per bundled recipe reproduces its recorded
fingerprint (see fingerprint.py): within RTOL on any platform, and
bit for bit where the numpy/BLAS/CPU stamp matches the recording."""

import json

import pytest

import fingerprint


@pytest.fixture(scope="module")
def record():
    with open(fingerprint.RECORD, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("case", sorted(fingerprint.CASES))
def test_step_matches_recorded_fingerprint(case, record):
    recorded = record["cases"][case]
    got = fingerprint.fingerprint(case)
    assert sorted(got["values"]) == sorted(recorded["values"])
    for name, (l1, weighted) in recorded["values"].items():
        tol = fingerprint.RTOL * l1
        got_l1, got_weighted = got["values"][name]
        assert abs(got_l1 - l1) <= tol, name
        assert abs(got_weighted - weighted) <= tol, name
    if record["stamp"] == fingerprint.stamp():
        assert got["sha256"] == recorded["sha256"]
