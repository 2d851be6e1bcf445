"""Deterministic on-disk container for named arrays plus JSON metadata.

Layout: 8-byte magic, little-endian uint64 header length, UTF-8 JSON header
(sorted keys), then raw C-order array payloads in the order the header
lists them (sorted by name). Identical content always produces identical
bytes: no timestamps, no compression, no platform-dependent fields. Every
file condcnn writes, text (UTF-8, LF) included, is written here atomically:
to a temporary file beside it that is renamed over it; `csv_line` formats
every CSV line.

Array bytes move once: a save writes each payload from the array's own
memory and a load reads it into a fresh array, with no staging copy. A
file that breaks the layout raises DataError naming the path.
"""

import csv
import json
import math
import os
import shutil
import struct
import tempfile
from contextlib import suppress
from types import SimpleNamespace

import numpy as np

from .errors import DataError

MAGIC = b"CCNNAR01"
_ENTRY_KEYS = ("name", "dtype", "shape", "offset", "nbytes")
# with `str` as its file's `write`, `writerow` returns the quoted row and its
# line terminator. `csv` quotes a cell that holds a character of the
# terminator, so a CR LF one quotes cells with a CR as well as with a LF.
_csv_row = csv.writer(SimpleNamespace(write=str), lineterminator="\r\n").writerow


def save_container(path, arrays, meta=None):
    """Write named arrays and a JSON-serializable meta dict to `path`."""
    entries, contiguous = [], []
    offset = 0
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        entries.append({
            "name": name,
            "dtype": arr.dtype.str,
            "shape": list(arr.shape),
            "offset": offset,
            "nbytes": arr.nbytes,
        })
        contiguous.append(arr)
        offset += arr.nbytes
    header = json.dumps(
        {"version": 1, "meta": meta or {}, "arrays": entries},
        sort_keys=True, separators=(",", ":"),
    ).encode("utf-8")

    def write(fh):
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        for arr in contiguous:
            fh.write(arr.reshape(-1).view(np.uint8))
    _replace(path, write)


def write_text(path, lines):
    """Write each string of `lines` to `path` as UTF-8, followed by one LF."""
    _replace(path, lambda fh: fh.writelines(f"{line}\n".encode("utf-8") for line in lines))


def csv_line(cells):
    """One CSV line, without a line end: a float cell (Python or numpy) as
    `repr(float(v))`, any other as `str`, quoted as Python's `csv` quotes
    it; a cell holding a CR or a LF is quoted."""
    return _csv_row([repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)
                     for v in cells])[:-2]


def _replace(path, write):
    """Give `path` the bytes `write(fh)` writes to a binary file, through
    one rename of a temporary file beside it; make its directories first."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def copy_file(src, dst):
    """Give `dst` the bytes of `src` through one rename: a hard link to a
    temporary name beside `dst`, or a copy where the filesystem refuses
    links. Every save replaces its file with a fresh one, so a later save
    of `src` leaves the linked `dst` as it is."""
    tmp = dst + ".tmp"
    with suppress(FileNotFoundError):
        os.unlink(tmp)  # left by a run killed here
    try:
        try:
            os.link(src, tmp)
        except OSError:
            shutil.copy(src, tmp)  # with its mode bits, as a link has
        os.replace(tmp, dst)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def load_container(path):
    """Read back (arrays, meta) written by `save_container`. Each array is
    read from the file into a fresh array that shares memory with nothing:
    the caller owns it and may keep or modify it without copying."""
    with open(path, "rb") as fh:
        if fh.read(len(MAGIC)) != MAGIC:
            raise DataError(f"{path}: not a condcnn container (bad magic)")
        size = os.fstat(fh.fileno()).st_size
        raw = fh.read(8)
        # a missing or short length field counts as a header past the end
        length = struct.unpack("<Q", raw)[0] if len(raw) == 8 else size
        if fh.tell() + length > size:
            raise DataError(f"{path}: truncated container header")
        try:
            header = json.loads(fh.read(length).decode("utf-8"))
        except ValueError as err:  # UnicodeDecodeError and JSONDecodeError alike
            raise DataError(f"{path}: container header is not UTF-8 JSON ({err})") from None
        if not isinstance(header, dict):
            raise DataError(f"{path}: container header is not a JSON object")
        if header.get("version") != 1:
            raise DataError(f"{path}: unsupported container version")
        if not isinstance(header.get("meta"), dict) or not isinstance(header.get("arrays"), list):
            raise DataError(f"{path}: container header lacks its meta dict or array list")
        arrays = {}
        position, payload_size = 0, size - fh.tell()
        for entry in header["arrays"]:
            name, dtype, shape = _entry_fields(entry, path)
            nbytes = math.prod(shape) * dtype.itemsize
            if entry["offset"] != position or entry["nbytes"] != nbytes:
                raise DataError(f"{path}: offset or nbytes of {name!r} disagrees with the layout")
            if position + nbytes > payload_size:
                raise DataError(f"{path}: truncated payload for {name!r}")
            arrays[name] = np.empty(shape, dtype)
            fh.readinto(arrays[name].reshape(-1).view(np.uint8))
            position += nbytes
    return arrays, header["meta"]


def _entry_fields(entry, path):
    """(name, dtype, shape) of one header entry; DataError if a field is
    missing or malformed."""
    if (not isinstance(entry, dict) or any(k not in entry for k in _ENTRY_KEYS)
            or not isinstance(entry["name"], str)):
        raise DataError(f"{path}: array entry {entry!r} needs a string name and "
                        f"{', '.join(_ENTRY_KEYS[1:])}")
    name, shape = entry["name"], entry["shape"]
    try:
        dtype = np.dtype(entry["dtype"]) if isinstance(entry["dtype"], str) else None
    except (TypeError, ValueError, SyntaxError):  # numpy parses some strings as Python
        dtype = None
    if dtype is None or dtype.hasobject:
        raise DataError(f"{path}: array {name!r} has unknown dtype {entry['dtype']!r}")
    if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
        raise DataError(f"{path}: array {name!r} has malformed shape {shape!r}")
    return name, dtype, tuple(shape)
