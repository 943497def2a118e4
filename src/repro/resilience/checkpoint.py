"""Atomic, checksummed checkpoint files.

The container format is deliberately dumb so corruption is detectable
and recovery is boring::

    RPCKPT1\\n<sha256 hex of payload>\\n<payload: npz bytes>

The payload is a standard ``np.savez`` archive whose ``__meta__`` entry
holds a JSON document (UTF-8 bytes) and whose remaining entries are the
caller's arrays.  Writes go through a same-directory temporary file and
``os.replace``, so a checkpoint on disk is either the complete previous
one or the complete new one — a process killed mid-write never leaves a
half-checkpoint that a resume would silently load.  Loads verify the
digest before touching the payload and raise :class:`CheckpointError`
on any mismatch or malformation.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import re
import struct
import tempfile
import zipfile

import numpy as np

from ..obs.metrics import counter

__all__ = ["CheckpointError", "save_checkpoint", "load_checkpoint"]

_MAGIC = b"RPCKPT1\n"
_META_KEY = "__meta__"
#: The header ``np.savez`` writes for a plain (non-structured) array.
_NPY_HEADER = re.compile(
    r"\{'descr': '([^']+)', 'fortran_order': (True|False), "
    r"'shape': \(([\d, ]*)\), \}")


class CheckpointError(RuntimeError):
    """A checkpoint file is missing, truncated, corrupt, or mismatched."""


def save_checkpoint(path: str, arrays: dict[str, np.ndarray],
                    meta: dict, component: str = "generic") -> str:
    """Atomically write ``arrays`` + JSON-serializable ``meta`` to ``path``.

    Returns the content digest (hex sha256 of the payload).  The write is
    atomic with respect to readers of ``path``; partial writes are
    impossible to observe.
    """
    if _META_KEY in arrays:
        raise ValueError(f"array name {_META_KEY!r} is reserved")
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    buf = io.BytesIO()
    np.savez(buf, **{_META_KEY: np.frombuffer(meta_bytes, dtype=np.uint8)},
             **arrays)
    payload = buf.getvalue()
    digest = hashlib.sha256(payload).hexdigest()

    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp_path = tempfile.mkstemp(prefix=".ckpt-", dir=directory)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(digest.encode("ascii"))
            fh.write(b"\n")
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        # Never leave temp litter behind a failed/interrupted save.
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    counter("resilience_checkpoints_total", component=component).inc()
    return digest


def load_checkpoint(path: str, component: str = "generic") \
        -> tuple[dict[str, np.ndarray], dict]:
    """Read and verify a checkpoint; returns ``(arrays, meta)``.

    Raises :class:`CheckpointError` when the file is not a checkpoint,
    its digest does not match its payload (bit rot, torn copy), or the
    payload fails to parse.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}") \
            from exc
    if not raw.startswith(_MAGIC):
        raise CheckpointError(f"{path!r} is not a checkpoint file "
                              f"(bad magic)")
    header_end = raw.find(b"\n", len(_MAGIC))
    if header_end < 0:
        raise CheckpointError(f"{path!r} is truncated (no digest line)")
    digest = raw[len(_MAGIC):header_end].decode("ascii", "replace")
    payload = raw[header_end + 1:]
    actual = hashlib.sha256(payload).hexdigest()
    if actual != digest:
        counter("resilience_faults_total", component="checkpoint",
                kind="corrupt").inc()
        raise CheckpointError(
            f"checkpoint {path!r} is corrupt: digest mismatch "
            f"(recorded {digest[:12]}..., actual {actual[:12]}...)")
    try:
        arrays = _read_npz(payload)
        meta = json.loads(arrays.pop(_META_KEY).tobytes().decode("utf-8"))
    except (ValueError, KeyError, OSError, zipfile.BadZipFile,
            struct.error) as exc:
        raise CheckpointError(
            f"checkpoint {path!r} payload failed to parse: {exc}") from exc
    counter("resilience_restores_total", component=component).inc()
    return arrays, meta


def _read_npz(payload: bytes) -> dict[str, np.ndarray]:
    """The arrays of an ``np.savez`` archive, as ``np.load`` returns them.

    ``np.load`` parses every member header with ``ast.literal_eval``,
    which costs more than reading a small array: a profile-cache hit
    reads seven members, and a warm dataset generation is mostly hits.
    A header in the form ``np.savez`` writes for a plain array is matched
    here instead; any other goes through ``np.lib.format``.  Object
    arrays are refused either way, as with ``allow_pickle=False``.
    """
    with zipfile.ZipFile(io.BytesIO(payload)) as zf:
        return {name.removesuffix(".npy"): _read_npy(zf.read(name))
                for name in zf.namelist()}


def _read_npy(raw: bytes) -> np.ndarray:
    if raw[:6] != b"\x93NUMPY":
        raise ValueError("archive member is not an .npy array")
    fmt, start = ("<H", 10) if raw[6] == 1 else ("<I", 12)
    end = start + struct.unpack_from(fmt, raw, 8)[0]
    m = _NPY_HEADER.match(raw[start:end].decode("latin1"))
    if m is None:
        return np.lib.format.read_array(io.BytesIO(raw), allow_pickle=False)
    dtype = np.dtype(m.group(1))  # np.frombuffer refuses object dtypes
    shape = tuple(int(s) for s in m.group(3).split(",") if s.strip())
    flat = np.frombuffer(raw, dtype, count=math.prod(shape), offset=end)
    if m.group(2) == "True":
        return flat.reshape(shape[::-1]).T.copy(order="F")
    return flat.reshape(shape).copy()
