"""On-disk field checkpoints and trajectory manifests.

Field checkpoint format ("YMF1"):

    offset  size  contents
    0       4     magic b"YMF1"
    4       1     endianness flag (1 = little-endian payload)
    5       1     group kind code (0 = u1, 1 = su, 2 = u)
    6       1     matrix dimension N of the group
    7       1     reserved (0)
    8       4     uint32 cutoff
    12      4     uint32 algebra dimension d_g
    16      ...   complex128 little-endian coefficients, C order, indexed
                  (a, j, n1, n2, n3) with each n axis running -N..N

Round trips are bit-exact.  Reading rejects a non-zero reserved byte,
non-finite coefficients, and coefficients that break the reality symmetry
coeff(-n) = conj(coeff(n)) by more than rounding (grid transforms read
only the n3 >= 0 half, so a non-real file would be silently reinterpreted).

Every output file of the package is written through ``atomic_open``: a
temporary file beside the target, moved onto it with ``os.replace`` only
once complete, so a failed or interrupted write leaves the previous file
intact and no partial one behind.
"""

from __future__ import annotations

import json
import os
import struct
import uuid
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .fields import SpectralConnection, reality_defect
from .groups import GroupSpec

__all__ = ["atomic_open", "write_field", "read_field", "FieldFileError",
           "write_manifest", "read_manifest"]

MAGIC = b"YMF1"
_KIND_CODE = {"u1": 0, "su": 1, "u": 2}
_CODE_KIND = {v: k for k, v in _KIND_CODE.items()}
_HEADER = struct.Struct("<4sBBBBII")
# relative reality defect a real field can carry from rounding
_REALITY_TOL = 1e-12


class FieldFileError(Exception):
    pass


@contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Open a fresh temporary file in the directory of ``path`` for writing
    (``mode`` "w" or "wb", ``kwargs`` as for ``open``) and, when the block
    completes, move it onto ``path`` with ``os.replace``.  If the block
    raises, the temporary file is removed and ``path`` is left as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, mode.replace("w", "x"), **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_field(path, a: SpectralConnection) -> None:
    header = _HEADER.pack(
        MAGIC, 1, _KIND_CODE[a.group.kind], a.group.matrix_dim, 0,
        a.cutoff, a.group.algebra_dim,
    )
    payload = np.ascontiguousarray(a.coeffs, dtype="<c16").tobytes()
    with atomic_open(path, "wb") as fh:
        fh.write(header + payload)


def read_field(path) -> SpectralConnection:
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < _HEADER.size:
        raise FieldFileError(f"{path}: truncated header")
    magic, endian, kind_code, mdim, reserved, cutoff, d_g = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise FieldFileError(f"{path}: bad magic {magic!r}")
    if endian != 1:
        raise FieldFileError(f"{path}: unsupported endianness flag {endian}")
    if reserved != 0:
        raise FieldFileError(f"{path}: reserved header byte is {reserved}, not 0")
    if kind_code not in _CODE_KIND:
        raise FieldFileError(f"{path}: unknown group kind code {kind_code}")
    group = GroupSpec(_CODE_KIND[kind_code], mdim)
    if group.algebra_dim != d_g:
        raise FieldFileError(
            f"{path}: algebra dimension {d_g} inconsistent with group {group.label()}"
        )
    k = 2 * cutoff + 1
    expected = d_g * 3 * k**3
    data = np.frombuffer(raw, dtype="<c16", offset=_HEADER.size)
    if data.size != expected:
        raise FieldFileError(
            f"{path}: expected {expected} coefficients, found {data.size}"
        )
    if not np.all(np.isfinite(data)):
        raise FieldFileError(f"{path}: non-finite coefficients")
    coeffs = data.reshape(d_g, 3, k, k, k).astype(np.complex128)
    a = SpectralConnection(group, cutoff, coeffs)
    defect = reality_defect(a)
    if defect > _REALITY_TOL * max(1.0, float(np.max(np.abs(data)))):
        raise FieldFileError(
            f"{path}: coefficients break the reality symmetry c(-n) = conj(c(n)) "
            f"by {defect:.3e}"
        )
    return a


def write_manifest(path, manifest: dict) -> None:
    with atomic_open(path) as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def read_manifest(path) -> dict:
    return json.loads(Path(path).read_text())
