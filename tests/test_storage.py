import numpy as np
import pytest

from conftest import random_connection
from ymflow.groups import SU2, U1, GroupSpec
from ymflow.storage import FieldFileError, read_field, write_field


@pytest.mark.parametrize("group,cutoff", [(U1, 3), (SU2, 2), (GroupSpec("u", 2), 1)])
def test_round_trip_bit_exact(tmp_path, group, cutoff):
    a = random_connection(group, cutoff, seed=1)
    path = tmp_path / "field.ymf"
    write_field(path, a)
    b = read_field(path)
    assert b.group == a.group
    assert b.cutoff == a.cutoff
    assert np.array_equal(b.coeffs, a.coeffs)
    # writing the reread field reproduces the file byte for byte
    path2 = tmp_path / "field2.ymf"
    write_field(path2, b)
    assert path.read_bytes() == path2.read_bytes()


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.ymf"
    path.write_bytes(b"NOPE" + bytes(60))
    with pytest.raises(FieldFileError, match="magic"):
        read_field(path)


def test_truncated_payload_rejected(tmp_path):
    a = random_connection(U1, 2, seed=2)
    path = tmp_path / "field.ymf"
    write_field(path, a)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 16])
    with pytest.raises(FieldFileError, match="coefficients"):
        read_field(path)


def test_truncated_header_rejected(tmp_path):
    path = tmp_path / "short.ymf"
    path.write_bytes(b"YMF1")
    with pytest.raises(FieldFileError, match="header"):
        read_field(path)


def test_nonzero_reserved_byte_rejected(tmp_path):
    path = tmp_path / "field.ymf"
    write_field(path, random_connection(U1, 2, seed=3))
    raw = bytearray(path.read_bytes())
    raw[7] = 1
    path.write_bytes(bytes(raw))
    with pytest.raises(FieldFileError, match="reserved"):
        read_field(path)


def test_non_finite_coefficients_rejected(tmp_path):
    a = random_connection(SU2, 1, seed=4)
    a.coeffs[1, 2, 0, 1, 2] = complex(np.nan, 0.0)
    path = tmp_path / "field.ymf"
    write_field(path, a)
    with pytest.raises(FieldFileError, match="non-finite"):
        read_field(path)


def test_broken_conjugate_pair_rejected(tmp_path):
    # grid transforms read only the n3 >= 0 half, so a non-real field must
    # be refused rather than reinterpreted
    a = random_connection(SU2, 2, seed=5)
    a.coeffs[0, 1, 3, 1, 4] += 0.25j      # c(n) moved, c(-n) left alone
    path = tmp_path / "field.ymf"
    write_field(path, a)
    with pytest.raises(FieldFileError, match="reality"):
        read_field(path)
    # rounding-level defects of a flowed field still read back
    a.coeffs[0, 1, 3, 1, 4] -= 0.25j
    a.coeffs[0, 1, 3, 1, 4] += 1e-15
    write_field(path, a)
    assert np.array_equal(read_field(path).coeffs, a.coeffs)
