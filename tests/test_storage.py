import numpy as np
import pytest

from conftest import random_connection
from ymflow.fields import SpectralConnection
from ymflow.groups import SU2, U1, GroupSpec
from ymflow.storage import (
    FieldFileError,
    atomic_open,
    read_field,
    read_manifest,
    write_field,
    write_manifest,
)


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


def test_payload_cut_inside_a_coefficient_rejected(tmp_path):
    path = tmp_path / "field.ymf"
    write_field(path, random_connection(U1, 2, seed=2))
    raw = path.read_bytes()
    path.write_bytes(raw[:-3])
    payload = len(raw) - 3 - 16
    with pytest.raises(FieldFileError, match=f"payload of {payload} bytes") as info:
        read_field(path)
    assert str(path) in str(info.value)


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


@pytest.mark.parametrize("kind_code, matrix_dim", [(1, 1), (0, 2), (2, 0), (1, 0)],
                         ids=["su1", "u1-N2", "u0", "su0"])
def test_impossible_group_rejected_naming_the_file(tmp_path, kind_code, matrix_dim):
    # a header naming a group that cannot exist is a corrupt file, not a
    # bare ValueError of the group constructor
    path = tmp_path / "field.ymf"
    write_field(path, random_connection(U1, 1, seed=6))
    raw = bytearray(path.read_bytes())
    raw[5], raw[6] = kind_code, matrix_dim
    path.write_bytes(bytes(raw))
    with pytest.raises(FieldFileError, match="header names no group") as info:
        read_field(path)
    assert str(path) in str(info.value)


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


def test_atomic_open_failure_midway_keeps_previous_file(tmp_path):
    path = tmp_path / "report.txt"
    path.write_text("previous\n")
    with pytest.raises(RuntimeError, match="interrupted"):
        with atomic_open(path) as fh:
            fh.write("partial")
            fh.flush()
            raise RuntimeError("interrupted")
    assert path.read_text() == "previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.txt"]
    with atomic_open(path) as fh:
        fh.write("complete\n")
    assert path.read_text() == "complete\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.txt"]


def test_failed_field_and_manifest_writes_keep_previous_files(tmp_path, monkeypatch):
    import ymflow.storage as storage
    field_path, manifest_path = tmp_path / "field.ymf", tmp_path / "run.json"
    a = random_connection(SU2, 2, seed=4)
    write_field(field_path, a)
    write_manifest(manifest_path, {"run": 1})
    before = field_path.read_bytes()

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(storage.os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        write_field(field_path, SpectralConnection(a.group, a.cutoff, a.coeffs * 2.0))
    with pytest.raises(OSError, match="rename refused"):
        write_manifest(manifest_path, {"run": 2})
    assert field_path.read_bytes() == before
    assert read_manifest(manifest_path) == {"run": 1}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["field.ymf", "run.json"]
