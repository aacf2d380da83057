import io
import json
import os
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from catagg import tensor_io
from catagg.errors import ArgumentError, CheckpointError, StateError
from catagg.params import ParamStore
from catagg.tensor_io import (load_bundle, load_tensor, read_tensor,
                              save_bundle, save_tensor)


def _header(shape, tag=0, magic=b"CATT"):
    return magic + struct.pack(f"<BB{len(shape)}I", tag, len(shape), *shape)


def test_tensor_roundtrip_f32(tmp_path):
    arr = np.random.default_rng(0).normal(size=(3, 4, 5)).astype(np.float32)
    p = tmp_path / "t.catt"
    save_tensor(p, arr)
    back = load_tensor(p)
    assert back.dtype == np.float32
    np.testing.assert_array_equal(back, arr)


def test_tensor_roundtrip_f64_and_scalar(tmp_path):
    arr = np.array(3.5, dtype=np.float64)
    p = tmp_path / "s.catt"
    save_tensor(p, arr)
    back = load_tensor(p)
    assert back.dtype == np.float64 and back.shape == ()
    assert back == 3.5


def test_tensor_header_layout(tmp_path):
    arr = np.arange(6, dtype=np.float32).reshape(2, 3)
    p = tmp_path / "h.catt"
    save_tensor(p, arr)
    raw = p.read_bytes()
    assert raw[:4] == b"CATT"
    assert raw[4] == 0 and raw[5] == 2
    assert int.from_bytes(raw[6:10], "little") == 2
    assert int.from_bytes(raw[10:14], "little") == 3
    assert np.frombuffer(raw[14:], dtype="<f4").tolist() == arr.reshape(-1).tolist()


def test_corrupt_magic_rejected(tmp_path):
    p = tmp_path / "bad.catt"
    save_tensor(p, np.zeros(3, np.float32))
    raw = bytearray(p.read_bytes())
    raw[:4] = b"NOPE"
    p.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError):
        load_tensor(p)


def test_truncated_file_rejected(tmp_path):
    p = tmp_path / "cut.catt"
    save_tensor(p, np.zeros((4, 4), np.float64))
    raw = p.read_bytes()
    p.write_bytes(raw[: len(raw) - 7])
    with pytest.raises(CheckpointError):
        load_tensor(p)


def test_bundle_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    arrays = {
        "a.w": rng.normal(size=(2, 3)).astype(np.float32),
        "a.b": rng.normal(size=3).astype(np.float32),
        "meta.step": np.array(7.0, dtype=np.float64),
    }
    meta = {"step": 7, "config": {"model": "cats"}}
    p = tmp_path / "ckpt.catb"
    save_bundle(p, arrays, meta)
    back, meta2 = load_bundle(p)
    assert meta2 == meta
    assert list(back) == list(arrays)
    for k in arrays:
        np.testing.assert_array_equal(back[k], arrays[k])


def test_bundle_version_mismatch(tmp_path):
    p = tmp_path / "v.catb"
    save_bundle(p, {}, {})
    raw = bytearray(p.read_bytes())
    raw[4] = 99
    p.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError):
        load_bundle(p)


@pytest.mark.parametrize("blob", [
    b"{not json", b"\xff\xfe", b"[1, 2]",
    pytest.param(b"[" * 100_000, id="deep-nesting"),
    pytest.param(b"1" * 5000, id="long-integer")])
def test_bundle_bad_metadata_rejected(tmp_path, blob):
    p = tmp_path / "m.catb"
    save_bundle(p, {}, {})
    raw = p.read_bytes()
    # magic, version, metadata length, metadata, record count
    p.write_bytes(raw[:8] + len(blob).to_bytes(4, "little") + blob + raw[-4:])
    with pytest.raises(CheckpointError, match="metadata"):
        load_bundle(p)


def test_bundle_bad_record_name_rejected(tmp_path):
    p = tmp_path / "n.catb"
    save_bundle(p, {"zz": np.zeros(1, np.float32)}, {})
    p.write_bytes(p.read_bytes().replace(b"zz", b"\xff\xfe", 1))
    with pytest.raises(CheckpointError, match="record name"):
        load_bundle(p)


def test_element_count_does_not_wrap():
    # 2^93 elements: an int64 product wraps to 0 and the empty payload "fits"
    with pytest.raises(CheckpointError, match="truncated"):
        read_tensor(io.BytesIO(_header((2**31, 2**31, 2**31))))


def test_oversized_claim_refused_before_reading(tmp_path):
    # 2^40 f32 elements: a file read of the claimed 4 TiB cannot be allocated
    p = tmp_path / "huge.catt"
    p.write_bytes(_header((2**20, 2**20)) + bytes(16))
    with open(p, "rb") as f, pytest.raises(CheckpointError, match="truncated"):
        read_tensor(f)


_EXTENT = st.sampled_from([0, 1, 2, 3, 2**16, 2**31, 2**32 - 1]) | \
    st.integers(0, 2**32 - 1)
_TENSOR = st.one_of(
    st.builds(lambda magic, tag, shape, payload:
              _header(shape, tag, magic) + payload,
              st.sampled_from([b"CATT", b"CATB", b"\0\0\0\0"]),
              st.sampled_from([0, 1, 2, 255]),
              st.lists(_EXTENT, max_size=8),
              st.binary(max_size=64)),
    st.binary(max_size=64))


def _bundle(version, meta, records):
    out = b"CATB" + struct.pack("<II", version, len(meta)) + meta
    out += struct.pack("<I", len(records))
    for name, tensor in records:
        out += struct.pack("<H", len(name)) + name + tensor
    return out


_BUNDLE = st.one_of(
    st.builds(_bundle, st.sampled_from([1, 2]),
              st.sampled_from([b"{}", json.dumps({"step": 1}).encode(),
                               b"[]", b"{", b"\xff"]),
              st.lists(st.tuples(st.sampled_from([b"a", b"b", b"\xff"]),
                                 _TENSOR), min_size=1, max_size=3)),
    st.binary(max_size=96))


@settings(max_examples=300, deadline=None)
@given(_TENSOR)
def test_fuzz_read_tensor_loads_or_refuses(raw):
    try:
        arr = read_tensor(io.BytesIO(raw))
    except CheckpointError:
        return
    assert arr.dtype in (np.float32, np.float64)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_BUNDLE)
def test_fuzz_load_bundle_loads_or_refuses(tmp_path, raw):
    p = tmp_path / "fuzz.catb"
    p.write_bytes(raw)
    try:
        arrays, meta = load_bundle(p)
    except CheckpointError:
        return
    assert isinstance(meta, dict) and isinstance(arrays, dict)


@pytest.mark.parametrize("save", [
    lambda p: save_tensor(p, np.ones((4, 4), np.float32)),
    lambda p: save_bundle(p, {"a": np.zeros(3), "b": np.ones((4, 4))}, {"k": 1}),
], ids=["tensor", "bundle"])
def test_failed_write_leaves_no_partial_file(tmp_path, monkeypatch, save):
    real = tensor_io.write_tensor

    def dies_midway(f, arr):
        real(f, arr[:1])  # some bytes reach the file first
        raise OSError("disk full")

    fresh, old = tmp_path / "fresh.bin", tmp_path / "old.bin"
    save(old)
    before = old.read_bytes()
    monkeypatch.setattr(tensor_io, "write_tensor", dies_midway)
    for path in (fresh, old):
        with pytest.raises(OSError, match="disk full"):
            save(path)
    assert not fresh.exists()
    assert old.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["old.bin"]


def test_store_registers_and_counts():
    ps = ParamStore(np.random.default_rng(0))
    w = ps.add("blk.w", (4, 3))
    b = ps.add("blk.b", (3,), init="zeros")
    g = ps.add("ln.gamma", (3,), init="ones")
    assert ps.n_params() == 12 + 3 + 3
    assert ps.n_params("blk") == 15
    assert ps["blk.w"] is w
    assert np.all(b.data == 0) and np.all(g.data == 1)
    assert w.requires_grad and w.grad is None


def test_store_fanin_bound():
    ps = ParamStore(np.random.default_rng(3))
    w = ps.add("w", (25, 100))
    assert np.abs(w.data).max() <= 1.0 / 5.0 + 1e-7


def test_store_duplicate_name_rejected():
    ps = ParamStore()
    ps.add("x", (2,))
    with pytest.raises(StateError):
        ps.add("x", (2,))


def test_store_unknown_name_and_init():
    ps = ParamStore()
    with pytest.raises(ArgumentError):
        ps["nope"]
    with pytest.raises(ArgumentError):
        ps.add("y", (2,), init="magic")


def test_store_zero_grad_resets():
    ps = ParamStore(np.random.default_rng(0))
    w = ps.add("w", (3,))
    w.grad = np.full(3, 5.0, np.float32)
    ps.zero_grad()
    assert w.grad is None


def test_store_load_arrays_strict():
    ps = ParamStore(np.random.default_rng(0))
    ps.add("a", (2, 2))
    state = ps.state_arrays()
    with pytest.raises(CheckpointError):
        ps.load_arrays({**state, "ghost": np.zeros(1, np.float32)})
    with pytest.raises(CheckpointError):
        ps.load_arrays({})
    with pytest.raises(CheckpointError):
        ps.load_arrays({"a": np.zeros((3, 3), np.float32)})
    new = {"a": np.full((2, 2), 2.0, np.float32)}
    ps.load_arrays(new)
    np.testing.assert_array_equal(ps["a"].data, new["a"])


def test_store_checkpoint_roundtrip(tmp_path):
    ps = ParamStore(np.random.default_rng(7))
    ps.add("m.w", (3, 3))
    ps.add("m.b", (3,), init="zeros")
    p = tmp_path / "s.catb"
    save_bundle(p, ps.state_arrays(), {"step": 0})
    ps2 = ParamStore(np.random.default_rng(99))
    ps2.add("m.w", (3, 3))
    ps2.add("m.b", (3,), init="zeros")
    arrays, _ = load_bundle(p)
    ps2.load_arrays(arrays)
    np.testing.assert_array_equal(ps2["m.w"].data, ps["m.w"].data)
