"""Snapshot format: byte-exact round trips and validation."""

import json
import re
import struct

import numpy as np
import pytest

from nsab.field import as_complex, layout_for, random_field
from nsab.params import ChannelGeometry, Resolution, derive_params
from nsab.snapshots import (HEADER_LEN, MAGIC, SnapshotError, read_snapshot,
                            write_snapshot)


def test_round_trip_byte_identical(tmp_path, geo, res_small):
    par = derive_params(0.2, 0.1, 0.5, 0.05)
    f = random_field(geo, res_small, seed=12, amplitude=1.0)
    p1 = tmp_path / "a.snap"
    p2 = tmp_path / "b.snap"
    write_snapshot(p1, f, par)
    g, meta, par2 = read_snapshot(p1)
    write_snapshot(p2, g, par2)
    assert p1.read_bytes() == p2.read_bytes()
    assert np.array_equal(f.psi, g.psi)
    assert np.array_equal(f.phi, g.phi)
    assert np.array_equal(f.mean, g.mean)
    assert par2.k == par.k


def test_header_layout(tmp_path, geo, res_small):
    f = random_field(geo, res_small, seed=1)
    p = tmp_path / "x.snap"
    write_snapshot(p, f)
    raw = p.read_bytes()
    assert raw[:8] == MAGIC
    version, meta_len = struct.unpack("<IQ", raw[8:20])
    assert version == 1
    assert raw[20:HEADER_LEN] == bytes(HEADER_LEN - 20)
    meta = json.loads(raw[HEADER_LEN:HEADER_LEN + meta_len])
    assert meta["resolution"]["P"] == res_small.P
    assert meta["resolution"]["Q"] == res_small.Q == 19
    assert "layout" in meta


def test_reads_files_that_carry_a_padding_factor(tmp_path, geo, res_small):
    # files written while the padded grid was pad * N name "pad" in their
    # resolution metadata; the grid is fixed now, so the entry is ignored
    f = random_field(geo, res_small, seed=5)
    p = tmp_path / "new.snap"
    write_snapshot(p, f)
    raw = p.read_bytes()
    _, meta_len = struct.unpack("<IQ", raw[8:20])
    meta = json.loads(raw[HEADER_LEN:HEADER_LEN + meta_len])
    assert "pad" not in meta["resolution"]
    meta["resolution"]["pad"] = 2
    old_meta = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
    old = tmp_path / "old.snap"
    old.write_bytes((MAGIC + struct.pack("<IQ", 1, len(old_meta))).ljust(HEADER_LEN, b"\0")
                    + old_meta + raw[HEADER_LEN + meta_len:])
    g, meta_read, _ = read_snapshot(old)
    assert meta_read["resolution"]["pad"] == 2
    assert g.resolution == res_small
    assert np.array_equal(f.psi, g.psi) and np.array_equal(f.phi, g.phi)
    assert np.array_equal(f.mean, g.mean)


@pytest.mark.parametrize("dq", [-1, 1], ids=["below", "above"])
def test_rejects_a_node_count_other_than_the_rule(tmp_path, geo, res_small, dq):
    # Q = ceil((3P+1)/2) always; a file naming another Q was not written
    # on the grid every reader builds
    f = random_field(geo, res_small, seed=5)
    p = tmp_path / "new.snap"
    write_snapshot(p, f)
    raw = p.read_bytes()
    _, meta_len = struct.unpack("<IQ", raw[8:20])
    meta = json.loads(raw[HEADER_LEN:HEADER_LEN + meta_len])
    meta["resolution"]["Q"] += dq
    other = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
    bad = tmp_path / "other_q.snap"
    bad.write_bytes((MAGIC + struct.pack("<IQ", 1, len(other))).ljust(HEADER_LEN, b"\0")
                    + other + raw[HEADER_LEN + meta_len:])
    with pytest.raises(SnapshotError, match=re.escape(
            f"{bad}: Q = {19 + dq}, but P = 12 has Q = ceil((3P+1)/2) = 19 nodes")):
        read_snapshot(bad)


def test_rejects_corrupt_files(tmp_path, geo, res_small):
    p = tmp_path / "bad.snap"
    p.write_bytes(b"not a snapshot at all" + bytes(64))
    with pytest.raises(SnapshotError, match="not a snapshot"):
        read_snapshot(p)
    f = random_field(geo, res_small, seed=1)
    good = tmp_path / "good.snap"
    write_snapshot(good, f)
    data = good.read_bytes()
    (tmp_path / "trunc.snap").write_bytes(data[:-16])
    with pytest.raises(SnapshotError, match="payload"):
        read_snapshot(tmp_path / "trunc.snap")


@pytest.mark.parametrize("meta", [b"{not json", b'{"geometry":{"L1":1,"L2":1,"H":1}}',
                                  b"\xff\xfe"], ids=["not-json", "no-resolution", "not-utf8"])
def test_rejects_malformed_metadata(tmp_path, meta):
    bad = tmp_path / "meta.snap"
    bad.write_bytes((MAGIC + struct.pack("<IQ", 1, len(meta))).ljust(HEADER_LEN, b"\0") + meta)
    with pytest.raises(SnapshotError, match=re.escape(f"{bad}: malformed metadata")):
        read_snapshot(bad)


def _payload(path):
    raw = path.read_bytes()
    _, meta_len = struct.unpack("<IQ", raw[8:20])
    start = HEADER_LEN + meta_len
    return raw[:start], np.frombuffer(raw[start:], dtype="<f8").copy()


def _full_spectrum(rows, geo, res):
    """(N1, N2, n) fft-order array holding each stored mode and its partner."""
    lay = layout_for(geo, res)
    full = np.zeros((res.N1, res.N2, rows.shape[1]), complex)
    for k1, k2 in lay.reps:
        full[k1 % res.N1, k2 % res.N2] = rows[lay.row[(k1, k2)]]
        full[-k1 % res.N1, -k2 % res.N2] = np.conj(rows[lay.row[(k1, k2)]])
    return full


def test_payload_is_full_hermitian_spectrum(tmp_path, geo, res_small):
    f = random_field(geo, res_small, seed=4)
    p = tmp_path / "f.snap"
    write_snapshot(p, f)
    _, payload = _payload(p)
    expect = np.concatenate([_full_spectrum(as_complex(f.psi), geo, res_small)
                             .view(np.float64).ravel(),
                             _full_spectrum(as_complex(f.phi), geo, res_small)
                             .view(np.float64).ravel(),
                             f.mean.ravel()])
    assert np.array_equal(payload, expect)


@pytest.mark.parametrize("where", ["partner", "nyquist", "zero-mode"])
def test_rejects_non_hermitian_payload(tmp_path, geo, res_small, where):
    f = random_field(geo, res_small, seed=4)
    good = tmp_path / "good.snap"
    write_snapshot(good, f)
    head, payload = _payload(good)
    N1, N2, n_t = res_small.N1, res_small.N2, res_small.n_toroidal
    k1, k2 = layout_for(geo, res_small).reps[0]
    i1, i2 = {"partner": (-k1 % N1, -k2 % N2), "nyquist": (N1 // 2, 1),
              "zero-mode": (0, 0)}[where]
    psi = payload[:2 * N1 * N2 * n_t].reshape(N1, N2, n_t, 2)
    psi[i1, i2, 0, 0] += 0.5          # real part of one psi entry
    bad = tmp_path / "bad.snap"
    bad.write_bytes(head + payload.astype("<f8").tobytes())
    with pytest.raises(SnapshotError, match="Hermitian|Nyquist"):
        read_snapshot(bad)
