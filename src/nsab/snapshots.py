"""Binary field snapshots: fixed 64-byte header, JSON metadata, raw payload.

Layout:
  bytes 0-7    magic ``NSABSNP1``
  bytes 8-11   format version, little-endian uint32
  bytes 12-19  metadata byte length, little-endian uint64
  bytes 20-63  zero padding
  metadata     UTF-8 JSON (sorted keys, no whitespace): geometry, resolution,
               parameter echo, payload layout and norm conventions
  payload      little-endian float64: psi as re/im pairs in C order
               (k1-major fft ordering, then k2, then basis index), then phi
               likewise, then the two real mean-coefficient rows.

The payload holds the full N1 x N2 spectrum, while a field stores its
representative modes only: the writer expands it (conjugate partners,
zero Nyquist and (0,0) potential entries), and the reader packs it after
checking that the file is such an expansion.  write -> read -> write is
byte-identical.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .field import SolenoidalField, as_complex, as_planes, layout_for
from .params import ChannelGeometry, Resolution, derive_params

MAGIC = b"NSABSNP1"
VERSION = 1
HEADER_LEN = 64

PAYLOAD_LAYOUT = ("psi[c128: N1 x N2 x (P-1)], phi[c128: N1 x N2 x (P-3)], "
                  "mean[f64: 2 x (P-1)]; complex stored re,im; fft mode order")


class SnapshotError(RuntimeError):
    pass


def _metadata(field, params=None):
    g, r = field.geometry, field.resolution
    meta = {
        "format": "nsab-snapshot",
        "version": VERSION,
        "geometry": {"L1": g.L1, "L2": g.L2, "H": g.H},
        "resolution": {"N1": r.N1, "N2": r.N2, "P": r.P, "Q": r.Q},
        "layout": PAYLOAD_LAYOUT,
        "basis": "per-block M-orthonormalized Legendre recombination",
    }
    if params is not None:
        meta["params"] = {"alpha": params.alpha, "beta": params.beta,
                          "gamma": params.gamma, "ell": params.ell, "k": params.k}
    return meta


def _expand(rows, lay):
    """(R, n) representative rows -> (N1, N2, n) Hermitian fft-order array."""
    full = np.zeros((lay.N1, lay.N2, rows.shape[1]), complex)
    k1, k2 = lay.k.T
    full[k1 % lay.N1, k2 % lay.N2] = rows
    full[-k1 % lay.N1, -k2 % lay.N2] = np.conj(rows)
    return full


def _pack(full, lay, path, name):
    """Inverse of _expand; SnapshotError if full is not such an expansion."""
    rows = full[lay.k[:, 0] % lay.N1, lay.k[:, 1] % lay.N2]
    if not np.array_equal(_expand(rows, lay), full, equal_nan=True):
        raise SnapshotError(f"{path}: {name} is not Hermitian: a partner is not "
                            f"the conjugate of its representative, or a Nyquist "
                            f"or (0,0) entry is nonzero")
    return rows


def write_snapshot(path, field, params=None):
    meta = json.dumps(_metadata(field, params), sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    header = MAGIC + struct.pack("<IQ", VERSION, len(meta))
    header = header.ljust(HEADER_LEN, b"\0")
    lay = layout_for(field.geometry, field.resolution)
    payload = (_expand(as_complex(field.psi), lay).view(np.float64).astype("<f8").tobytes()
               + _expand(as_complex(field.phi), lay).view(np.float64).astype("<f8").tobytes()
               + np.ascontiguousarray(field.mean, dtype=np.float64)
               .astype("<f8").tobytes())
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(meta)
        fh.write(payload)


def read_snapshot(path):
    with open(path, "rb") as fh:
        header = fh.read(HEADER_LEN)
        if len(header) != HEADER_LEN or header[:8] != MAGIC:
            raise SnapshotError(f"{path}: not a snapshot file")
        version, meta_len = struct.unpack("<IQ", header[8:20])
        if version != VERSION:
            raise SnapshotError(f"{path}: unsupported snapshot version {version}")
        try:
            meta = json.loads(fh.read(meta_len).decode("utf-8"))
            g = ChannelGeometry(**meta["geometry"])
            rr = meta["resolution"]
            # files from before the fixed 3/2-rule grid also carry a "pad" entry
            res, q = Resolution(rr["N1"], rr["N2"], rr["P"]), rr["Q"]
        except (ValueError, KeyError, TypeError) as exc:  # bad UTF-8, JSON or entries
            raise SnapshotError(f"{path}: malformed metadata: {exc!r}") from exc
        if q != res.Q:
            raise SnapshotError(f"{path}: Q = {q!r}, but P = {res.P} has "
                                f"Q = ceil((3P+1)/2) = {res.Q} nodes")
        n_t, n_p = res.n_toroidal, res.n_poloidal
        npsi = res.N1 * res.N2 * n_t
        nphi = res.N1 * res.N2 * n_p
        buf = fh.read()
    expect = 16 * (npsi + nphi) + 8 * 2 * n_t
    if len(buf) != expect:
        raise SnapshotError(f"{path}: payload has {len(buf)} bytes, "
                            f"expected {expect}")
    psi = np.frombuffer(buf[:16 * npsi], dtype="<c16").reshape(res.N1, res.N2, n_t)
    phi = np.frombuffer(buf[16 * npsi:16 * (npsi + nphi)],
                        dtype="<c16").reshape(res.N1, res.N2, n_p)
    mean = np.frombuffer(buf[16 * (npsi + nphi):], dtype="<f8").reshape(2, n_t)
    lay = layout_for(g, res)
    field = SolenoidalField(g, res, as_planes(_pack(psi, lay, path, "psi")),
                            as_planes(_pack(phi, lay, path, "phi")), mean.copy())
    params = None
    if "params" in meta:
        p = meta["params"]
        params = derive_params(p["alpha"], p["beta"], p["gamma"], p["ell"])
    return field, meta, params
