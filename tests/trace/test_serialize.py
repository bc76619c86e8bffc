"""Tests for trace save/load round-tripping."""

import zipfile

import numpy as np
import pytest

from repro.config import SdvConfig
from repro.engine import simulate_fast
from repro.errors import TraceError
from repro.memory.classify import classify_trace
from repro.soc import FpgaSdv
from repro.trace.events import (
    Barrier,
    ScalarBlock,
    TraceBuffer,
    VectorInstr,
    VMemPattern,
    VOpClass,
)
from repro.trace.serialize import FORMAT_VERSION, load_trace, save_trace

#: set when a pickled payload runs; a refused load must leave it empty
_UNPICKLED: list = []


def _tripwire():
    _UNPICKLED.append(1)
    return 0


class _Canary:
    def __reduce__(self):
        return (_tripwire, ())


def make_mixed_trace():
    t = TraceBuffer()
    t.append(ScalarBlock(n_alu_ops=7, mem_addrs=np.array([0x1000, 0x1008]),
                         mem_is_write=np.array([False, True]),
                         mlp_hint=3, label="blk"))
    t.append(VectorInstr(op=VOpClass.CSR, vl=8, opcode="vsetvl",
                         scalar_dest=True))
    t.append(VectorInstr(op=VOpClass.MEM, vl=8, opcode="vle",
                         pattern=VMemPattern.UNIT,
                         addrs=0x2000 + 8 * np.arange(8)))
    t.append(VectorInstr(op=VOpClass.ARITH, vl=8, opcode="vfadd", dep=2))
    t.append(VectorInstr(op=VOpClass.MEM, vl=8, opcode="vsxe",
                         pattern=VMemPattern.INDEXED,
                         addrs=0x3000 + 64 * np.arange(3),
                         is_write=True, masked=True, active=3, dep=3))
    t.append(Barrier(label="end"))
    return t.seal()


class TestRoundTrip:
    def test_record_fidelity(self, tmp_path):
        path = tmp_path / "t.npz"
        orig = make_mixed_trace()
        save_trace(orig, path)
        back = load_trace(path)
        assert len(back) == len(orig)
        for a, b in zip(orig, back):
            assert type(a) is type(b)
        blk = back[0]
        assert blk.n_alu_ops == 7 and blk.mlp_hint == 3 and blk.label == "blk"
        assert np.array_equal(blk.mem_addrs, orig[0].mem_addrs)
        assert np.array_equal(blk.mem_is_write, orig[0].mem_is_write)
        mem = back[2]
        assert mem.opcode == "vle" and mem.pattern is VMemPattern.UNIT
        assert np.array_equal(mem.addrs, orig[2].addrs)
        arith = back[3]
        assert arith.dep == 2
        scat = back[4]
        assert scat.is_write and scat.masked and scat.active == 3
        assert back[1].scalar_dest
        assert back[5].label == "end"

    def test_loaded_trace_is_sealed(self, tmp_path):
        path = tmp_path / "t.npz"
        save_trace(make_mixed_trace(), path)
        assert load_trace(path).sealed

    def test_unsealed_rejected(self, tmp_path):
        t = TraceBuffer()
        with pytest.raises(TraceError):
            save_trace(t, tmp_path / "x.npz")

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "e.npz"
        save_trace(TraceBuffer().seal(), path)
        assert len(load_trace(path)) == 0

    def test_version_check(self, tmp_path):
        path = tmp_path / "v.npz"
        save_trace(make_mixed_trace(), path)
        data = dict(np.load(path, allow_pickle=True))
        data["version"] = np.int64(FORMAT_VERSION + 1)
        np.savez_compressed(path, **data)
        with pytest.raises(TraceError):
            load_trace(path)


class TestTimingEquivalence:
    def test_retiming_loaded_trace_matches_original(self, tmp_path):
        """The record-once / re-time-later workflow end to end."""
        from repro.kernels.fft import fft_vector
        from repro.workloads.signals import make_signal

        sdv = FpgaSdv()
        sess = sdv.session()
        fft_vector(sess, make_signal(256, seed=3))
        orig = sess.seal()
        path = tmp_path / "fft.npz"
        save_trace(orig, path)
        back = load_trace(path)

        for extra in (0, 512):
            cfg = SdvConfig().with_extra_latency(extra)
            a = simulate_fast(classify_trace(orig, cfg)).cycles
            b = simulate_fast(classify_trace(back, cfg)).cycles
            assert a == b


class TestFormatVersions:
    def test_v2_has_no_pickled_arrays(self, tmp_path):
        """v2 must stay loadable with allow_pickle=False (plain arrays)."""
        path = tmp_path / "t.npz"
        save_trace(make_mixed_trace(), path)
        with np.load(path, allow_pickle=False) as z:
            assert int(z["version"]) == FORMAT_VERSION
            for name in z.files:
                z[name]  # raises if any member needs pickle

    def test_v1_file_loads_identically(self, tmp_path):
        """Traces written by the old record-loop writer still load."""
        from repro.trace.serialize import _save_v1

        orig = make_mixed_trace()
        p1, p2 = tmp_path / "v1.npz", tmp_path / "v2.npz"
        _save_v1(orig, p1)
        save_trace(orig, p2)
        via_v1, via_v2 = load_trace(p1), load_trace(p2)
        c1, c2 = via_v1.cols, via_v2.cols
        assert c1.strings == c2.strings
        for name in ("kind", "n_alu", "mlp", "mem_bytes", "vl", "active",
                     "opclass", "pattern", "is_write", "masked", "dep",
                     "scalar_dest", "opcode_id", "label_id", "addr_off",
                     "addrs", "writes"):
            np.testing.assert_array_equal(
                getattr(c1, name), getattr(c2, name), err_msg=name)

    def test_v1_timing_matches_v2(self, tmp_path):
        orig = make_mixed_trace()
        from repro.trace.serialize import _save_v1

        p1, p2 = tmp_path / "v1.npz", tmp_path / "v2.npz"
        _save_v1(orig, p1)
        save_trace(orig, p2)
        cfg = SdvConfig()
        a = simulate_fast(classify_trace(load_trace(p1), cfg)).cycles
        b = simulate_fast(classify_trace(load_trace(p2), cfg)).cycles
        assert a == b

    def test_nul_in_string_table_rejected(self, tmp_path):
        t = TraceBuffer()
        t.append(Barrier(label="bad\0label"))
        with pytest.raises(TraceError):
            save_trace(t.seal(), tmp_path / "x.npz")

    def test_v2_object_member_refused_not_unpickled(self, tmp_path):
        """A crafted v2 file with a pickled column is never unpickled."""
        path = tmp_path / "evil.npz"
        save_trace(make_mixed_trace(), path)
        data = dict(np.load(path))
        data["kind"] = np.array([_Canary()], dtype=object)
        np.savez(path, **data)
        _UNPICKLED.clear()
        with pytest.raises(TraceError):
            load_trace(path)
        assert _UNPICKLED == []


class TestStoredWrites:
    def test_members_are_stored_not_deflated(self, tmp_path):
        path = tmp_path / "t.npz"
        save_trace(make_mixed_trace(), path)
        infos = zipfile.ZipFile(path).infolist()
        assert infos
        assert {i.compress_type for i in infos} == {zipfile.ZIP_STORED}

    def test_deflated_file_from_older_writer_loads(self, tmp_path):
        orig, old = tmp_path / "new.npz", tmp_path / "old.npz"
        save_trace(make_mixed_trace(), orig)
        with np.load(orig) as z:
            np.savez_compressed(old, **dict(z))
        assert FORMAT_VERSION == 2  # no version fork for the writer change
        a, b = load_trace(orig).cols, load_trace(old).cols
        assert a.strings == b.strings
        for name in ("kind", "addr_off", "addrs", "writes", "dep"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_failed_save_leaves_nothing_behind(self, tmp_path, monkeypatch):
        import repro.trace.serialize as ser

        def broken(fh, **arrays):
            fh.write(b"PK\x03\x04 partial")
            raise OSError("disk full")

        path = tmp_path / "t.npz"
        monkeypatch.setattr(ser.np, "savez", broken)
        with pytest.raises(OSError):
            save_trace(make_mixed_trace(), path)
        assert list(tmp_path.iterdir()) == []

    def test_save_replaces_existing_file(self, tmp_path):
        path = tmp_path / "t.npz"
        save_trace(TraceBuffer().seal(), path)
        save_trace(make_mixed_trace(), path)
        assert len(load_trace(path)) == 6
        assert list(tmp_path.iterdir()) == [path]
