"""WAV round-trips and format validation."""

import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

from hearstream.cli import main
from hearstream.wavio import SAMPLE_RATE, read_wav, write_wav


def stereo_wav(path, frames=3200):
    write_wav(str(path), np.zeros((frames, 2)) + 0.01)
    return path.read_bytes()


def rf64_wav(path, samples, data_size=None):
    """A float32 mono RF64 file; ``data_size`` overrides the ds64 data size."""
    data = np.asarray(samples, dtype="<f4").tobytes()
    fmt = struct.pack("<HHIIHH", 3, 1, SAMPLE_RATE, 4 * SAMPLE_RATE, 4, 32)
    chunks = b"fmt " + struct.pack("<I", len(fmt)) + fmt + b"data\xff\xff\xff\xff" + data
    riff = 4 + 36 + len(chunks)  # "WAVE", the ds64 chunk, then the chunks
    size = len(data) if data_size is None else data_size
    ds64 = b"ds64" + struct.pack("<IQQQI", 28, riff, size, len(samples), 0)
    path.write_bytes(b"RF64\xff\xff\xff\xffWAVE" + ds64 + chunks)
    return str(path)


def test_float32_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.uniform(-0.5, 0.5, size=(4096, 3))
    path = str(tmp_path / "x.wav")
    write_wav(path, x)
    y = read_wav(path)
    assert y.shape == (4096, 3)
    assert np.array_equal(y, x.astype(np.float32).astype(np.float64))


def test_mono_gets_channel_axis(tmp_path):
    path = str(tmp_path / "m.wav")
    write_wav(path, np.linspace(-0.1, 0.1, 1000))
    y = read_wav(path)
    assert y.shape == (1000, 1)


def test_int16_scaling(tmp_path):
    path = str(tmp_path / "i.wav")
    wavfile.write(path, SAMPLE_RATE, np.array([0, 16384, -32768], dtype=np.int16))
    y = read_wav(path)
    assert np.allclose(y[:, 0], [0.0, 0.5, -1.0])


def test_wrong_rate_rejected(tmp_path):
    path = str(tmp_path / "r.wav")
    wavfile.write(path, 16000, np.zeros(100, dtype=np.float32))
    with pytest.raises(ValueError, match="sample rate"):
        read_wav(path)


def test_nonfinite_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_wav(str(tmp_path / "n.wav"), np.array([0.0, np.nan]))


def test_empty_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_wav(str(tmp_path / "e.wav"), np.zeros((0, 2)))


class TestDeclaredSizes:
    """A truncated file or a header claiming more than the file holds raises
    one ValueError naming the file, before any sample buffer exists."""

    def test_data_chunk_claiming_4_gb_allocates_nothing(self, tmp_path):
        raw = stereo_wav(tmp_path / "ok.wav")
        at = raw.index(b"data") + 4
        path = tmp_path / "huge.wav"
        path.write_bytes(raw[:at] + struct.pack("<I", 2**32 - 1) + raw[at + 4 :])
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"huge\.wav: .*'data'.*4294967295 bytes"):
                read_wav(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < len(raw)

    @settings(max_examples=100)
    @given(cut=st.integers(0, 10**6))
    def test_truncation_at_any_offset(self, tmp_path_factory, cut):
        base = tmp_path_factory.getbasetemp()
        raw = stereo_wav(base / "whole.wav", frames=64)
        path = base / "cut.wav"
        path.write_bytes(raw[: cut % len(raw)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a WavFileWarning fails the test
            with pytest.raises(ValueError, match=r"cut\.wav: "):
                read_wav(str(path))

    def test_file_cut_in_half(self, tmp_path):
        raw = stereo_wav(tmp_path / "ok.wav")
        (tmp_path / "half.wav").write_bytes(raw[: len(raw) // 2])
        with pytest.raises(ValueError, match=rf"half\.wav: WAV header declares {len(raw)} bytes"):
            read_wav(str(tmp_path / "half.wav"))

    def test_rf64_reads_and_checks_its_ds64_sizes(self, tmp_path):
        samples = np.arange(8) / 10
        y = read_wav(rf64_wav(tmp_path / "ok.wav", samples))
        assert np.array_equal(y[:, 0], samples.astype(np.float32))
        with pytest.raises(ValueError, match=r"big\.wav: .*'data' declares 1099511627776"):
            read_wav(rf64_wav(tmp_path / "big.wav", samples, data_size=2**40))

    def test_cli_prints_one_error_line(self, tmp_path, capsys):
        raw = stereo_wav(tmp_path / "ok.wav")
        (tmp_path / "cut.wav").write_bytes(raw[:-100])
        ok, cut = str(tmp_path / "ok.wav"), str(tmp_path / "cut.wav")
        assert main(["evaluate", "--est", cut, "--ref", ok, "--mix", ok]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "cut.wav" in err
