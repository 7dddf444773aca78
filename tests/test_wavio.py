"""WAV round-trips and format validation."""

import numpy as np
import pytest
from scipy.io import wavfile

from hearstream.wavio import SAMPLE_RATE, read_wav, write_wav


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
