"""RIFF WAV reading and writing at the engine's fixed 32 kHz rate.

Thin wrapper over :mod:`scipy.io.wavfile` that normalizes every supported
sample format to float64 in [-1, 1] on read and writes float32.
Channel 0 of a multichannel file is the reference microphone throughout the
package.
"""

from __future__ import annotations

import numpy as np
from scipy.io import wavfile

from .dsp import StftConfig

SAMPLE_RATE = StftConfig().sample_rate

# Integer formats are rescaled by their full-scale magnitude.
_INT_SCALE = {
    np.dtype(np.int16): 32768.0,
    np.dtype(np.int32): 2147483648.0,
}


def read_wav(path: str) -> np.ndarray:
    """Read a ``SAMPLE_RATE`` WAV file as float64 [samples, channels].

    Accepts float32/float64 (passed through) and int16/int32 PCM (divided by
    full scale). Mono files come back with a trailing channel axis of 1. A
    file at another rate raises ValueError.
    """
    rate, data = wavfile.read(path)
    if rate != SAMPLE_RATE:
        raise ValueError(f"{path}: sample rate {rate} Hz, expected {SAMPLE_RATE} Hz")
    if data.dtype in _INT_SCALE:
        out = data.astype(np.float64) / _INT_SCALE[data.dtype]
    elif data.dtype in (np.float32, np.float64):
        out = data.astype(np.float64)
    else:
        raise ValueError(f"{path}: unsupported WAV sample format {data.dtype}")
    if out.ndim == 1:
        out = out[:, None]
    if out.shape[0] == 0:
        raise ValueError(f"{path}: empty WAV file")
    return out


def write_wav(path: str, data: np.ndarray) -> None:
    """Write a float32 ``SAMPLE_RATE`` WAV; data is [samples] or [samples, channels], finite."""
    data = np.asarray(data)
    if data.ndim not in (1, 2) or data.shape[0] == 0:
        raise ValueError(f"expected non-empty [samples] or [samples, channels] array, got {data.shape}")
    if not np.all(np.isfinite(data)):
        raise ValueError("refusing to write non-finite samples")
    if data.ndim == 2 and data.shape[1] == 1:
        data = data[:, 0]
    wavfile.write(path, SAMPLE_RATE, data.astype(np.float32))
