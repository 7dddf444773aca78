"""RIFF WAV reading and writing at the engine's fixed 32 kHz rate.

Thin wrapper over :mod:`scipy.io.wavfile` that normalizes every supported
sample format to float64 in [-1, 1] on read and writes float32.
Channel 0 of a multichannel file is the reference microphone throughout the
package.
"""

from __future__ import annotations

import os
import struct

import numpy as np
from scipy.io import wavfile

from .dsp import StftConfig

SAMPLE_RATE = StftConfig().sample_rate

# Integer formats are rescaled by their full-scale magnitude.
_INT_SCALE = {
    np.dtype(np.int16): 32768.0,
    np.dtype(np.int32): 2147483648.0,
}


def _check_declared_sizes(path: str) -> None:
    """Raise ValueError naming ``path`` when the RIFF header or a chunk header
    declares more bytes than the file holds, before any array is sized by it.

    A truncated file fails here too: its headers declare the bytes it lost.
    RF64 files declare the RIFF and data sizes in their ``ds64`` chunk. A file
    that does not start as RIFF, RIFX or RF64 is left to ``wavfile.read``.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(36)  # RF64 adds "ds64", its size, then the RIFF and data sizes
        order = {b"RIFF": "<", b"RIFX": ">", b"RF64": "<"}.get(head[:4])
        if order is None:
            return
        rf64 = head[:4] == b"RF64"
        if len(head) < (36 if rf64 else 12):
            raise ValueError(f"{path}: truncated WAV file, {len(head)} bytes of header")
        (end,), data_size = struct.unpack(order + "I", head[4:8]), None
        if rf64:
            end, data_size = struct.unpack("<QQ", head[20:36])
        end += 8
        if end > size:
            raise ValueError(f"{path}: WAV header declares {end} bytes, the file holds {size}")
        pos = 12
        while pos < end:
            fh.seek(pos)
            chunk = fh.read(8)
            if len(chunk) < 8:
                raise ValueError(f"{path}: truncated WAV file, chunk header at byte {pos}")
            (n,) = struct.unpack(order + "I", chunk[4:])
            if chunk[:4] == b"data" and rf64:
                n = data_size
            pos += 8
            if n > size - pos:
                raise ValueError(
                    f"{path}: WAV chunk {chunk[:4]!r} declares {n} bytes, {size - pos} left"
                )
            pos += n + n % 2  # chunks are padded to an even length


def read_wav(path: str) -> np.ndarray:
    """Read a ``SAMPLE_RATE`` WAV file as float64 [samples, channels].

    Accepts float32/float64 (passed through) and int16/int32 PCM (divided by
    full scale). Mono files come back with a trailing channel axis of 1. A
    file at another rate raises ValueError, and so does a truncated file or a
    header that declares more bytes than the file holds, before any sample
    buffer is allocated.
    """
    _check_declared_sizes(path)
    try:
        rate, data = wavfile.read(path)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
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
