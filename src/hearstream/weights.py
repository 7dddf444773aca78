"""Named-tensor weight container and deterministic seeded initialization.

Container format ("INXW", version 1, little-endian throughout):

    magic   4 bytes  "INXW"
    version u32      1
    count   u32      number of tensors
    then per tensor, in order:
        name_len u32, name (UTF-8), dtype u8 (0 = float32),
        ndim u32, dims u64 * ndim, raw float32 data (row-major)

Round-trips are bit-exact. Initialization is derived from SplitMix64 so a
seed produces bit-identical parameters on any platform: each tensor gets its
own stream keyed by FNV-1a(name) XOR seed, decoupling tensors from each
other and from enumeration order.

Gate order, nonlinearity and layout conventions for every consumer of this
container are fixed in `kernels` so externally trained weights can be
converted by name.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import BinaryIO, Iterable, Iterator

import numpy as np

__all__ = [
    "ParamSpec",
    "TruncatedFileError",
    "WeightFormatError",
    "WeightStore",
    "fnv1a64",
    "seeded_init",
    "splitmix64",
]

MAGIC = b"INXW"
VERSION = 1
_DTYPE_F32 = 0


class WeightFormatError(ValueError):
    """Bad magic, version, dtype tag, or malformed record."""


class TruncatedFileError(OSError):
    """File ended mid-record."""


class WeightStore:
    """Ordered name -> float32 ndarray map with binary (de)serialization."""

    def __init__(self, tensors: dict[str, np.ndarray] | None = None) -> None:
        self._tensors: dict[str, np.ndarray] = {}
        for name, value in (tensors or {}).items():
            self[name] = value

    def __setitem__(self, name: str, value: np.ndarray) -> None:
        arr = np.ascontiguousarray(value, dtype=np.float32)
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"tensor {name!r} contains non-finite values")
        self._tensors[name] = arr

    def __getitem__(self, name: str) -> np.ndarray:
        return self._tensors[name]

    def __contains__(self, name: str) -> bool:
        return name in self._tensors

    def __len__(self) -> int:
        return len(self._tensors)

    def __iter__(self) -> Iterator[str]:
        return iter(self._tensors)

    def keys(self):
        return self._tensors.keys()

    def items(self):
        return self._tensors.items()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightStore):
            return NotImplemented
        if list(self.keys()) != list(other.keys()):
            return False
        return all(
            a.shape == b.shape and np.array_equal(a, b)
            for (_, a), (_, b) in zip(self.items(), other.items())
        )

    def param_count(self) -> int:
        return int(sum(t.size for t in self._tensors.values()))

    def resolve(self, specs: list[ParamSpec], prefix: str) -> dict[str, np.ndarray]:
        """The tensors a model schema names, keyed without ``prefix`` and its dot.

        Raises KeyError when the store lacks any of them and ValueError when
        one has another shape than its spec.
        """
        missing = [s.name for s in specs if s.name not in self]
        if missing:
            raise KeyError(f"weight store is missing {len(missing)} tensors, e.g. {missing[0]!r}")
        for spec in specs:
            if self[spec.name].shape != spec.shape:
                raise ValueError(
                    f"{spec.name}: stored shape {self[spec.name].shape} != expected {spec.shape}"
                )
        return {s.name[len(prefix) + 1 :]: self[s.name] for s in specs}

    # -- serialization ------------------------------------------------------

    def save(self, path: str) -> None:
        with open(path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<II", VERSION, len(self._tensors)))
            for name, tensor in self._tensors.items():
                raw = name.encode("utf-8")
                fh.write(struct.pack("<I", len(raw)))
                fh.write(raw)
                fh.write(struct.pack("<BI", _DTYPE_F32, tensor.ndim))
                fh.write(struct.pack(f"<{tensor.ndim}Q", *tensor.shape))
                fh.write(tensor.astype("<f4", copy=False).tobytes())

    @classmethod
    def load(cls, path: str) -> "WeightStore":
        store = cls()
        with open(path, "rb") as fh:
            if _read(fh, 4, "magic") != MAGIC:
                raise WeightFormatError(f"{path}: bad magic, not an INXW file")
            version, count = struct.unpack("<II", _read(fh, 8, "header"))
            if version != VERSION:
                raise WeightFormatError(f"{path}: unsupported version {version}")
            for _ in range(count):
                (name_len,) = struct.unpack("<I", _read(fh, 4, "name length"))
                name = _read(fh, name_len, "name").decode("utf-8")
                dtype, ndim = struct.unpack("<BI", _read(fh, 5, "dtype/ndim"))
                if dtype != _DTYPE_F32:
                    raise WeightFormatError(f"{path}: unknown dtype tag {dtype} for {name!r}")
                shape = struct.unpack(f"<{ndim}Q", _read(fh, 8 * ndim, "dims"))
                n = int(np.prod(shape, dtype=np.int64)) if ndim else 1
                data = np.frombuffer(_read(fh, 4 * n, f"data of {name!r}"), dtype="<f4")
                if name in store:
                    raise WeightFormatError(f"{path}: duplicate tensor name {name!r}")
                store[name] = data.reshape(shape).astype(np.float32)
        return store


def _read(fh: BinaryIO, n: int, what: str) -> bytes:
    buf = fh.read(n)
    if len(buf) != n:
        raise TruncatedFileError(f"file truncated while reading {what}")
    return buf


# -- deterministic pseudo-random streams ------------------------------------

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _mix(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def splitmix64(seed: int, n: int) -> np.ndarray:
    """First ``n`` outputs of the SplitMix64 generator, as uint64."""
    with np.errstate(over="ignore"):
        idx = np.arange(1, n + 1, dtype=np.uint64)
        return _mix(np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + idx * _GOLDEN)


def fnv1a64(text: str) -> int:
    """64-bit FNV-1a hash of the UTF-8 encoding of ``text``."""
    h = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


@dataclass(frozen=True)
class ParamSpec:
    """One named parameter of a model schema.

    ``kind`` selects the fill: 'weight' uniform(-a, a) with a = sqrt(1/fan_in),
    'bias' and 'beta' zero, 'gamma' one, 'prelu' 0.25.
    """

    name: str
    shape: tuple[int, ...]
    kind: str = "weight"
    fan_in: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("weight", "bias", "gamma", "beta", "prelu"):
            raise ValueError(f"unknown parameter kind {self.kind!r}")
        if self.kind == "weight" and self.fan_in < 1:
            raise ValueError(f"{self.name!r}: weight parameters need fan_in >= 1")


def seeded_init(specs: Iterable[ParamSpec], seed: int) -> WeightStore:
    """Fill a schema deterministically; identical seeds give bit-identical stores.

    Every tensor draws from its own SplitMix64 stream seeded by
    ``fnv1a64(name) XOR seed``; uint64 outputs map to [0, 1) via the top 53
    bits, then to uniform(-a, a) in float32. Zero biases keep every layer's
    response to silence silent.
    """
    store = WeightStore()
    for spec in specs:
        n = int(np.prod(spec.shape, dtype=np.int64)) if spec.shape else 1
        if spec.kind == "weight":
            stream = splitmix64(fnv1a64(spec.name) ^ (seed & 0xFFFFFFFFFFFFFFFF), n)
            u = (stream >> np.uint64(11)).astype(np.float64) * (2.0**-53)
            a = np.sqrt(1.0 / spec.fan_in)
            values = ((2.0 * u - 1.0) * a).astype(np.float32)
        elif spec.kind == "gamma":
            values = np.ones(n, dtype=np.float32)
        elif spec.kind == "prelu":
            values = np.full(n, 0.25, dtype=np.float32)
        else:
            values = np.zeros(n, dtype=np.float32)
        store[spec.name] = values.reshape(spec.shape)
    return store
