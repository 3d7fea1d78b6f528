"""Volumes: the dense 3D grid type, binary VVOL I/O, and voxel-level transforms.

VVOL file layout: magic ``VVOL`` + version byte 0x01, three little-endian
uint32 dims (d, h, w), then d*h*w little-endian float32 voxels in row-major
order.
"""

from __future__ import annotations

import struct

import numpy as np

MAGIC = b"VVOL"
VERSION = 1

MASK_STRATEGIES = ("nonconstant", "background_border")


class VolumeFormatError(ValueError):
    """Base class for malformed VVOL files."""


class BadMagicError(VolumeFormatError):
    pass


class TruncatedPayloadError(VolumeFormatError):
    pass


class LengthMismatchError(VolumeFormatError):
    pass


class Volume:
    """A 3D grid of voxel intensities, row-major; float32 or float64.

    Files store float32; in memory either precision is kept as given.
    """

    __slots__ = ("data",)

    def __init__(self, data):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        if arr.ndim != 3:
            raise ValueError(f"volume must be 3-d, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("volume contains non-finite voxels")
        self.data = arr

    @property
    def dims(self):
        return self.data.shape

    def copy(self):
        return Volume(self.data.copy())

    def __eq__(self, other):
        return isinstance(other, Volume) and self.data.shape == other.data.shape \
            and np.array_equal(self.data, other.data)

    def __repr__(self):
        return f"Volume(dims={self.dims})"


def write_volume(volume, path):
    d, h, w = volume.dims
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(bytes([VERSION]))
        fh.write(struct.pack("<III", d, h, w))
        fh.write(volume.data.astype("<f4").tobytes())


def read_volume(path):
    with open(path, "rb") as fh:
        head = fh.read(len(MAGIC) + 1)
        if len(head) < len(MAGIC) + 1 or head[:len(MAGIC)] != MAGIC:
            raise BadMagicError(f"{path}: not a VVOL file (bad magic)")
        if head[len(MAGIC)] != VERSION:
            raise VolumeFormatError(f"{path}: unsupported VVOL version {head[len(MAGIC)]}")
        dims_raw = fh.read(12)
        if len(dims_raw) < 12:
            raise TruncatedPayloadError(f"{path}: truncated VVOL header")
        d, h, w = struct.unpack("<III", dims_raw)
        payload = fh.read()
    if len(payload) % 4 != 0:
        raise TruncatedPayloadError(f"{path}: payload is not whole float32 words")
    count = len(payload) // 4
    if count != d * h * w:
        raise LengthMismatchError(
            f"{path}: header claims {d}x{h}x{w}={d * h * w} voxels, payload has {count}")
    data = np.frombuffer(payload, dtype="<f4").reshape(d, h, w)
    if not np.all(np.isfinite(data)):
        raise VolumeFormatError(f"{path}: payload holds non-finite voxels")
    return Volume(data)


def normalize_minmax(volume):
    """Affine rescale to [0,1]; a constant volume maps to all zeros."""
    v = volume.data
    lo = float(v.min())
    hi = float(v.max())
    if hi == lo:
        return Volume(np.zeros_like(v))
    return Volume((v - lo) / (hi - lo))


# ---------------------------------------------------------------------------
# masks
# ---------------------------------------------------------------------------

class Mask:
    """Boolean voxel selector; valid voxels flatten row-major to feature vectors."""

    __slots__ = ("bits",)

    def __init__(self, bits):
        arr = np.asarray(bits, dtype=bool)
        if arr.ndim != 3:
            raise ValueError(f"mask must be 3-d, got shape {arr.shape}")
        self.bits = arr

    @property
    def dims(self):
        return self.bits.shape

    @property
    def valid_count(self):
        return int(self.bits.sum())


def compute_mask(train_volumes, strategy="nonconstant"):
    """Compute a voxel mask from training volumes only.

    ``nonconstant``: voxel valid iff its variance across the volumes is > 0.
    ``background_border``: flood fill inward from border voxels that stay at
    or below 0 in every volume; reached voxels are background.
    """
    if strategy not in MASK_STRATEGIES:
        raise ValueError(f"unknown mask strategy {strategy!r}; expected one of {MASK_STRATEGIES}")
    volumes = list(train_volumes)
    if not volumes:
        raise ValueError("compute_mask requires at least one training volume")
    stack = np.stack([v.data for v in volumes]).astype(np.float64)
    if strategy == "nonconstant":
        return Mask(stack.var(axis=0) > 0.0)
    candidate = np.all(stack <= 0.0, axis=0)
    border = np.zeros_like(candidate)
    for axis in range(3):
        sl = [slice(None)] * 3
        sl[axis] = 0
        border[tuple(sl)] = True
        sl[axis] = -1
        border[tuple(sl)] = True
    background = border & candidate
    # 6-connected flood fill by repeated dilation: OR each axis's one-voxel shifts
    while True:
        grown = background.copy()
        for axis in range(3):
            later = (slice(None),) * axis + (slice(1, None),)
            earlier = (slice(None),) * axis + (slice(None, -1),)
            grown[later] |= background[earlier]
            grown[earlier] |= background[later]
        grown &= candidate
        if np.array_equal(grown, background):
            break
        background = grown
    return Mask(~background)


def apply_mask(volume, mask):
    """Valid voxels as a 1-d feature vector, row-major order."""
    if volume.dims != mask.dims:
        raise ValueError(f"volume dims {volume.dims} do not match mask dims {mask.dims}")
    return volume.data[mask.bits].astype(np.float64)


def scatter_mask(features, mask):
    """Inverse of apply_mask on the valid support; invalid voxels are zero."""
    features = np.asarray(features)
    if features.shape != (mask.valid_count,):
        raise ValueError(
            f"feature length {features.shape} does not match valid_count {mask.valid_count}")
    out = np.zeros(mask.dims, dtype=np.float64)
    out[mask.bits] = features
    return Volume(np.clip(out, 0.0, 1.0))


def add_gaussian_noise(volume, variance, seed):
    """Additive N(0, variance) per voxel, clamped back into [0,1]."""
    if variance < 0:
        raise ValueError(f"noise variance must be >= 0, got {variance}")
    if variance == 0:
        return volume.copy()
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, np.sqrt(variance), size=volume.dims)
    return Volume(np.clip(volume.data + noise, 0.0, 1.0))
