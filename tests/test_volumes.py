"""Volume I/O, normalization, masks, and noise."""

import struct
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from volsynth import volumes as vol
from volsynth.volumes import Mask, Volume


class TestVVOLRoundTrip:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        v = Volume(rng.uniform(size=(2, 2, 2)).astype(np.float32))
        path = tmp_path / "v.vvol"
        vol.write_volume(v, path)
        back = vol.read_volume(path)
        assert back.dims == (2, 2, 2)
        assert np.array_equal(back.data, v.data)

    def test_write_read_round_trip_is_the_float32_cast(self, tmp_path):
        path = tmp_path / "v.vvol"

        @settings(max_examples=100, deadline=None)
        @given(st.sampled_from([np.float32, np.float64]).flatmap(lambda dt: hnp.arrays(
            dt, hnp.array_shapes(min_dims=3, max_dims=3, min_side=1, max_side=5),
            elements=st.floats(width=32, allow_nan=False, allow_infinity=False))))
        def check(data):
            vol.write_volume(Volume(data), path)
            back = vol.read_volume(path)
            assert back.dims == data.shape and back.data.dtype == np.float32
            assert back.data.tobytes() == data.astype("<f4").tobytes()

        check()

    def test_constant_half_round_trip(self, tmp_path):
        v = Volume(np.full((2, 2, 2), 0.5, dtype=np.float32))
        path = tmp_path / "v.vvol"
        vol.write_volume(v, path)
        assert vol.read_volume(path) == v

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.vvol"
        path.write_bytes(b"XXXX" + bytes([1]) + struct.pack("<III", 1, 1, 1) + b"\x00" * 4)
        with pytest.raises(vol.BadMagicError):
            vol.read_volume(path)

    def test_length_mismatch(self, tmp_path):
        path = tmp_path / "short.vvol"
        payload = np.zeros(63, dtype="<f4").tobytes()
        path.write_bytes(b"VVOL" + bytes([1]) + struct.pack("<III", 4, 4, 4) + payload)
        with pytest.raises(vol.LengthMismatchError):
            vol.read_volume(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "trunc.vvol"
        payload = np.zeros(64, dtype="<f4").tobytes()[:-2]   # cut mid-float
        path.write_bytes(b"VVOL" + bytes([1]) + struct.pack("<III", 4, 4, 4) + payload)
        with pytest.raises(vol.TruncatedPayloadError):
            vol.read_volume(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "header.vvol"
        path.write_bytes(b"VVOL" + bytes([1]) + b"\x01\x00")
        with pytest.raises(vol.TruncatedPayloadError):
            vol.read_volume(path)

    def test_error_classes_are_distinct(self):
        assert issubclass(vol.BadMagicError, vol.VolumeFormatError)
        assert not issubclass(vol.BadMagicError, vol.TruncatedPayloadError)
        assert not issubclass(vol.LengthMismatchError, vol.TruncatedPayloadError)

    def test_corrupt_file_loads_or_raises_format_error(self, tmp_path, rng):
        """Any single bit flip or truncation either loads or is a VolumeFormatError."""
        path = tmp_path / "v.vvol"
        vol.write_volume(vol.normalize_minmax(Volume(rng.uniform(size=(3, 3, 3)))), path)
        good = path.read_bytes()
        # bit 30 of a voxel of exactly 1.0 turns it into +Inf
        one = np.frombuffer(good[17:], dtype="<f4").tolist().index(1.0)
        inf_bit = (17 + 4 * one + 3) * 8 + 6

        def flipped(bit):
            blob = bytearray(good)
            blob[bit // 8] ^= 1 << (bit % 8)
            return bytes(blob)

        @settings(max_examples=300, deadline=None)
        @given(st.one_of(st.integers(0, len(good) * 8 - 1).map(flipped),
                         st.integers(0, len(good) - 1).map(lambda n: good[:n])))
        @example(flipped(inf_bit))
        def check(blob):
            path.write_bytes(blob)
            try:
                vol.read_volume(path)
            except vol.VolumeFormatError:
                pass

        check()


class TestNormalize:
    def test_affine_map(self):
        v = Volume(np.array([[[2.0, 3.0], [4.0, 2.0]], [[2.0, 2.0], [2.0, 2.0]]]))
        out = vol.normalize_minmax(v)
        assert out.data.min() == 0.0 and out.data.max() == 1.0
        assert out.data[0, 0, 1] == pytest.approx(0.5)

    def test_constant_volume_maps_to_zeros(self):
        out = vol.normalize_minmax(Volume(np.full((3, 3, 3), 7.0)))
        assert np.array_equal(out.data, np.zeros((3, 3, 3)))

    def test_idempotent_when_endpoints_attained(self, rng):
        data = rng.uniform(size=(4, 4, 4)).astype(np.float32)
        data.flat[0], data.flat[1] = 0.0, 1.0
        v = Volume(data)
        out = vol.normalize_minmax(v)
        assert np.abs(out.data - v.data).max() <= 1e-7

    def test_range_exact_for_nonconstant(self, rng):
        for seed in range(5):
            v = Volume(np.random.default_rng(seed).normal(size=(3, 4, 5)))
            out = vol.normalize_minmax(v)
            assert out.data.min() == 0.0
            assert out.data.max() == 1.0


class TestMasks:
    def test_background_border_excludes_zero_shell(self, rng):
        data = np.zeros((5, 5, 5), dtype=np.float32)
        data[1:-1, 1:-1, 1:-1] = rng.uniform(0.1, 1.0, size=(3, 3, 3))
        mask = vol.compute_mask([Volume(data)], strategy="background_border")
        expected = np.zeros((5, 5, 5), dtype=bool)
        expected[1:-1, 1:-1, 1:-1] = True
        assert np.array_equal(mask.bits, expected)

    def test_border_fill_does_not_cross_positive_wall(self, rng):
        # zero pocket enclosed by positive voxels stays valid (unreachable)
        data = np.full((5, 5, 5), 0.5, dtype=np.float32)
        data[2, 2, 2] = 0.0
        mask = vol.compute_mask([Volume(data)], strategy="background_border")
        assert mask.bits[2, 2, 2]
        assert mask.valid_count == 125

    @settings(max_examples=300, deadline=None)
    @given(dims=st.tuples(*[st.integers(1, 7)] * 3), count=st.integers(1, 3),
           zero_share=st.floats(0.2, 0.9), seed=st.integers(0, 2**32 - 1))
    def test_background_border_is_a_breadth_first_fill(self, dims, count, zero_share, seed):
        """Background is what a 6-connected walk from the border reaches through
        voxels at or below 0 in every volume; everything else is valid."""
        rng = np.random.default_rng(seed)
        shape = (count,) + dims
        stack = np.where(rng.uniform(size=shape) < zero_share, -rng.uniform(0.0, 1.0, shape),
                         rng.uniform(0.1, 1.0, shape)).astype(np.float32)
        mask = vol.compute_mask([Volume(v) for v in stack], strategy="background_border")

        candidate = np.all(stack <= 0.0, axis=0)
        queue = deque(idx for idx in np.ndindex(*dims) if candidate[idx]
                      and any(i in (0, n - 1) for i, n in zip(idx, dims)))
        reached = set(queue)
        while queue:
            idx = queue.popleft()
            for axis in range(3):
                for step in (-1, 1):
                    nb = idx[:axis] + (idx[axis] + step,) + idx[axis + 1:]
                    if 0 <= nb[axis] < dims[axis] and candidate[nb] and nb not in reached:
                        reached.add(nb)
                        queue.append(nb)
        expected = np.ones(dims, dtype=bool)
        for idx in reached:
            expected[idx] = False
        assert np.array_equal(mask.bits, expected)

    def test_constant_voxel_invalid_under_nonconstant(self, rng):
        vols = [Volume(rng.uniform(size=(3, 3, 3))) for _ in range(4)]
        for v in vols:
            v.data[1, 1, 1] = 0.25
        mask = vol.compute_mask(vols, strategy="nonconstant")
        assert not mask.bits[1, 1, 1]
        assert mask.valid_count == 26

    def test_valid_count_matches_variance_scan(self, rng):
        from volsynth.datasets import make_blob_dataset
        ds = make_blob_dataset(3, 6, (8, 8, 8), seed=5)
        mask = vol.compute_mask(ds.volumes, strategy="nonconstant")
        stack = np.stack([v.data.astype(np.float64) for v in ds.volumes])
        expected = int((stack.var(axis=0) > 0).sum())
        assert mask.valid_count == expected

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValueError):
            vol.compute_mask([])


class TestApplyScatter:
    def test_full_mask_flattens(self, rng):
        v = Volume(rng.uniform(size=(3, 3, 3)))
        mask = Mask(np.ones((3, 3, 3), dtype=bool))
        assert np.array_equal(vol.apply_mask(v, mask), v.data.reshape(-1))

    def test_empty_mask_gives_empty_vector(self, rng):
        v = Volume(rng.uniform(size=(2, 2, 2)))
        mask = Mask(np.zeros((2, 2, 2), dtype=bool))
        assert vol.apply_mask(v, mask).size == 0

    def test_scatter_restores_valid_voxels(self, rng):
        v = Volume(rng.uniform(size=(4, 4, 4)).astype(np.float32))
        bits = rng.uniform(size=(4, 4, 4)) > 0.4
        mask = Mask(bits)
        feats = vol.apply_mask(v, mask)
        back = vol.scatter_mask(feats, mask)
        assert np.allclose(back.data[bits], v.data[bits])
        assert np.array_equal(back.data[~bits], np.zeros((~bits).sum()))

    def test_dims_mismatch(self, rng):
        with pytest.raises(ValueError):
            vol.apply_mask(Volume(np.zeros((2, 2, 2))), Mask(np.ones((3, 3, 3), dtype=bool)))


class TestNoise:
    def test_zero_variance_is_identity(self, rng):
        v = Volume(rng.uniform(size=(3, 3, 3)))
        out = vol.add_gaussian_noise(v, 0.0, seed=1)
        assert np.array_equal(out.data, v.data)

    def test_clamped_to_unit_interval(self):
        v = Volume(np.full((8, 8, 8), 0.999, dtype=np.float32))
        out = vol.add_gaussian_noise(v, 0.25, seed=3)
        assert out.data.max() <= 1.0
        assert out.data.min() >= 0.0
        assert (out.data == 1.0).any()   # a large positive draw hit the clamp

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            vol.add_gaussian_noise(Volume(np.zeros((2, 2, 2))), -0.1, seed=0)

    def test_preclamp_variance_statistics(self):
        v = Volume(np.full((100, 100, 100), 0.5, dtype=np.float32))
        out = vol.add_gaussian_noise(v, 0.01, seed=7)
        # values stay far from the clamp, so the sample variance is unbiased
        sample_var = out.data.astype(np.float64).var()
        assert abs(sample_var - 0.01) <= 0.05 * 0.01

    def test_deterministic_under_seed(self, rng):
        v = Volume(rng.uniform(size=(4, 4, 4)))
        a = vol.add_gaussian_noise(v, 0.01, seed=9)
        b = vol.add_gaussian_noise(v, 0.01, seed=9)
        assert np.array_equal(a.data, b.data)
