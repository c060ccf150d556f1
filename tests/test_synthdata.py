import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import reference_generate_event

from harecast.errors import ConfigError, DataError
from harecast.nowcast.training import TrainConfig, render_dataset
from harecast.synthdata import (
    BlobSpec,
    EventSpec,
    FrameSequence,
    generate_event,
    load_tensors,
    make_split,
    random_event_spec,
    render_radar,
    render_satellite,
    save_tensors,
    write_artifact,
)


def single_blob_event(amplitude=0.8, velocity=(0.0, 0.0), growth=0.0, radius=3.0, center=(16.0, 16.0)):
    return EventSpec(
        blobs=(BlobSpec(center=center, velocity=velocity, amplitude=amplitude, radius=radius, growth=growth),),
        seed=0,
    )


class TestGenerateEvent:
    def test_zero_amplitude_gives_zero_frames(self):
        radar, sat = generate_event(single_blob_event(amplitude=0.0), 4, 32, 32)
        assert np.all(radar.frames == 0.0)
        assert np.all(sat.frames == 0.0)

    def test_static_blob_is_stationary(self):
        radar, _ = generate_event(single_blob_event(), 5, 32, 32)
        for t in range(1, 5):
            np.testing.assert_array_equal(radar.frames[t], radar.frames[0])

    def test_unit_velocity_translates_field(self):
        radar, _ = generate_event(
            single_blob_event(velocity=(1.0, 0.0), center=(8.0, 16.0)), 6, 32, 32
        )
        for t in range(1, 6):
            np.testing.assert_allclose(
                radar.frames[t][t:, :], radar.frames[0][:-t, :], atol=1e-6
            )

    def test_satellite_is_blurred_and_shifted(self):
        radar, sat = generate_event(single_blob_event(), 2, 32, 32)
        assert sat.modality == "satellite"
        # Blur spreads mass; peak drops and moves by the fixed offset.
        ry, rx = np.unravel_index(np.argmax(radar.frames[0]), radar.frames[0].shape)
        sy, sx = np.unravel_index(np.argmax(sat.frames[0]), sat.frames[0].shape)
        assert (sy - ry, sx - rx) == (2, 1)
        assert sat.frames[0].max() < radar.frames[0].max()

    def test_center_outside_domain_rejected(self):
        with pytest.raises(ConfigError):
            generate_event(single_blob_event(center=(40.0, 5.0)), 2, 32, 32)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_values_stay_in_unit_range(self, seed):
        spec = random_event_spec(seed, 24, 24)
        radar, sat = generate_event(spec, 4, 24, 24)
        for fs in (radar, sat):
            assert fs.frames.min() >= 0.0
            assert fs.frames.max() <= 1.0

    def test_heavier_events_light_up_more_pixels(self):
        low, _ = generate_event(single_blob_event(amplitude=0.5), 3, 32, 32)
        high, _ = generate_event(single_blob_event(amplitude=0.9), 3, 32, 32)
        thr = 0.3
        assert np.sum(high.frames > thr) > np.sum(low.frames > thr)


def assert_bits_equal(got, want):
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


class TestBitwiseReference:
    """The whole-stack renderer equals the frame-by-frame one bit for bit."""

    @staticmethod
    def assert_bitwise(spec, t_len, height, width):
        radar, sat = generate_event(spec, t_len, height, width)
        ref_radar, ref_sat = reference_generate_event(spec, t_len, height, width)
        assert_bits_equal(radar.frames, ref_radar)
        assert_bits_equal(sat.frames, ref_sat)

    @pytest.mark.parametrize("shape", [(25, 32, 32), (45, 32, 32), (7, 16, 24), (1, 8, 8)])
    @pytest.mark.parametrize("seed", [0, 1, 17, 2024, 90210])
    def test_random_events(self, shape, seed):
        t_len, height, width = shape
        self.assert_bitwise(random_event_spec(seed, height, width), t_len, height, width)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_random_seeds(self, seed):
        self.assert_bitwise(random_event_spec(seed, 32, 32), 25, 32, 32)

    @pytest.mark.parametrize("spec", [
        single_blob_event(growth=0.0, velocity=(0.7, -0.4)),
        single_blob_event(amplitude=0.0, growth=0.03),
    ], ids=["zero_growth", "zero_amplitude"])
    def test_degenerate_specs(self, spec):
        self.assert_bitwise(spec, 25, 32, 32)


class TestSplitRendering:
    """render_dataset renders radar alone and satellite context frames only, bit for bit."""

    @staticmethod
    def dataset_and_reference(cfg):
        specs = make_split(cfg.seed + 10_000, cfg.n_train, cfg.n_val, cfg.n_test,
                           cfg.height, cfg.width)[0]
        t_total = cfg.frames_in + cfg.frames_out
        refs = [reference_generate_event(spec, t_total, cfg.height, cfg.width) for spec in specs]
        return render_dataset(specs, cfg), np.stack([r for r, _ in refs]), np.stack([s for _, s in refs])

    def test_default_unimodal_renders_radar_only(self):
        cfg = TrainConfig()
        data, radar, _ = self.dataset_and_reference(cfg)
        assert set(data) == {"x_radar", "y_future"}
        assert_bits_equal(data["x_radar"], radar[:, : cfg.frames_in])
        assert_bits_equal(data["y_future"], radar[:, cfg.frames_in:])

    def test_multimodal_satellite_is_reference_context(self):
        cfg = TrainConfig(mode="multimodal", n_train=8)
        data, radar, sat = self.dataset_and_reference(cfg)
        assert_bits_equal(data["x_radar"], radar[:, : cfg.frames_in])
        assert_bits_equal(data["x_sat"], sat[:, : cfg.frames_in])

    @pytest.mark.parametrize("k", [1, 5])
    @pytest.mark.parametrize("shape", [(25, 32, 32), (7, 16, 24)])
    @pytest.mark.parametrize("seed", [0, 17])
    def test_satellite_frames_are_independent(self, shape, k, seed):
        radar = render_radar(random_event_spec(seed, *shape[1:]), *shape)
        assert_bits_equal(render_satellite(radar[:k]), render_satellite(radar)[:k])


class TestMakeSplit:
    def test_deterministic(self):
        a = make_split(7, 5, 3, 2, 32, 32)
        b = make_split(7, 5, 3, 2, 32, 32)
        assert a == b

    def test_seed_disjointness(self):
        train, val, test = make_split(7, 5, 3, 2, 32, 32)
        seeds = [e.seed for part in (train, val, test) for e in part]
        assert len(seeds) == len(set(seeds))

    def test_counts(self):
        train, val, test = make_split(0, 64, 4, 4, 32, 32)
        assert len(train) == 64
        assert len({e for e in train}) == 64

    def test_positive_counts_required(self):
        with pytest.raises(ConfigError):
            make_split(0, 0, 1, 1, 32, 32)


class TestContainer:
    def test_round_trip_exact(self, tmp_path):
        tensors = {
            "frames": np.linspace(0, 1, 24).reshape(2, 3, 4),
            "scalar_ish": np.array([3.25]),
        }
        p = tmp_path / "blob.bin"
        save_tensors(p, tensors)
        loaded = load_tensors(p)
        assert set(loaded) == set(tensors)
        for k in tensors:
            np.testing.assert_array_equal(loaded[k], tensors[k])

    def test_byte_determinism(self, tmp_path):
        arr = {"a": np.arange(12.0).reshape(3, 4)}
        p1, p2 = tmp_path / "x1.bin", tmp_path / "x2.bin"
        save_tensors(p1, arr)
        save_tensors(p2, arr)
        assert p1.read_bytes() == p2.read_bytes()

    def test_zero_dim_tensor_round_trips(self, tmp_path):
        p = tmp_path / "s.bin"
        save_tensors(p, {"s": np.float64(2.5)})
        loaded = load_tensors(p)["s"]
        assert loaded.shape == () and loaded == 2.5

    def test_duplicate_entry_refused(self, tmp_path):
        p = tmp_path / "dup.bin"
        save_tensors(p, {"frames": np.zeros((1, 2, 2)), "framez": np.ones((1, 2, 2))})
        p.write_bytes(p.read_bytes().replace(b"framez", b"frames"))
        with pytest.raises(DataError, match="entry 'frames' appears twice"):
            load_tensors(p)


class TestWriteArtifact:
    def test_creates_parents_and_replaces_the_old_bytes(self, tmp_path):
        p = tmp_path / "a" / "b" / "x.txt"
        write_artifact(p, b"old")
        write_artifact(p, b"new")
        assert p.read_bytes() == b"new"
        assert os.listdir(p.parent) == ["x.txt"]

    @pytest.mark.parametrize("fault", [KeyboardInterrupt, OSError])
    def test_failure_after_the_temporary_write_keeps_the_old_bytes(self, tmp_path, monkeypatch, fault):
        p = tmp_path / "x.bin"
        write_artifact(p, b"old")
        written = []

        def replace(src, dst):
            written.append(Path(src).read_bytes())
            raise fault

        monkeypatch.setattr(os, "replace", replace)
        with pytest.raises(fault):
            write_artifact(p, b"new")
        assert written == [b"new"]
        assert p.read_bytes() == b"old"
        assert os.listdir(tmp_path) == ["x.bin"]

    def test_new_file_gets_the_mode_open_gives(self, tmp_path):
        """0o666 less the umask, as open(path, "w") gives; not mkstemp's 0o600."""
        umask = os.umask(0o022)
        try:
            open(tmp_path / "reference", "w").close()
            write_artifact(tmp_path / "x", b"")
        finally:
            os.umask(umask)
        assert os.stat(tmp_path / "x").st_mode == os.stat(tmp_path / "reference").st_mode == 0o100644

    def test_symlink_is_replaced_not_written_through(self, tmp_path):
        target, link = tmp_path / "target", tmp_path / "link"
        target.write_bytes(b"kept")
        link.symlink_to(target)
        write_artifact(link, b"new")
        assert not link.is_symlink() and link.read_bytes() == b"new"
        assert target.read_bytes() == b"kept"


class TestFrameSequence:
    def test_validation(self):
        with pytest.raises(ConfigError):
            FrameSequence(frames=np.zeros((2, 4, 4)), modality="sonar")
