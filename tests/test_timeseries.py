"""Time-series archives and the simulation substrate."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.core import (
    compress_frames,
    decompress_frame,
    decompress_frames,
    frame_count,
)
from repro.datasets import AdvectionDiffusion
from repro.errors import InvalidArgumentError, StreamFormatError


class TestAdvectionDiffusion:
    def test_deterministic(self):
        a = AdvectionDiffusion((16, 16), seed=3)
        b = AdvectionDiffusion((16, 16), seed=3)
        a.step(5)
        b.step(5)
        np.testing.assert_array_equal(a.state, b.state)

    def test_mass_conserved(self):
        sim = AdvectionDiffusion((24, 24), seed=1)
        before = sim.total_mass()
        sim.step(50)
        assert sim.total_mass() == pytest.approx(before, abs=1e-8)

    def test_diffusion_smooths(self):
        sim = AdvectionDiffusion((32, 32), seed=2, init_slope=0.5)
        rough = float(np.abs(np.diff(sim.state, axis=0)).mean())
        sim.step(100)
        smooth = float(np.abs(np.diff(sim.state, axis=0)).mean())
        assert smooth < rough / 2

    def test_stability_guard(self):
        with pytest.raises(InvalidArgumentError):
            AdvectionDiffusion((8, 8), kappa=1.0, dt=10.0)

    def test_restart_from_state(self):
        sim = AdvectionDiffusion((16, 16), seed=4)
        sim.step(10)
        checkpoint = sim.state.copy()
        sim.step(10)
        final = sim.state.copy()
        sim2 = AdvectionDiffusion((16, 16), seed=4)
        sim2.set_state(checkpoint)
        sim2.step(10)
        np.testing.assert_allclose(sim2.state, final, atol=1e-12)

    def test_bad_args(self):
        with pytest.raises(InvalidArgumentError):
            AdvectionDiffusion((4, 4, 4, 4))
        with pytest.raises(InvalidArgumentError):
            AdvectionDiffusion((8, 8), velocity=(1.0,))
        sim = AdvectionDiffusion((8, 8))
        with pytest.raises(InvalidArgumentError):
            sim.set_state(np.zeros((4, 4)))
        with pytest.raises(InvalidArgumentError):
            sim.step(-1)


class TestTimeSeriesArchive:
    @pytest.fixture(scope="class")
    def frames(self):
        sim = AdvectionDiffusion((20, 20), seed=7)
        out = [sim.state.copy()]
        for _ in range(3):
            sim.step(15)
            out.append(sim.state.copy())
        return out

    def test_round_trip_all_frames(self, frames):
        t = repro.tolerance_from_idx(frames[0], 12)
        payload, results = compress_frames(frames, repro.PweMode(t))
        assert frame_count(payload) == len(frames)
        assert len(results) == len(frames)
        for original, recon in zip(frames, decompress_frames(payload)):
            assert np.abs(recon - original).max() <= t

    def test_random_access(self, frames):
        t = repro.tolerance_from_idx(frames[0], 12)
        payload, _ = compress_frames(frames, repro.PweMode(t))
        recon2 = decompress_frame(payload, 2)
        assert np.abs(recon2 - frames[2]).max() <= t
        # negative indexing works like a sequence
        last = decompress_frame(payload, -1)
        np.testing.assert_array_equal(last, decompress_frame(payload, len(frames) - 1))

    def test_per_frame_modes(self, frames):
        modes = [
            repro.PweMode(repro.tolerance_from_idx(f, idx))
            for f, idx in zip(frames, (8, 12, 16, 20))
        ]
        payload, results = compress_frames(frames, modes)
        sizes = [r.nbytes for r in results]
        assert sizes == sorted(sizes)  # tighter tolerance => more bytes

    def test_mixed_frame_shapes(self):
        frames = [np.ones((8, 8)), np.zeros((12, 10)) + 0.5]
        payload, _ = compress_frames(frames, repro.PweMode(1e-6))
        assert decompress_frame(payload, 0).shape == (8, 8)
        assert decompress_frame(payload, 1).shape == (12, 10)

    def test_errors(self, frames):
        with pytest.raises(InvalidArgumentError):
            compress_frames([], repro.PweMode(0.1))
        with pytest.raises(InvalidArgumentError):
            compress_frames(frames, [repro.PweMode(0.1)])  # count mismatch
        t = repro.tolerance_from_idx(frames[0], 10)
        payload, _ = compress_frames(frames, repro.PweMode(t))
        with pytest.raises(InvalidArgumentError):
            decompress_frame(payload, 99)
        with pytest.raises(StreamFormatError):
            frame_count(b"NOTANARCHIVE")
        with pytest.raises(StreamFormatError):
            frame_count(payload[: len(payload) // 2])

    @pytest.mark.parametrize(
        "damage",
        [
            lambda p: p[:10],
            lambda p: p[:15],
            lambda p: p[:8] + b"\xff\xff\xff\xff" + p[12:],
            lambda p: p + b"junk",
        ],
        ids=["10-bytes", "15-bytes", "u32-max-frames", "trailing-bytes"],
    )
    def test_malformed_frame_table_rejected(self, frames, damage):
        payload, _ = compress_frames(frames[:2], repro.PweMode(1.0))
        with pytest.raises(StreamFormatError):
            frame_count(damage(payload))
