"""Input-fault injection: NaN/Inf damage must never produce garbage.

The byte-level fuzz campaign (test_robustness.py) attacks payloads;
this one attacks *inputs*.  Every codec is fed arrays damaged by the
``ARRAY_FAULT_OPERATORS`` of ``tests/fault_harness.py`` and must either
reject with a :class:`~repro.errors.ReproError` or return an array
whose dtype, shape, and non-finite pattern match the damaged input
exactly — no unflagged NaNs, no leaked fill values.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

import repro
from fault_harness import (
    ARRAY_FAULT_OPERATORS,
    fuzz_codec_inputs,
    inject_nonfinite,
)
from repro.compressors import ALL_COMPRESSORS
from repro.compressors.base import PsnrMode, psnr_target_for_idx
from repro.core.modes import PweMode
from repro.datasets import list_scenarios

TOL = 1e-3


def _roundtrip(name: str):
    """Container roundtrip for a registry name (sperr and szx-like are
    the ``quality`` and ``fast`` tiers; baselines are codec tags)."""
    codec = {"sperr": "quality", "szx-like": "fast"}.get(name, name)
    mode = (
        PsnrMode(psnr_target_for_idx(16)) if name == "tthresh-like" else PweMode(TOL)
    )

    def rt(data: np.ndarray) -> np.ndarray:
        return repro.decompress(repro.compress(data, mode, codec=codec).payload)

    return rt


class TestOperators:
    def test_registry_names(self):
        assert set(ARRAY_FAULT_OPERATORS) == {
            "scattered_nan",
            "scattered_inf",
            "nan_block",
            "all_nan",
        }

    def test_inject_is_seeded_and_pure(self):
        base = np.random.default_rng(0).normal(size=(10, 10))
        a, ops_a = inject_nonfinite(base, 42)
        b, ops_b = inject_nonfinite(base, 42)
        assert ops_a == ops_b
        np.testing.assert_array_equal(a, b)
        assert np.isfinite(base).all()  # input untouched

    def test_each_operator_damages(self):
        base = np.random.default_rng(1).normal(size=(12, 12))
        rng = np.random.default_rng(2)
        for name, op in ARRAY_FAULT_OPERATORS.items():
            out = op(base, rng)
            assert not np.isfinite(out).all(), name
            assert out.shape == base.shape


class TestFuzzMatrix:
    @pytest.mark.parametrize("name", sorted(ALL_COMPRESSORS))
    def test_smoke_campaign(self, name):
        base = np.random.default_rng(9).normal(size=(16, 16)).cumsum(axis=1)
        report = fuzz_codec_inputs(_roundtrip(name), base, n=8, seed=0)
        assert report.ok, [v.detail for v in report.violations]
        assert report.n_decoded + report.n_rejected == report.n_runs

    @pytest.mark.parametrize("name", sorted(ALL_COMPRESSORS))
    def test_masked_scenarios_roundtrip(self, name):
        # The declarative masked scenarios double as fuzz bases: damage
        # them further and the contract must still hold.
        rt = _roundtrip(name)
        for scenario in list_scenarios(tags={"masked"}, smoke_only=True):
            data = scenario.build()
            if data.ndim > 3:
                data = data[0]
            report = fuzz_codec_inputs(rt, data, n=3, seed=7)
            assert report.ok, (
                scenario.name,
                [v.detail for v in report.violations],
            )

    @pytest.mark.fuzz
    @pytest.mark.skipif(
        os.environ.get("REPRO_FUZZ_DEEP") != "1",
        reason="deep fuzz is opt-in: set REPRO_FUZZ_DEEP=1 and run -m fuzz",
    )
    @pytest.mark.parametrize("name", sorted(ALL_COMPRESSORS))
    def test_deep_campaign(self, name):
        """Stacked-operator campaign; REPRO_FUZZ_N scales the run."""
        n = int(os.environ.get("REPRO_FUZZ_N", "100"))
        base = np.random.default_rng(3).normal(size=(20, 20, 4)).cumsum(axis=0)
        report = fuzz_codec_inputs(_roundtrip(name), base, n=n, n_ops=2, seed=0)
        assert report.ok, [v.detail for v in report.violations]
