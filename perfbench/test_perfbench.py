"""Tests of the benchmark itself, on tiny inputs.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _corrupt(out):
    """Perturb an output the way a wrong decode would."""
    if isinstance(out, (bytes, bytearray)):
        return bytes([out[0] ^ 0xFF]) + bytes(out[1:])
    wrong = np.array(out, copy=True)
    wrong.flat[0] += 1.0
    return wrong


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(workload, trace, kind, capsys):
    code = run.main(
        ["--workload", workload, "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        tiny=True,
    )
    result = _last_json(capsys)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {m: v["unit"] for m, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_rescaling_uses_the_probes_nearest_the_op():
    hs = hostspeed.HostSpeed()
    # A host at reference speed for the first three probes, then half as fast.
    hs._times = [0.0, 1.0, 2.0, 10.0, 11.0, 12.0]
    hs._probe_s = [hostspeed.REFERENCE_S] * 3 + [2 * hostspeed.REFERENCE_S] * 3
    assert hs.scale(0.5, 1.5, 3) == pytest.approx(1.0)
    assert hs.scale(10.5, 11.5, 3) == pytest.approx(0.5)
    assert hs.scale(20.0, 21.0, 10) == pytest.approx(2 / 3)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_wrong_output_counts_as_failed_and_exits_non_zero(workload, capsys):
    code = run.main(
        ["--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "0"],
        tiny=True, fault=_corrupt,
    )
    result = _last_json(capsys)
    assert code != 0
    assert not result["correct"]
    assert result["failed"] >= 1
