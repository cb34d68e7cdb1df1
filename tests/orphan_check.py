"""Check that a default-settings compress + decompress leaves no process behind.

    python tests/orphan_check.py [--size 128] [--grace 2.0]

Runs :func:`repro.compress` and :func:`repro.decompress` with default
settings (``workers=None``) on a seeded ``size``³ field, chunk 32, in a
child interpreter started in a session of its own.  ``--grace`` seconds
after the child exits, every live process still in that session is a
leftover: a pool worker, the ``multiprocessing`` resource tracker, or
anything else the child started.  Exits 1 and lists them when there is
one; the child's own line reports the process pools it used, so a run
that never pooled is visible.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHILD = """
import numpy as np
import repro
from repro.core import parallel
from repro.datasets.fields import get_field

field = get_field("miranda_density", ({size},) * 3, seed=7)
mode = repro.PweMode(1e-3 * float(np.ptp(field)))
result = repro.compress(field, mode, chunk_shape=32)
out = repro.decompress(result.payload)
assert float(np.max(np.abs(out - field))) <= mode.tolerance
print("pools", sorted(parallel._POOLS), "notes", len(result.notes), flush=True)
"""


def _session_members(sid: int) -> list[tuple[int, str]]:
    """Live (non-zombie) processes in session ``sid``: ``(pid, name)``."""
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue  # exited while we looked
        name = stat[stat.index("(") + 1 : stat.rindex(")")]
        fields = stat[stat.rindex(")") + 2 :].split()
        # fields: state, ppid, pgrp, session, ...
        if int(fields[3]) == sid and fields[0] != "Z":
            found.append((int(entry.name), name))
    return found


def leftovers(size: int = 128, grace: float = 2.0) -> tuple[list, str]:
    """Run the child; return ``(leftover processes, child stdout)``."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    # Files, not pipes: a leftover holding a pipe would stall the wait
    # for the child's output instead of being counted.
    with tempfile.TemporaryFile("w+") as out, tempfile.TemporaryFile("w+") as err:
        proc = subprocess.Popen(
            [sys.executable, "-c", CHILD.format(size=size)],
            env=env,
            stdout=out,
            stderr=err,
            start_new_session=True,
        )
        code = proc.wait(timeout=600)
        time.sleep(grace)
        left = _session_members(proc.pid)
        out.seek(0)
        err.seek(0)
        if code:
            raise RuntimeError(f"child failed ({code}):\n{err.read()}")
        return left, out.read().strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--size", type=int, default=128)
    parser.add_argument("--grace", type=float, default=2.0)
    args = parser.parse_args(argv)
    left, report = leftovers(args.size, args.grace)
    print(f"child: {report}")
    if left:
        print(f"{len(left)} process(es) outlived the child by {args.grace} s:")
        for pid, name in left:
            print(f"  pid {pid} ({name})")
        return 1
    print(f"no process outlived the child by {args.grace} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
