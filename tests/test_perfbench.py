"""The benchmark's tracer self-test, run in tier-1: a change that moves one of
its exact call counts fails here, not only in a benchmark run."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = str(Path(__file__).resolve().parents[1])  # holds the perfbench package
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench.selftest import selftest_standalone  # noqa: E402


def test_benchmark_tracer_selftest_finds_no_problems():
    assert selftest_standalone() == []
