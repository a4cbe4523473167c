"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from repro.machine import abstract_cluster
from repro.mpi import run_spmd

# Hypothesis profiles for the modules that leave ``max_examples`` to the
# profile (tests/test_splitter_properties.py, tests/test_node_allreduce.py,
# tests/test_recovery_properties.py):
# the tier-1 run is bounded and repeats exactly;
# ``REPRO_HYPOTHESIS_PROFILE=deep`` is CI's own job.
settings.register_profile("bounded", max_examples=20, deadline=None, derandomize=True)
settings.register_profile("deep", max_examples=400, deadline=None)
settings.load_profile(os.environ.get("REPRO_HYPOTHESIS_PROFILE", "bounded"))


@pytest.fixture(scope="session")
def repo_sweep():
    """Findings of the full four-directory sweep, filtered by path prefix.

    The whole-program analysis of the repository costs seconds, so the
    session performs it once; hygiene tests ask for the slice they guard,
    e.g. ``repo_sweep("src", "examples")``.
    """
    from repro.analyze import analyze_paths

    root = Path(__file__).resolve().parents[1]
    findings = analyze_paths([root / d for d in ("src", "examples", "tests", "benchmarks")])

    def under(*prefixes: str) -> list:
        dirs = [root / p for p in prefixes]
        return [
            f for f in findings if any(d in Path(f.path).parents for d in dirs)
        ]

    return under


@pytest.fixture
def rng():
    return np.random.default_rng(0xC0FFEE)


def spmd(p, fn, *args, **kwargs):
    """Run an SPMD function on a small abstract cluster; returns rank results."""
    kwargs.setdefault("machine", abstract_cluster(max(1, (p + 7) // 8), cores_per_node=8))
    return run_spmd(p, fn, *args, **kwargs)


@pytest.fixture
def run():
    return spmd
