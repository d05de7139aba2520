"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from _platform import build_platform, small_context_config
from repro.check.callgraph import graph_for_paths
from repro.clocks.crystal import CrystalOscillator
from repro.clocks.clock import DerivedClock
from repro.config import PlatformConfig
from repro.core.techniques import TechniqueSet
from repro.lint.astcache import ModuleCache, default_source_root
from repro.power.tree import PowerTree
from repro.sim.kernel import Kernel
from repro.sim.trace import TraceRecorder
from repro.system.skylake import SkylakePlatform


@pytest.fixture
def kernel() -> Kernel:
    return Kernel()


@pytest.fixture
def trace() -> TraceRecorder:
    return TraceRecorder()


@pytest.fixture
def tree(kernel, trace) -> PowerTree:
    return PowerTree(kernel, trace)


@pytest.fixture
def fast_crystal() -> CrystalOscillator:
    return CrystalOscillator("xtal24", 24e6, ppm_error=10.0)


@pytest.fixture
def slow_crystal() -> CrystalOscillator:
    return CrystalOscillator("rtc", 32768.0, ppm_error=-5.0)


@pytest.fixture
def fast_clock(fast_crystal) -> DerivedClock:
    return DerivedClock("fastclk", fast_crystal)


@pytest.fixture
def slow_clock(slow_crystal) -> DerivedClock:
    return DerivedClock("slowclk", slow_crystal)


@pytest.fixture
def fast_ctx_config() -> PlatformConfig:
    return small_context_config()


@pytest.fixture
def baseline_platform() -> SkylakePlatform:
    return build_platform(TechniqueSet.baseline())


@pytest.fixture(scope="session")
def shipped_sources():
    """One parse of the shipped ``repro`` sources for the gate tests.

    ``(ModuleCache, CallGraph)`` over :func:`default_source_root`, the
    way ``repro check`` shares one graph between its passes.
    """
    cache = ModuleCache()
    return cache, graph_for_paths([default_source_root()], cache=cache)
