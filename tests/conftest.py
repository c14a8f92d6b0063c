import math
import os
import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

import contracts
from magnuspulse import SpinSystem, build_pulse, calibrate

# CI runs (GitHub Actions sets CI) replay the same examples without a time limit, so a red
# property test there reproduces with `CI=1 pytest`.
settings.register_profile("ci", derandomize=True, deadline=None, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture(scope="session")
def s_only_system():
    """Isolated on-resonance S spin (single two-level case)."""
    return SpinSystem(s_count=1, s_offset=0.0)


@pytest.fixture(scope="session")
def sa_system():
    """SA: one S spin, one coupled I spin."""
    return contracts._sa()


@pytest.fixture(scope="session")
def sax_system():
    """SAX: one S spin, two coupled I spins with an I-I coupling."""
    return contracts._sax()


@pytest.fixture(scope="session")
def s2ax_system():
    """S2AX: two equivalent S spins over the SAX coupling topology."""
    return contracts._s2ax()


@pytest.fixture(scope="session")
def gaussian90():
    """Gaussian pulse calibrated to a 90 degree flip over 2 ms."""
    return contracts._gaussian90()


@pytest.fixture(scope="session")
def gaussian270():
    return calibrate(build_pulse("gaussian", 2e-3, truncation=0.01), 1.5 * math.pi)

