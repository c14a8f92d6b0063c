import functools
import math
import os
import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from magnuspulse import SpinSystem, build_pulse, calibrate, verify

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
    return verify._sa()


@pytest.fixture(scope="session")
def sax_system():
    """SAX: one S spin, two coupled I spins with an I-I coupling."""
    return verify._sax()


@pytest.fixture(scope="session")
def s2ax_system(sax_system):
    """S2AX: two equivalent S spins over the SAX coupling topology."""
    return SpinSystem(
        s_count=2,
        s_offset=sax_system.s_offset,
        i_spins=sax_system.i_spins,
        j_ii=sax_system.j_ii,
    )


@pytest.fixture(scope="session")
def gaussian90():
    """Gaussian pulse calibrated to a 90 degree flip over 2 ms."""
    return verify._gaussian90()


@pytest.fixture(scope="session")
def gaussian270():
    return calibrate(build_pulse("gaussian", 2e-3, truncation=0.01), 1.5 * math.pi)


@pytest.fixture(scope="session")
def run_check():
    """Call a `verify.CHECKS` function at most once per session and return its result.

    The acceptance tests and the `verify` command test share the checks' work
    this way; a check that raises is not cached and raises at every call.
    """
    return functools.cache(lambda check: check())
