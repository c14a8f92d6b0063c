import functools
import math
import os
import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from magnuspulse import ISpin, SpinSystem, build_pulse, calibrate

TWO_PI = 2.0 * math.pi

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
    return SpinSystem(
        s_count=1,
        s_offset=TWO_PI * 12.0,
        i_spins=(ISpin(offset=TWO_PI * 40.0, j_to_s=7.0),),
    )


@pytest.fixture(scope="session")
def sax_system():
    """SAX: one S spin, two coupled I spins with an I-I coupling."""
    return SpinSystem(
        s_count=1,
        s_offset=TWO_PI * 10.0,
        i_spins=(
            ISpin(offset=TWO_PI * 35.0, j_to_s=8.0),
            ISpin(offset=-TWO_PI * 55.0, j_to_s=4.0),
        ),
        j_ii={(0, 1): 5.0},
    )


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
    return calibrate(build_pulse("gaussian", 2e-3, truncation=0.01), math.pi / 2)


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
