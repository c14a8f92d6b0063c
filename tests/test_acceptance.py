"""Acceptance suite: every contract in `verify.CHECKS`, plus two that need `oracle`.

Run as `pytest -s tests/test_acceptance.py` to see one pass/fail line per
check; `magnuspulse verify` runs the same `CHECKS` without pytest or scipy.
"""

import time

import numpy as np
import pytest

from magnuspulse import assemble_full_matrix, integrate_expansion, propagate_interaction, su2
from magnuspulse.verify import CHECKS

import oracle


def _report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.mark.parametrize("name, check", CHECKS, ids=[name for name, _ in CHECKS])
def test_check(run_check, name, check):
    _report(name, *run_check(check))


def test_c03_oracle_equivalence(sax_system, s2ax_system, gaussian90):
    start = time.perf_counter()
    worst = 0.0
    for system in (sax_system, s2ax_system):
        traj = propagate_interaction(system, gaussian90, n_steps=4096, tol=1e-9)
        assembled = assemble_full_matrix(system, su2.to_matrix(traj.q[..., -1]))
        dense = oracle.dense_propagator(system, gaussian90, 2 * traj.n_steps)
        worst = max(worst, float(np.linalg.norm(assembled - dense)))
    elapsed = time.perf_counter() - start
    _report("c03 SAX and S2AX propagators match the dense full-space oracle",
            worst < 1e-8 and elapsed < 5.0,
            f"max Frobenius diff = {worst:.2e}, {elapsed:.1f} s")


def test_c06_legacy_equations_regression(sa_system, gaussian90):
    corrected = integrate_expansion(sa_system, gaussian90, n_steps=1024, tol=None)
    _, f, g = oracle.integrate_expansion_loop(
        sa_system, gaussian90, 1024, oracle._legacy_expansion_rhs
    )
    corrected_residual = float(su2.norm_defect(corrected.q).max())
    legacy_residual = float(np.max(np.abs(f**2 + np.sum(g**2, axis=-1) - 1.0)))
    _report("c06 superseded coefficient equations break the unit-norm constraint",
            corrected_residual < 1e-8 and legacy_residual > 1e-2,
            f"corrected residual = {corrected_residual:.2e}, "
            f"legacy residual = {legacy_residual:.2e}")
