"""The package's public names: what `import magnuspulse` offers, and nothing removed comes back."""

import inspect

import pytest

import magnuspulse

EXPORTS = {
    "ISpin", "SpinSystem", "assemble_full_matrix", "load_system", "offset_diagonal",
    "CatalogEntry", "PulseShape", "SampledPulse", "build_pulse", "calibrate", "list_catalog",
    "load_pulse_file", "midpoint_integrals", "resolve_pulse", "sample", "scale_amplitude",
    "BlockTrajectory", "RefinementError", "excitation_profile", "propagate_interaction",
    "CriterionReport", "ExtractionError", "MagnusSolution", "explicit_criterion",
    "extract_omega", "gap_audit", "magnus_partial_sums",
    "angles_from_state", "integrate_expansion",
}

#: Removed names; README "Removed public names" gives each one's replacement.
REMOVED = ("energy_diagonal", "lab_frame_propagator", "unitarity_defect", "omega_hat_quadrature",
           "ExpansionState", "flip_angle", "abs_amplitude_integral")


def test_exports_are_exactly_the_public_names():
    public = {name for name, value in vars(magnuspulse).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == EXPORTS


def test_every_export_imports():
    for name in sorted(EXPORTS):
        namespace = {}
        exec(f"from magnuspulse import {name}", namespace)
        assert callable(namespace[name]), name


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_is_gone(name):
    with pytest.raises(ImportError):
        exec(f"from magnuspulse import {name}", {})


def test_trailing_axis_tracker_is_gone():
    # a trailing-axis array is tracked as su2.track_rows on np.moveaxis(q, -1, 0) rows
    assert not hasattr(magnuspulse.su2, "track")


def test_window_walk_generator_is_gone():
    # each reader loops over su2._windows itself and calls su2.track_rows in each window
    assert not hasattr(magnuspulse.su2, "track_windows")


def test_calibrated_build_is_gone():
    # calibrate(entry.build(), flip) is the one way to a calibrated catalog envelope
    assert not hasattr(magnuspulse.CatalogEntry, "build_calibrated")


def test_planar_product_is_gone():
    # the Cayley-Klein product is always taken in full: no planar levels, no z-row test
    assert not hasattr(magnuspulse.su2, "_planar")
    assert list(inspect.signature(magnuspulse.su2.compose).parameters) == ["p", "q", "out"]
