import dataclasses
import math

import numpy as np
import pytest

from magnuspulse import (
    abs_amplitude_integral,
    build_pulse,
    calibrate,
    flip_angle,
    list_catalog,
    resolve_pulse,
    sample,
    scale_amplitude,
)
from magnuspulse.verify import random_fourier_pulse
import oracle

TWO_PI = 2.0 * math.pi


def _assert_fourier_matches_oracle(duration, a0, cos_c, sin_c):
    """Clenshaw against the per-harmonic sum, to 1e-14 of the coefficients' absolute sum."""
    n = 4096
    edges = np.array([0.0, 1e-12, 0.25, 0.5, 0.5 - 1e-12, 1.0 - 1e-12, 1.0])  # x near 0, pi, 2 pi
    t = np.concatenate(((np.arange(n) + 0.5) * duration / n, duration * edges))
    amp = build_pulse("fourier", duration, a0=a0, cos_coeffs=cos_c, sin_coeffs=sin_c).amplitude_fn
    scale = abs(a0) + sum(map(abs, cos_c)) + sum(map(abs, sin_c))
    error = np.max(np.abs(amp(t) - oracle.fourier_series(t, duration, a0, cos_c, sin_c)))
    assert error <= 1e-14 * scale


class TestFamilies:
    def test_constant(self):
        pulse = build_pulse("constant", 1e-3, amplitude=1000.0)
        ts = np.linspace(0, 1e-3, 11)
        assert np.all(pulse.amplitude_fn(ts) == 1000.0)
        assert np.all(pulse.phase_fn(ts) == 0.0)

    def test_gaussian_truncation_is_edge_over_peak(self):
        pulse = build_pulse("gaussian", 1e-3, truncation=0.01, peak=2.0)
        assert pulse.amplitude_fn(np.array([0.0]))[0] == pytest.approx(0.02)
        assert pulse.amplitude_fn(np.array([0.5e-3]))[0] == pytest.approx(2.0)

    def test_sech_symmetric_peak(self):
        pulse = build_pulse("sech", 1e-3, beta=5.3)
        assert pulse.amplitude_fn(np.array([0.5e-3]))[0] == pytest.approx(1.0)
        edge = pulse.amplitude_fn(np.array([0.0, 1e-3]))
        assert edge[0] == pytest.approx(edge[1])

    def test_sinc_has_negative_lobes(self):
        pulse = build_pulse("sinc", 1e-3, lobes=3)
        ts = np.linspace(0, 1e-3, 2001)
        assert pulse.amplitude_fn(ts).min() < 0

    def test_hermite_negative_wings_even_order(self):
        pulse = build_pulse("hermite", 1e-3, order=2)
        ts = np.linspace(0, 1e-3, 2001)
        values = pulse.amplitude_fn(ts)
        assert values[1000] == pytest.approx(1.0)
        assert values.min() < 0

    def test_fourier_eburp2_has_negative_lobes_so_i_exceeds_theta(self):
        entry = resolve_pulse("eburp2")
        pulse = entry.build()
        ts = np.linspace(0, entry.duration, 4001)
        assert pulse.amplitude_fn(ts).min() < 0
        i_t = abs_amplitude_integral(pulse, entry.duration)
        theta = flip_angle(pulse, entry.duration)
        assert i_t > abs(theta)

    @pytest.mark.parametrize("name", ["reburp", "uburp", "eburp2", "iburp2"])
    def test_fourier_clenshaw_matches_per_harmonic_sum_on_catalog(self, name):
        entry = resolve_pulse(name)
        p = entry.params
        _assert_fourier_matches_oracle(entry.duration, p["a0"], p["cos_coeffs"], p["sin_coeffs"])

    def test_fourier_clenshaw_matches_per_harmonic_sum_on_random_series(self):
        rng = np.random.default_rng(14)
        for trial in range(200):
            n_cos, n_sin = rng.integers(0, 33, size=2)
            if trial % 4 == 0:
                n_cos, n_sin = (0, n_sin) if trial % 8 == 0 else (n_cos, 0)
            cos_c = rng.normal(size=n_cos) * rng.choice([1e-3, 1.0, 10.0])
            sin_c = rng.normal(size=n_sin)
            _assert_fourier_matches_oracle(1e-3, rng.normal(), tuple(cos_c), tuple(sin_c))

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown pulse family"):
            build_pulse("triangle", 1e-3)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            build_pulse("gaussian", 1e-3, truncation=1.5)
        with pytest.raises(ValueError):
            build_pulse("sinc", 1e-3, lobes=0)
        with pytest.raises(ValueError):
            build_pulse("hermite", 1e-3, order=3)
        with pytest.raises(ValueError):
            build_pulse("gaussian", 1e-3, bogus=1)
        with pytest.raises(ValueError):
            build_pulse("constant", 0.0)


class TestFlipAngle:
    def test_constant_rectangle(self):
        pulse = build_pulse("constant", 1e-2, amplitude=1000.0)
        t = math.pi / 2000.0
        assert flip_angle(pulse, t, 64) == pytest.approx(math.pi / 2)

    def test_zero_time(self, gaussian90):
        assert flip_angle(gaussian90, 0.0) == 0.0
        assert abs_amplitude_integral(gaussian90, 0.0) == 0.0

    def test_calibrated_gaussian_270(self, gaussian270):
        assert flip_angle(gaussian270, gaussian270.duration) == pytest.approx(
            1.5 * math.pi, abs=1e-8
        )

    def test_outside_support_rejected(self, gaussian90):
        with pytest.raises(ValueError):
            flip_angle(gaussian90, -1e-6)
        with pytest.raises(ValueError):
            flip_angle(gaussian90, gaussian90.duration * 1.01)

    def test_additive_on_shared_grids(self, gaussian90):
        T = gaussian90.duration
        theta_half = flip_angle(gaussian90, T / 2, 2048)
        theta_full = flip_angle(gaussian90, T, 4096)
        # second half on the same grid spacing
        mids = (np.arange(2048) + 0.5) * (T / 4096) + T / 2
        second_half = float(np.sum(gaussian90.amplitude_fn(mids)) * (T / 4096))
        assert theta_half + second_half == pytest.approx(theta_full, rel=1e-10)

    def test_quadrature_convergence_order(self, gaussian90):
        T = gaussian90.duration
        diffs = []
        for n in (64, 128, 256, 512):
            diffs.append(abs(flip_angle(gaussian90, T, n) - flip_angle(gaussian90, T, 2 * n)))
        for coarse, fine in zip(diffs, diffs[1:]):
            assert coarse / fine >= 3.0


class TestAbsIntegral:
    def test_nonnegative_envelope_equals_flip(self, gaussian270):
        T = gaussian270.duration
        assert abs_amplitude_integral(gaussian270, T) == pytest.approx(
            flip_angle(gaussian270, T), abs=1e-12
        )

    def test_odd_envelope(self):
        c = 500.0
        pulse = build_pulse("fourier", 1e-3, a0=0.0, sin_coeffs=(c,))
        theta = flip_angle(pulse, 1e-3, 4096)
        i_t = abs_amplitude_integral(pulse, 1e-3, 4096)
        assert abs(theta) < 1e-10
        # |sin| integrates to 2/pi of the period times amplitude
        assert i_t == pytest.approx(2.0 * c * 1e-3 / math.pi, rel=1e-5)

    def test_constant_linear_in_time(self):
        pulse = build_pulse("constant", 1e-3, amplitude=250.0)
        assert abs_amplitude_integral(pulse, 0.4e-3, 400) == pytest.approx(0.1)

    def test_triangle_inequality_on_random_envelopes(self):
        rng = np.random.default_rng(123)
        for _ in range(100):
            pulse = random_fourier_pulse(rng)
            t = rng.uniform(0.1, 1.0) * pulse.duration
            n = int(rng.integers(64, 512))
            assert abs_amplitude_integral(pulse, t, n) >= abs(flip_angle(pulse, t, n))


class TestCalibrate:
    def test_constant_scaling(self):
        pulse = calibrate(build_pulse("constant", 1e-3), math.pi / 2)
        assert pulse.amplitude_fn(np.array([0.3e-3]))[0] == pytest.approx(500.0 * math.pi)

    def test_zero_net_area_rejected(self):
        pulse = build_pulse("fourier", 1e-3, a0=0.0, sin_coeffs=(1.0,))
        with pytest.raises(ValueError, match="zero net area"):
            calibrate(pulse, math.pi / 2)

    @pytest.mark.parametrize("n_steps", [1000, 4096])
    def test_matches_scaling_by_flip_angle_on_catalog(self, n_steps):
        for entry in list_catalog():
            pulse = entry.build()
            expected = scale_amplitude(
                pulse, entry.nominal_flip / flip_angle(pulse, pulse.duration, n_steps))
            t = np.linspace(0.0, pulse.duration, 257)
            got = calibrate(pulse, entry.nominal_flip, n_steps).amplitude_fn(t)
            assert np.array_equal(got, expected.amplitude_fn(t)), entry.name

    def test_evaluates_envelope_once(self):
        calls = []
        pulse = build_pulse("gaussian", 2e-3, truncation=0.01)
        amp = pulse.amplitude_fn
        counted = dataclasses.replace(pulse, amplitude_fn=lambda t: calls.append(t.size) or amp(t))
        calibrate(counted, math.pi / 2, 512)
        assert calls == [512]

    def test_scale_amplitude_linearity(self, gaussian90):
        doubled = scale_amplitude(gaussian90, 2.0)
        assert flip_angle(doubled, doubled.duration) == pytest.approx(math.pi, rel=1e-12)


class TestSample:
    def test_constant_all_equal(self):
        pulse = build_pulse("constant", 1e-3, amplitude=77.0)
        sp = sample(pulse, 16)
        assert np.all(sp.amps == 77.0)
        assert sp.dt * 16 == pytest.approx(1e-3, rel=1e-12)

    def test_single_step_midpoint(self, gaussian90):
        sp = sample(gaussian90, 1)
        assert sp.times[0] == pytest.approx(gaussian90.duration / 2)

    def test_sample_sum_matches_quadrature(self, gaussian90):
        sp = sample(gaussian90, 4096)
        assert float(np.sum(sp.amps) * sp.dt) == flip_angle(gaussian90, gaussian90.duration, 4096)


class TestCatalog:
    def test_eight_bundled_pulses(self):
        names = {entry.name for entry in list_catalog()}
        assert names == {
            "E-BURP-2", "U-BURP", "I-BURP-2", "RE-BURP", "G3", "G4", "Q3", "Q5",
        }

    def test_resolve_by_name_and_path(self):
        by_name = resolve_pulse("reburp")
        assert by_name.name == "RE-BURP"
        assert by_name.nominal_flip == pytest.approx(math.pi)

    def test_unknown_pulse_rejected(self):
        with pytest.raises(ValueError, match="no pulse"):
            resolve_pulse("nope")

    def test_catalog_calibration_contract(self):
        entry = resolve_pulse("g4")
        pulse = entry.build_calibrated()
        assert flip_angle(pulse, entry.duration) == pytest.approx(math.pi / 2, rel=1e-10)

    def test_data_dir_env_override(self, tmp_path, monkeypatch):
        (tmp_path / "custom.json").write_text(
            '{"name": "custom", "family": "gaussian", "duration_s": 0.002,'
            ' "nominal_flip_deg": 45.0, "params": {"truncation": 0.05}}'
        )
        monkeypatch.setenv("MAGNUSPULSE_DATA", str(tmp_path))
        entries = list_catalog()
        assert [e.name for e in entries] == ["custom"]
        assert resolve_pulse("custom").duration == pytest.approx(0.002)
