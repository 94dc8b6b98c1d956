"""Cross checks of the closed forms against their numerical oracles.

The oracle recomputes each shift from the frequency integral with the
pole handled by principal value, so these tests exercise a different
code path than the closed forms they compare against.
"""

import csv
import io
from dataclasses import replace

import pytest

import rindler_resonance.em as em_module
import rindler_resonance.oracle as oracle_module
from rindler_resonance import (
    CheckResult,
    DomainError,
    FieldKind,
    Parity,
    QuadratureSpec,
    Scenario,
    VerificationReport,
    asymptote_convergence_report,
    commutator_agreeing_components,
    em_commutator_consistency,
    em_energy_pv_oracle,
    em_pv_suite,
    em_resonance_energy,
    reduced_geometry,
    scalar_energy_pv_oracle,
    scalar_pv_suite,
    scalar_resonance_energy,
)

C = 299792458.0


def make_check(check_id, rel_error, passed, note=""):
    return CheckResult(
        check_id=check_id,
        computed=1.0,
        reference=1.0,
        rel_error=rel_error,
        tolerance=1e-6,
        passed=passed,
        note=note,
    )


def unit_commutator_geometry():
    return reduced_geometry(2.0 * C * C, 1.0, C)  # zeta = 1, theta = 1


class TestVerificationReport:
    def test_checks_sorted_by_id(self):
        rep = VerificationReport(checks=(
            make_check("b/second", 1e-9, True),
            make_check("a/first", 1e-8, True),
        ))
        assert [c.check_id for c in rep.checks] == ["a/first", "b/second"]

    def test_counts_and_passed(self):
        good = VerificationReport(checks=(make_check("a", 0.0, True),))
        mixed = VerificationReport(checks=(
            make_check("a", 0.0, True),
            make_check("b", 1.0, False),
        ))
        assert good.passed and good.n_passed == 1 and good.n_failed == 0
        assert not mixed.passed and mixed.n_passed == 1 and mixed.n_failed == 1

    def test_worst_picks_largest_error(self):
        rep = VerificationReport(checks=(
            make_check("a", 1e-9, True),
            make_check("b", 1e-3, False),
            make_check("c", 1e-7, True),
        ))
        assert rep.worst.check_id == "b"
        assert VerificationReport().worst is None

    def test_merged_combines_and_resorts(self):
        left = VerificationReport(checks=(make_check("b", 0.0, True),))
        right = VerificationReport(checks=(make_check("a", 0.0, True),))
        merged = left.merged(right)
        assert [c.check_id for c in merged.checks] == ["a", "b"]

    def test_text_leads_with_summary(self):
        rep = VerificationReport(checks=(make_check("a", 1e-9, True),))
        text = rep.to_text()
        assert text.startswith(rep.summary())
        assert rep.summary().startswith("PASS: 1/1")
        assert "\nPASS a " in text

    def test_csv_round_trip(self):
        rep = VerificationReport(checks=(
            make_check("a", 1e-9, True),
            make_check("b", 0.5, False, note="sample note"),
        ))
        rows = list(csv.DictReader(io.StringIO(rep.to_csv())))
        assert len(rows) == 2
        assert rows[0]["check_id"] == "a"
        assert rows[1]["passed"] == "false"
        assert rows[1]["note"] == "sample note"
        assert float(rows[0]["rel_error"]) == pytest.approx(1e-9)


class TestScalarOracle:
    def test_matches_closed_form_pointwise(self):
        sc = Scenario.from_reduced(theta=1.0, zeta=1.0, parity=Parity.ANTISYMMETRIC)
        closed = scalar_resonance_energy(sc).reduced
        pv = scalar_energy_pv_oracle(sc)
        assert pv == pytest.approx(closed, rel=1e-9)

    def test_deterministic(self):
        sc = Scenario.from_reduced(theta=2.0, zeta=10.0, parity=Parity.SYMMETRIC)
        assert scalar_energy_pv_oracle(sc) == scalar_energy_pv_oracle(sc)

    def test_small_grid_suite(self):
        rep = scalar_pv_suite(thetas=(0.5, 2.0), zetas=(0.1, 10.0))
        assert rep.passed
        assert rep.n_passed == 8
        assert "scalar-pv/theta=0.5/zeta=0.1/parity=sym" in {
            c.check_id for c in rep.checks
        }

    def test_suite_honours_tolerance(self):
        # theta = 1, zeta = 1 is exact to the last bit, so take points
        # whose rounding error is nonzero.
        rep = scalar_pv_suite(thetas=(0.5, 2.0), zetas=(0.1, 10.0), tolerance=1e-30)
        assert not rep.passed
        for c in rep.checks:
            assert c.passed == (c.rel_error <= c.tolerance)

    def test_large_phase_and_extreme_zeta_grid(self):
        # omega0*S up to 100 and zeta at both ends of [1e-3, 1e3].
        grid = dict(thetas=(20.0, 100.0), zetas=(1e-3, 1e3))
        scalar = scalar_pv_suite(**grid)
        em = em_pv_suite(**grid)
        assert scalar.passed, scalar.worst
        assert em.passed, em.worst


class TestEmOracle:
    def test_cross_dipoles_at_small_phase(self):
        # omega0*S ~ 1e-7 with a density of order 1e-9, below the default
        # absolute tolerance: the tail must still be resolved.
        sc = Scenario.from_reduced(
            theta=1e-3,
            zeta=1e5,
            parity=Parity.SYMMETRIC,
            field_kind=FieldKind.EM,
            dipole_a=[1, 0, 0],
            dipole_b=[0, 0, 1],
        )
        closed = em_resonance_energy(sc).reduced
        assert em_energy_pv_oracle(sc) == pytest.approx(closed, rel=1e-6, abs=0.0)

    def test_small_density_meets_rel_tol(self):
        # The density here is ~1e-9 in SI units; an absolute 1e-12 floor
        # stopped the integration at ~6e-11 relative.
        sc = Scenario.from_reduced(
            theta=1e-3,
            zeta=1e5,
            parity=Parity.SYMMETRIC,
            field_kind=FieldKind.EM,
            dipole_a=[1, 0, 0],
            dipole_b=[0, 0, 1],
        )
        closed = em_resonance_energy(sc).reduced
        assert em_energy_pv_oracle(sc) == pytest.approx(closed, rel=1e-12, abs=0.0)

    def test_calibration_constant(self):
        # The inertial points the overall constant was once fitted at:
        # the analytic -p/pi normalization must reproduce them.
        spec = QuadratureSpec(rel_tol=1e-9, abs_tol=1e-12)
        for theta, axis in ((1.0, [0, 0, 1]), (2.0, [1, 0, 0])):
            sc = Scenario.from_reduced(
                theta=theta,
                zeta=0.0,
                parity=Parity.SYMMETRIC,
                field_kind=FieldKind.EM,
                dipole_a=axis,
                dipole_b=axis,
            )
            closed = em_resonance_energy(sc).reduced
            assert em_energy_pv_oracle(sc, spec) == pytest.approx(closed, rel=1e-12, abs=0.0)

    def test_matches_closed_form_pointwise(self):
        sc = Scenario.from_reduced(
            theta=1.0,
            zeta=1.0,
            parity=Parity.SYMMETRIC,
            field_kind=FieldKind.EM,
            dipole_a=[1, 0, 0],
            dipole_b=[0, 0, 1],
        )
        closed = em_resonance_energy(sc).reduced
        pv = em_energy_pv_oracle(sc)
        assert pv == pytest.approx(closed, rel=1e-8)

    @pytest.mark.parametrize("zero", ["dipole_a", "dipole_b"])
    def test_zero_dipole_raises_domain_error(self, zero):
        dipoles = {"dipole_a": [0.0, 0.0, 1.0], "dipole_b": [1.0, 0.0, 0.0], zero: [0, 0, 0]}
        sc = Scenario.from_reduced(
            theta=1.0, zeta=1.0, parity=Parity.SYMMETRIC, field_kind=FieldKind.EM, **dipoles
        )
        with pytest.raises(DomainError, match=f"{zero} must be a nonzero vector"):
            em_energy_pv_oracle(sc)

    def test_small_grid_suite(self):
        rep = em_pv_suite(thetas=(0.5, 2.0), zetas=(0.1, 10.0))
        assert rep.passed
        ids = {c.check_id for c in rep.checks}
        assert "em-pv/dipoles=xz/theta=2/zeta=10/parity=anti" in ids
        assert not any("calibration" in i for i in ids)
        # 2 thetas x 2 zetas x 2 parities x 4 dipole configs
        assert rep.n_passed == len(rep.checks) == 32

    def test_detects_scaled_closed_form(self, monkeypatch):
        # An overall normalization error in the closed form must fail
        # every check: the oracle's constant is not fitted to it.
        true_components = em_module.em_reduced_components

        def scaled(*args):
            return tuple(1.02 * c for c in true_components(*args))

        monkeypatch.setattr(em_module, "em_reduced_components", scaled)
        rep = em_pv_suite(thetas=(0.5, 2.0), zetas=(0.1, 10.0))
        assert rep.n_passed == 0
        assert len(rep.checks) == 32

    def test_detects_perturbed_spectral_density(self, monkeypatch):
        # Perturb one coefficient family; the grid checks must notice.
        spec = QuadratureSpec()
        true_coeffs = oracle_module.em_spectral_coefficients

        def tweaked(geom):
            coeff = true_coeffs(geom)
            return replace(coeff, g0=coeff.g0 * 1.02)

        monkeypatch.setattr(oracle_module, "em_spectral_coefficients", tweaked)
        rep = em_pv_suite(spec, thetas=(1.0,), zetas=(1.0,), dipole_configs=(("z", "z"),))
        assert not rep.passed


class TestCommutatorConsistency:
    def test_agreeing_components(self):
        rep = em_commutator_consistency(unit_commutator_geometry())
        assert commutator_agreeing_components(rep) == ("xx", "yy", "zz")

    def test_summary_structure(self):
        rep = em_commutator_consistency(unit_commutator_geometry())
        by_id = {c.check_id: c for c in rep.checks}
        for comp in ("xx", "yy", "zz"):
            assert by_id[f"em-commutator/summary/comp={comp}"].passed
        for comp in ("xz", "zx"):
            summary = by_id[f"em-commutator/summary/comp={comp}"]
            assert not summary.passed
            assert "first failing u" in summary.note
        assert not by_id["em-commutator/summary/overall"].passed

    def test_equal_time_support_check(self):
        rep = em_commutator_consistency(unit_commutator_geometry())
        zero_u = [c for c in rep.checks if "/u=+0.00S/" in c.check_id]
        assert len(zero_u) == 5
        assert all(c.passed for c in zero_u)
        assert all(c.computed == 0.0 for c in zero_u)

    def test_detects_perturbed_spectral_density(self, monkeypatch):
        # Perturb the omega**2 family, which dominates near the cone.
        true_coeffs = oracle_module.em_spectral_coefficients

        def tweaked(geom):
            coeff = true_coeffs(geom)
            return replace(coeff, g2=coeff.g2 * 1.02)

        monkeypatch.setattr(oracle_module, "em_spectral_coefficients", tweaked)
        rep = em_commutator_consistency(unit_commutator_geometry())
        assert commutator_agreeing_components(rep) == ()

    def test_rejects_inertial_geometry(self):
        with pytest.raises(DomainError):
            em_commutator_consistency(reduced_geometry(0.0, 1.0, C))


class TestAsymptoteReport:
    def test_all_checks_pass(self):
        rep = asymptote_convergence_report()
        assert rep.passed, rep.summary()
        ids = {c.check_id for c in rep.checks}
        assert "asymptote/scalar/near-zone-slope" in ids
        assert "asymptote/scalar/far-zone-slope" in ids
        assert "asymptote/em/far-zone-slope/axis=x" in ids
        assert any("far-zone-ratio" in i for i in ids)


class TestRunSuites:
    def test_selected_suites(self):
        out = oracle_module.run_suites(["scalar-pv", "asymptotes"])
        assert set(out) == {"scalar-pv", "asymptotes"}
        assert out["scalar-pv"].passed
        assert out["asymptotes"].passed

    def test_unknown_suite(self):
        with pytest.raises(DomainError):
            oracle_module.run_suites(["banana"])
