"""Cross checks of the closed forms against their numerical oracles.

The oracle recomputes each shift from the frequency integral with the
pole handled by principal value, so these tests exercise a different
code path than the closed forms they compare against.
"""

import csv
import dataclasses
import io
import re

import pytest

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
    em_farzone_asymptote,
    em_potential_tensors,
    em_resonance_energy,
    reduced_geometry,
    scalar_energy_pv_oracle,
    scalar_farzone_asymptote,
    scalar_pv_suite,
    scalar_resonance_energy,
    scenario_geometry,
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


class TestDefaultGrids:
    # 7 theta x 7 zeta x 2 parities, and for the EM field each of the
    # four dipole configs, in the check id formats of the CLI output.
    THETAS = ("0.1", "0.5", "1", "2", "5", "20", "100")
    ZETAS = ("0.001", "0.01", "0.1", "1", "10", "100", "1000")

    def grid(self, head):
        return sorted(
            f"{head}/theta={theta}/zeta={zeta}/parity={parity}"
            for theta in self.THETAS
            for zeta in self.ZETAS
            for parity in ("sym", "anti")
        )

    def test_scalar_pv_suite(self):
        rep = scalar_pv_suite()
        assert [c.check_id for c in rep.checks] == self.grid("scalar-pv")
        assert rep.n_passed == len(rep.checks) == 98

    def test_em_pv_suite(self):
        rep = em_pv_suite()
        expected = sorted(
            check_id
            for pair in ("zz", "xx", "yy", "xz")
            for check_id in self.grid(f"em-pv/dipoles={pair}")
        )
        assert [c.check_id for c in rep.checks] == expected
        assert rep.n_passed == len(rep.checks) == 392


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
        # every check: the oracle's constant is not fitted to it.  The
        # suite reads the closed form through oracle.em_resonance_energy.
        true_energy = oracle_module.em_resonance_energy

        def scaled(scenario):
            shift = true_energy(scenario)
            reduced = 1.02 * shift.reduced
            return dataclasses.replace(
                shift, reduced=reduced, si_value=shift.prefactor * reduced
            )

        monkeypatch.setattr(oracle_module, "em_resonance_energy", scaled)
        rep = em_pv_suite(thetas=(0.5, 2.0), zetas=(0.1, 10.0))
        assert rep.n_passed == 0
        assert len(rep.checks) == 32

    @pytest.mark.xfail(
        strict=True,
        reason="known defect: at large zeta the PV pieces cancel to far below their "
        "own size and the oracle returns a wrong number without an error",
    )
    @pytest.mark.parametrize(
        "theta,zeta,dipole_a,dipole_b",
        [(1.0 / 3.0, 1e17, (0.0, 1.0, 0.0), (0.0, 1.0, 0.0)),
         (1.0, 1e20, (1.0, 0.0, 0.0), (0.0, 0.0, 1.0))],
        ids=["yy-theta=1/3-zeta=1e17", "xz-theta=1-zeta=1e20"],
    )
    def test_matches_closed_form_at_large_zeta(self, theta, zeta, dipole_a, dipole_b):
        # The oracle reads 2.12e-16 against 8.74e-17 (yy) and -5.75e-36
        # against -8.85e-39 (xz); em_pv_suite passes the second, since its
        # relative error divides by max(|closed form|, 1e-12).
        sc = Scenario.from_reduced(
            theta=theta, zeta=zeta, parity=Parity.SYMMETRIC, field_kind=FieldKind.EM,
            dipole_a=dipole_a, dipole_b=dipole_b,
        )
        closed = em_resonance_energy(sc).reduced
        assert em_energy_pv_oracle(sc) == pytest.approx(closed, rel=1e-6, abs=0.0)

    @pytest.mark.parametrize(
        "config", [("x", "w"), ("X", "Z"), ("xyz",), (1, 2)], ids=["xw", "XZ", "xyz", "ints"]
    )
    def test_refuses_a_config_that_is_not_two_axis_letters(self, config):
        with pytest.raises(DomainError, match=rf"dipole config .* got {re.escape(repr(config))}$"):
            em_pv_suite(thetas=(1.0,), zetas=(1.0,), dipole_configs=(config,))

    def test_one_shot_grids_serve_every_config(self):
        # Iterators, not sequences: each config gets the whole grid.
        rep = em_pv_suite(
            thetas=iter([1.0]), zetas=iter([1.0]), parities=iter([Parity.SYMMETRIC])
        )
        assert [c.check_id for c in rep.checks] == [
            f"em-pv/dipoles={pair}/theta=1/zeta=1/parity=sym" for pair in ("xx", "xz", "yy", "zz")
        ]

    def test_detects_perturbed_spectral_density(self, monkeypatch):
        # Perturb one coefficient family; the grid checks must notice.
        spec = QuadratureSpec()
        tweaked = _scaled_families(oracle_module._spectral_entries, {"g0": 1.02})
        monkeypatch.setattr(oracle_module, "_spectral_entries", tweaked)
        rep = em_pv_suite(spec, thetas=(1.0,), zetas=(1.0,), dipole_configs=(("z", "z"),))
        assert not rep.passed


_COMPONENTS = ("xx", "xz", "yy", "zx", "zz")
# Laurent order at u = S that each spectral coefficient family weighs.
_FAMILY_ORDERS = {"g0": -1, "g0_nd": -1, "f1": -2, "f1_nd": -2, "g2": -3, "g2_nd": -3}


def _scaled_families(true_entries, factors):
    """``true_entries`` with each named family scaled: f1, g0 or g2 on the
    diagonal, f1_nd, g0_nd or g2_nd its xz entry."""

    def tweaked(zeta):
        entries = [list(family) for family in true_entries(zeta)]
        for family, factor in factors.items():
            row = entries[("f1", "g0", "g2").index(family[:2])]
            for k in (3,) if family.endswith("_nd") else (0, 1, 2):
                row[k] *= factor
        return tuple(tuple(row) for row in entries)

    return tweaked


def _pair_checks(report):
    return [c for c in report.checks if "/summary/" not in c.check_id]


def _component(check):
    return check.check_id.split("/")[1][len("comp="):]


class TestCommutatorConsistency:
    def test_agreeing_components(self):
        rep = em_commutator_consistency(unit_commutator_geometry())
        assert rep.passed
        assert commutator_agreeing_components(rep) == _COMPONENTS

    def test_summary_structure(self):
        rep = em_commutator_consistency(unit_commutator_geometry())
        by_id = {c.check_id: c for c in rep.checks}
        assert {c.check_id for c in _pair_checks(rep)} == {
            f"em-commutator/comp={comp}/u=+1.00S/order={order}"
            for comp in _COMPONENTS
            for order in (-1, -2, -3)
        }
        for comp in _COMPONENTS:
            summary = by_id[f"em-commutator/summary/comp={comp}"]
            assert summary.passed
            assert summary.note == "all orders agree"
        overall = by_id["em-commutator/summary/overall"]
        assert overall.passed and overall.computed == 1.0
        assert all(c.tolerance == 1e-8 for c in _pair_checks(rep))

    def test_identities_hold_across_zeta(self):
        # The three Laurent identities at 25 log-spaced zeta in [1e-3, 1e3],
        # at 1e-8 and 1e-6, and at a = 0.
        worst = 0.0
        for zeta in [10.0 ** (-3.0 + 0.25 * k) for k in range(25)] + [1e-8, 1e-6, 0.0]:
            rep = em_commutator_consistency(reduced_geometry(2.0 * C * C * zeta, 1.0, C))
            worst = max(worst, max(c.rel_error for c in _pair_checks(rep)))
        assert worst <= 1e-9

    def test_identities_hold_at_zeta_2e3(self):
        # The documented range: the check holds for zeta up to at least 2e3.
        rep = em_commutator_consistency(reduced_geometry(2.0 * C * C * 2e3, 1.0, C))
        assert rep.passed

    @pytest.mark.xfail(
        strict=True,
        reason="known defect: from zeta ~ 3e3 the float correlation tensor loses digits "
        "near the pole; yy and zz miss 1e-8 at order -1, failing 5 of 21 checks",
    )
    def test_identities_hold_at_zeta_1e4(self):
        rep = em_commutator_consistency(reduced_geometry(2.0 * C * C * 1e4, 1.0, C))
        assert rep.passed

    def test_detects_perturbed_spectral_density(self, monkeypatch):
        # A 2% error in any one family fails exactly the checks of its
        # order where that family is nonzero.
        true_entries = oracle_module._spectral_entries
        for family, order in _FAMILY_ORDERS.items():
            tweaked = _scaled_families(true_entries, {family: 1.02})
            monkeypatch.setattr(oracle_module, "_spectral_entries", tweaked)
            rep = em_commutator_consistency(unit_commutator_geometry())
            assert not rep.passed, family
            perturbed = {"xz", "zx"} if family.endswith("_nd") else {"xx", "yy", "zz"}
            for c in _pair_checks(rep):
                expect_fail = c.check_id.endswith(f"/order={order}") and _component(c) in perturbed
                assert c.passed != expect_fail, (family, c.check_id)

    @pytest.mark.parametrize(
        "entry,factor,perturbed",
        [(1, 1.02, {"yy"}), (3, -1.0, {"xz", "zx"})],
        ids=["yy-scaled", "xz-flipped"],
    )
    def test_detects_perturbed_correlation_tensor(self, monkeypatch, entry, factor, perturbed):
        # The time side: a 2% error in the yy entry of G, or a flipped xz
        # sign, fails exactly the pair checks of those components, at
        # every order.
        true_kernel = oracle_module._wightman_kernel

        def tweaked(w, geom):
            entries = list(true_kernel(w, geom))
            entries[entry] *= factor
            return tuple(entries)

        monkeypatch.setattr(oracle_module, "_wightman_kernel", tweaked)
        rep = em_commutator_consistency(unit_commutator_geometry())
        failing = {(_component(c), c.check_id[-2:]) for c in _pair_checks(rep) if not c.passed}
        assert failing == {(comp, order) for comp in perturbed for order in ("-1", "-2", "-3")}

    def test_evaluates_the_correlation_tensor_once_per_node(self, monkeypatch):
        # G is even in w, so the crossing at -S needs no evaluation of
        # its own: one call per contour node.
        true_kernel = oracle_module._wightman_kernel
        calls = []

        def counted(w, *args):
            calls.append(w)
            return true_kernel(w, *args)

        monkeypatch.setattr(oracle_module, "_wightman_kernel", counted)
        rep = em_commutator_consistency(unit_commutator_geometry())
        assert rep.passed
        assert len(calls) == oracle_module._CIRCLE_NODES == 32

    def test_detects_flipped_cross_sign(self, monkeypatch):
        # The sign error once carried by the sin(omega*S) cross families.
        flipped = _scaled_families(oracle_module._spectral_entries, {"g0_nd": -1.0, "g2_nd": -1.0})
        monkeypatch.setattr(oracle_module, "_spectral_entries", flipped)
        rep = em_commutator_consistency(unit_commutator_geometry())
        assert commutator_agreeing_components(rep) == ("xx", "yy", "zz")
        failing = {(_component(c), c.check_id[-2:]) for c in _pair_checks(rep) if not c.passed}
        assert failing == {("xz", "-1"), ("xz", "-3"), ("zx", "-1"), ("zx", "-3")}
        by_id = {c.check_id: c for c in rep.checks}
        assert "first failing u" in by_id["em-commutator/summary/comp=xz"].note


_DIPOLE_AXES = (
    ((0.0, 0.0, 1e-30), (0.0, 0.0, 1e-30)),
    ((1e-30, 0.0, 0.0), (1e-30, 0.0, 0.0)),
    ((0.0, 1e-30, 0.0), (0.0, 1e-30, 0.0)),
    ((1e-30, 0.0, 0.0), (0.0, 0.0, 1e-30)),
)


@pytest.mark.parametrize("separation", [1e-200, 1e-120, 1.0, 1e120, 1e200])
def test_oracles_match_at_every_separation(separation):
    # The densities live in v = omega/omega0, so no SI scale enters the
    # integral.  EM points whose closed-form SI shift overflows (dipoles
    # of 1e-30 C m at 1e-200 m) are skipped.
    for theta in (0.5, 5.0):
        for zeta in (0.1, 0.5, 10.0):
            scalar = Scenario.from_reduced(
                theta=theta, zeta=zeta, parity=Parity.ANTISYMMETRIC, separation=separation
            )
            reference = scalar_resonance_energy(scalar).reduced
            assert scalar_energy_pv_oracle(scalar) == pytest.approx(reference, rel=1e-12)
            for axes in _DIPOLE_AXES:
                em = Scenario.from_reduced(
                    theta=theta, zeta=zeta, parity=Parity.SYMMETRIC, separation=separation,
                    field_kind=FieldKind.EM, dipole_a=axes[0], dipole_b=axes[1],
                )
                try:
                    reference = em_resonance_energy(em).reduced
                except DomainError:
                    assert separation == 1e-200
                    continue
                assert em_energy_pv_oracle(em) == pytest.approx(reference, rel=1e-12)


@pytest.mark.parametrize(
    "theta,zeta,omega0_shown",
    [(5e-324, 1e290, r"1\.48\d*e-315"), (0.0, 1.0, r"0\.0")],
    ids=["phase-underflows", "omega0-zero"],
)
def test_pv_oracles_refuse_a_phase_that_is_not_positive(theta, zeta, omega0_shown):
    # At theta = 5e-324, zeta = 1e290 omega0 is 1.48e-315 > 0, but the
    # phase omega0*S underflows to 0: the refusal names both.
    scalar = Scenario.from_reduced(theta=theta, zeta=zeta, parity=Parity.SYMMETRIC)
    em = Scenario.from_reduced(
        theta=theta, zeta=zeta, parity=Parity.SYMMETRIC,
        field_kind=FieldKind.EM, dipole_a=[1, 0, 0], dipole_b=[0, 0, 1],
    )
    message = rf"positive phase omega0\*S, got 0\.0 at omega0 = {omega0_shown}$"
    for oracle, scenario in ((scalar_energy_pv_oracle, scalar), (em_energy_pv_oracle, em)):
        with pytest.raises(DomainError, match=message):
            oracle(scenario)


class TestAsymptoteReport:
    def test_all_checks_pass(self):
        rep = asymptote_convergence_report()
        assert rep.passed, rep.summary()
        ids = {c.check_id for c in rep.checks}
        assert "asymptote/scalar/near-zone-slope" in ids
        assert "asymptote/scalar/far-zone-slope" in ids
        assert "asymptote/em/far-zone-slope/axis=x" in ids
        assert "asymptote/em/far-zone-slope/pair=xz" in ids
        assert "asymptote/em/far-zone-ratio/pair=xz" in ids
        assert any("far-zone-ratio" in i for i in ids)

    def test_tolerance_is_applied_to_every_check(self):
        rep = asymptote_convergence_report(tolerance=1e-5)
        assert len(rep.checks) == 13
        assert {c.tolerance for c in rep.checks} == {1e-5}
        assert all(c.passed == (c.rel_error <= 1e-5) for c in rep.checks)
        assert not rep.passed  # slopes fitted over a few points miss 1e-5


class TestFieldCase:
    def test_scalar_field_at_unit_coupling(self):
        fields, energy, asymptote = oracle_module._field_case(None)
        assert fields == {"field_kind": FieldKind.SCALAR, "coupling": 1.0}
        assert (energy, asymptote) == (scalar_resonance_energy, scalar_farzone_asymptote)

    @pytest.mark.parametrize("pair", [a + b for a in "xyz" for b in "xyz"])
    def test_axis_pair_reads_its_tensor_entry(self, pair):
        # dipole_a lies along the first axis, so the shift is the pair's
        # entry of z**3*(V + W): zx = -xz, and xy, yx, yz, zy vanish.
        fields, energy, asymptote = oracle_module._field_case(pair)
        assert fields["field_kind"] is FieldKind.EM
        assert fields["dipole_a"] == oracle_module._AXIS_VECTORS[pair[0]]
        assert fields["dipole_b"] == oracle_module._AXIS_VECTORS[pair[1]]
        assert (energy, asymptote) == (em_resonance_energy, em_farzone_asymptote)
        scn = Scenario.from_reduced(theta=2.0, zeta=3.0, parity=Parity.SYMMETRIC, **fields)
        entry = em_potential_tensors(scenario_geometry(scn)).reduced[pair[0], pair[1]]
        assert energy(scn).reduced == entry
        assert (entry == 0.0) == (pair in ("xy", "yx", "yz", "zy"))


class TestAgreementCheck:
    @pytest.mark.parametrize("total", [3, 15])
    def test_passes_iff_nine_tenths_agree(self, total):
        # The summaries see k/3 (one component) and k/15 (all pairs).
        for agreeing in range(total + 1):
            outcomes = [True] * agreeing + [False] * (total - agreeing)
            check = oracle_module._agreement_check("id", outcomes, "")
            assert check.passed == (agreeing / total >= 0.9)
            assert check.tolerance == 0.1


class TestRunSuites:
    def test_tolerance_reaches_commutator_and_asymptote_checks(self):
        out = oracle_module.run_suites(["em-commutator", "asymptotes"], tolerance=1e-4)
        assert list(out) == ["em-commutator", "asymptotes"]
        pairs = [c for c in out["em-commutator"].checks if "/summary/" not in c.check_id]
        assert len(pairs) == 15
        assert {c.tolerance for c in pairs} == {1e-4}
        assert all(c.passed == (c.rel_error <= 1e-4) for c in pairs)
        assert out["em-commutator"].passed
        summaries = [c for c in out["em-commutator"].checks if "/summary/" in c.check_id]
        assert {c.tolerance for c in summaries} == {0.1}
        asymptotes = out["asymptotes"].checks
        assert {c.tolerance for c in asymptotes} == {1e-4}
        assert all(c.passed == (c.rel_error <= 1e-4) for c in asymptotes)

    def test_selected_suites(self):
        out = oracle_module.run_suites(["scalar-pv", "asymptotes"])
        assert set(out) == {"scalar-pv", "asymptotes"}
        assert out["scalar-pv"].passed
        assert out["asymptotes"].passed

    def test_unknown_suite(self):
        with pytest.raises(DomainError):
            oracle_module.run_suites(["banana"])
