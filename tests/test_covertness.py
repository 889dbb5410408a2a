"""Relative-entropy covertness measures and photon budgets."""

from __future__ import annotations

import functools
import json
import math
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covertsense import covertness, gaussian
from covertsense.covertness import (
    TaylorCoefficients,
    covert_budget,
    equal_bath_c2,
    equal_bath_c3,
    equal_bath_qre,
    qre_gaussian,
    taylor_coefficients,
    willie_error_lower_bound,
    willie_qre,
)
from covertsense.errors import (
    DegenerateCovertnessError,
    DomainError,
    InfiniteQreError,
    PhysicalityError,
)
from covertsense.gaussian import CovarianceMatrix, thermal_cm, vacuum_cm
from covertsense.scenario import SensingScenario, willie_cm

REFERENCE = SensingScenario(0.5, 0.5, 1.0, 1.0)  # eta_eff 1/4, nb_eff 1

#: c2 and c3 at 43 operating points, from a 60-digit evaluation of the QRE
#: (written by ``data/taylor_reference_gen.py``).
PINNED = json.loads(
    (Path(__file__).parent / "data" / "taylor_reference.json").read_text()
)["points"]

#: D(nbar_s) at the snapshot's ``scenario`` points, at hot baths and in the
#: kernel's hard regions, from a 400-digit evaluation (written by
#: ``data/qre_reference_gen.py``).
QRE_PINNED = json.loads(
    (Path(__file__).parent / "data" / "qre_reference.json").read_text()
)["points"]


@pytest.mark.parametrize("name", ["taylor_reference", "qre_reference"])
def test_pinned_reference_is_its_generators_output(name):
    # Each generator in its own interpreter: each sets mpmath's working
    # precision when it is imported.
    data = Path(__file__).parent / "data"
    render = f"import sys, {name}_gen as g; sys.stdout.write(g.render())"
    result = subprocess.run(
        [sys.executable, "-c", render],
        capture_output=True,
        text=True,
        cwd=data,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == (data / f"{name}.json").read_text()


def _stencil_coefficients(scenario: SensingScenario) -> tuple[float, float]:
    """(c2, c3) by central differences of the QRE evaluator, a reference route.

    Independent of the closed form in ``taylor_coefficients``: eight QRE
    evaluations at +-h, +-h/2, +-h/4, +-h/8 with
    h = min(1e-3 max(1, nbar_b_eff), 0.05 lambda_lo), and two Richardson
    levels on the even-power error series of each central stencil.  The
    private kernel accepts the negative steps while N1 stays positive
    definite.  It loses accuracy as eta_eff -> 1 with a weak bath, where
    the probe's effect falls below the resolution of the QRE evaluator.
    """
    lambda_lo = covertness._occupation_split(scenario)[1]
    h = min(1e-3 * max(1.0, scenario.nbar_b_eff), 0.05 * lambda_lo)
    qre = functools.cache(lambda x: covertness._adversary_qre(scenario, x))

    def richardson(a_h, a_h2, a_h4):
        r1_h, r1_h2 = (4.0 * a_h2 - a_h) / 3.0, (4.0 * a_h4 - a_h2) / 3.0
        return (16.0 * r1_h2 - r1_h) / 15.0

    def second(hh):
        return (qre(hh) + qre(-hh)) / (hh * hh)

    def third(hh):
        return (qre(2 * hh) - 2 * qre(hh) + 2 * qre(-hh) - qre(-2 * hh)) / (2 * hh**3)

    return (
        richardson(second(h), second(h / 2), second(h / 4)),
        richardson(third(h / 2), third(h / 4), third(h / 8)),
    )


class TestQreGaussian:
    def test_self_distance_zero(self):
        cm = willie_cm(REFERENCE, 0.07, 0.3)
        assert abs(qre_gaussian(cm, cm)) <= 1e-10

    def test_thermal_pair_closed_form(self):
        # D(th(n0) || th(n1)) = -n0 log1p(dn/n0) + (n0+1) log1p(dn/(n0+1))
        n0, n1 = 0.4, 1.1
        want = -n0 * math.log1p((n1 - n0) / n0) + (n0 + 1) * math.log1p(
            (n1 - n0) / (n0 + 1)
        )
        got = qre_gaussian(thermal_cm([n0]), thermal_cm([n1]))
        assert got == pytest.approx(want, rel=1e-12)

    def test_vacuum_vs_unit_thermal(self):
        got = qre_gaussian(vacuum_cm(1), thermal_cm([1.0]))
        assert got == pytest.approx(math.log(2.0), rel=1e-12)

    def test_additivity_over_modes(self):
        one = qre_gaussian(thermal_cm([0.2]), thermal_cm([0.9]))
        two = qre_gaussian(thermal_cm([0.2, 0.2]), thermal_cm([0.9, 0.9]))
        assert two == pytest.approx(2.0 * one, rel=1e-12)

    def test_diverges_onto_pure_state(self):
        with pytest.raises(InfiniteQreError):
            qre_gaussian(thermal_cm([1.0]), vacuum_cm(1))

    def test_asymmetry(self):
        a, b = thermal_cm([0.3]), thermal_cm([2.0])
        assert qre_gaussian(a, b) != pytest.approx(qre_gaussian(b, a), rel=1e-3)

    def test_mode_count_mismatch(self):
        with pytest.raises(ValueError):
            qre_gaussian(vacuum_cm(1), vacuum_cm(2))

    def test_one_normal_form_per_state(self, monkeypatch):
        # Physicality is read off the two spectra the QRE needs anyway.
        calls = []
        real = gaussian._generic_normal_form

        def counting(v):
            calls.append(v)
            return real(v)

        monkeypatch.setattr(gaussian, "_generic_normal_form", counting)
        qre_gaussian(willie_cm(REFERENCE, 0.0, 0.3), willie_cm(REFERENCE, 0.05, 0.3))
        assert len(calls) == 2

    @pytest.mark.parametrize("bad_first", [True, False], ids=["cm_0", "cm_1"])
    def test_unphysical_state_refused(self, bad_first):
        # Positive definite but below the vacuum: the same refusal as
        # require_physical gives.
        bad = CovarianceMatrix.from_array(0.2 * np.eye(2))
        with pytest.raises(PhysicalityError) as direct:
            bad.require_physical()
        pair = (bad, thermal_cm([0.5])) if bad_first else (thermal_cm([0.5]), bad)
        with pytest.raises(PhysicalityError) as via_qre:
            qre_gaussian(*pair)
        assert str(via_qre.value) == str(direct.value)


class TestWillieQre:
    def test_matches_direct_route(self):
        ns = 0.03
        direct = qre_gaussian(
            willie_cm(REFERENCE, 0.0, 0.0), willie_cm(REFERENCE, ns, 0.0)
        )
        assert willie_qre(REFERENCE, ns) == pytest.approx(direct, rel=1e-9)

    def test_matches_direct_route_on_unequal_baths(self):
        scenario = SensingScenario(0.65, 0.85, 0.4, 1.7)
        ns = 0.05
        direct = qre_gaussian(
            willie_cm(scenario, 0.0, 0.0), willie_cm(scenario, ns, 0.0)
        )
        assert willie_qre(scenario, ns) == pytest.approx(direct, rel=1e-9)

    def test_axis_reversal_regression(self):
        # When nbar_s exceeds an equal bath, the adversary state's principal
        # axes swap; the normal-delta route must track the reversal.  This
        # pinned a real defect: the aligned-branch formula returned dd = 0
        # at the swap, giving D = 0.02104 instead of 0.02700.
        eta = 0.6
        scenario = SensingScenario(math.sqrt(eta), math.sqrt(eta), 0.01, 0.01)
        got = willie_qre(scenario, 0.1)
        assert got == pytest.approx(equal_bath_qre(eta, 0.01, 0.1), abs=1e-12)
        direct = qre_gaussian(
            willie_cm(scenario, 0.0, 0.0), willie_cm(scenario, 0.1, 0.0)
        )
        assert got == pytest.approx(direct, rel=1e-9)

    def test_theta_invariance_against_direct_route(self):
        # The interrogation phase sits inside the channel, so BOTH
        # hypothesis states carry it; with matched frames the divergence
        # is phase-independent (the phase acts as one local rotation).
        for theta in (0.0, 0.7, -2.1):
            direct = qre_gaussian(
                willie_cm(REFERENCE, 0.0, theta), willie_cm(REFERENCE, 0.05, theta)
            )
            assert willie_qre(REFERENCE, 0.05) == pytest.approx(direct, rel=1e-9)

    def test_zero_signal_zero_qre(self):
        assert willie_qre(REFERENCE, 0.0) == 0.0

    def test_negative_signal_rejected(self):
        with pytest.raises(ValueError):
            willie_qre(REFERENCE, -0.01)

    @pytest.mark.parametrize("nbar_s", [math.nan, math.inf])
    def test_non_finite_signal_refused(self, nbar_s):
        # Unrefused, both give a QRE of nan.
        with pytest.raises(ValueError, match="^nbar_s must be non-negative and finite"):
            willie_qre(REFERENCE, nbar_s)

    @given(ns=st.floats(1e-6, 0.5))
    @settings(max_examples=50)
    def test_nonnegative(self, ns):
        assert willie_qre(REFERENCE, ns) >= 0.0

    @pytest.mark.parametrize(
        "point", QRE_PINNED,
        ids=[f"{p['kind']}-{i:02d}" for i, p in enumerate(QRE_PINNED)],
    )
    def test_pinned_to_high_precision(self, point):
        # Every term of the beta-sum is >= 0 and each beta is formed from
        # its shift, so D keeps its digits where the entropies are 1e20 or
        # more times larger.  The symplectic-difference route it replaced
        # refused the huge unequal baths as unphysical, hung at the
        # 1.6e257 bath, and was off by 1e-8 at the near-identity taps and
        # 7e-8 at the axis swap of 1e-6 baths.
        scenario = SensingScenario(
            point["eta_1"], point["eta_2"], point["nbar_b1"], point["nbar_b2"]
        )
        got = willie_qre(scenario, point["nbar_s"])
        assert got == pytest.approx(float(point["qre"]), rel=1e-13, abs=0.0)

    def test_pinned_points_cover_the_hard_regions(self):
        kinds = [point["kind"] for point in QRE_PINNED]
        for kind, count in (("huge-unequal", 6), ("near-identity", 5),
                            ("coincident", 5), ("axis-swap", 4),
                            ("signal-range", 6)):
            assert kinds.count(kind) >= count, kind
        pinned = {
            (p["eta_1"], p["eta_2"], p["nbar_b1"], p["nbar_b2"]) for p in QRE_PINNED
        }
        # The scenario points that were refused as unphysical or hung.
        for point in ((0.5, 0.5, 1e150, 1e-3), (0.5, 0.5, 1e-3, 1e150),
                      (0.5334174698756897, 0.15001482548447453,
                       1.5986714685956394e+257, 6.630365349470693e+130)):
            assert point in pinned
        signals = [(p["nbar_s"], max(p["nbar_b1"], p["nbar_b2"]))
                   for p in QRE_PINNED if p["kind"] == "signal-range"]
        assert min(ns for ns, _ in signals) <= 1e-12
        assert max(ns / nb for ns, nb in signals) >= 1e3

    def test_vacuum_baths(self):
        # N0 = 0: D = log1p(nbar_s |p|^2), |p|^2 = 1 - eta_eff, the equal-bath
        # closed form at n0 = 0.  The symplectic route divided by zero here.
        scenario = SensingScenario(0.5, 0.5, 0.0, 0.0)
        got = willie_qre(scenario, 0.1)
        assert got == pytest.approx(math.log1p(0.75 * 0.1), rel=1e-15)
        assert got == pytest.approx(equal_bath_qre(0.25, 0.0, 0.1), rel=1e-15)

    @given(
        e1=st.floats(0.05, 0.95),
        e2=st.floats(0.05, 0.95),
        b1=st.floats(1e-2, 10.0),
        b2=st.floats(1e-2, 10.0),
        ns=st.floats(1e-2, 1.0),
    )
    @settings(max_examples=60)
    def test_matches_direct_route_over_scenarios(self, e1, e2, b1, b2, ns):
        scenario = SensingScenario(e1, e2, b1, b2)
        direct = qre_gaussian(
            willie_cm(scenario, 0.0, 0.3), willie_cm(scenario, ns, 0.3)
        )
        assert willie_qre(scenario, ns) == pytest.approx(direct, rel=1e-9)

    def test_kernel_takes_negative_signal_while_physical(self):
        # The stencil reference steps to -h: N1 = N0 - h p p^T stays positive
        # definite for h < lambda_lo / |p|^2 (= 1/3 here, p along e_lo).
        got = covertness._adversary_qre(REFERENCE, -0.1)
        assert got == pytest.approx(
            -0.25 * math.log1p(-0.075 / 0.25) + 1.25 * math.log1p(-0.075 / 1.25),
            rel=1e-14,
        )
        with pytest.raises(DomainError, match="unphysical"):
            covertness._adversary_qre(REFERENCE, -0.5)


class TestEqualBathClosedForms:
    def test_qre_validation(self):
        with pytest.raises(ValueError):
            equal_bath_qre(1.5, 1.0, 0.1)
        with pytest.raises(ValueError):
            equal_bath_qre(0.5, -1.0, 0.1)

    @pytest.mark.parametrize(
        "closed_form,args,named",
        [
            (equal_bath_c2, (1.5, 1.0), "eta_eff"),
            (equal_bath_c3, (1.5, 1.0), "eta_eff"),
            (equal_bath_c2, (-0.5, -1.0), "eta_eff"),
            (equal_bath_c3, (-0.5, -1.0), "eta_eff"),
            (equal_bath_c2, (0.5, -1.0), "nbar_b"),
            (equal_bath_c2, (0.5, math.nan), "nbar_b"),
            (equal_bath_c3, (0.5, math.nan), "nbar_b"),
            (equal_bath_c2, (0.5, math.inf), "nbar_b"),
            (equal_bath_c3, (0.5, math.inf), "nbar_b"),
            (equal_bath_qre, (0.5, math.nan, 0.1), "nbar_b"),
            (equal_bath_qre, (0.5, math.inf, 0.1), "nbar_b"),
            (equal_bath_qre, (0.5, 1.0, math.nan), "nbar_s"),
        ],
    )
    def test_unphysical_input_refused(self, closed_form, args, named):
        with pytest.raises(ValueError, match=f"^{named} must"):
            closed_form(*args)

    def test_c2_golden(self):
        assert equal_bath_c2(0.25, 1.0) == pytest.approx(1.8, rel=1e-15)

    def test_c3_golden(self):
        assert equal_bath_c3(0.25, 1.0) == pytest.approx(-12.96, rel=1e-15)

    def test_degenerate_bath_rejected(self):
        with pytest.raises(DomainError):
            equal_bath_c2(0.5, 0.0)

    @given(
        eta=st.floats(0.05, 0.95),
        nb=st.floats(0.01, 10.0),
        ns=st.floats(1e-6, 0.05),
    )
    @settings(max_examples=60)
    def test_qre_taylor_consistency(self, eta, nb, ns):
        # D = c2 ns^2/2 + c3 ns^3/6 + O(ns^4) with an explicit quartic
        # remainder bound keeps this a two-sided check.
        d = equal_bath_qre(eta, nb, ns)
        c2, c3 = equal_bath_c2(eta, nb), equal_bath_c3(eta, nb)
        cubic = c2 * ns * ns / 2.0 + c3 * ns**3 / 6.0
        n0 = eta * nb
        quartic_scale = abs(c3) * (1.0 + 2.0 * n0) / (n0 * (1.0 + n0))
        assert abs(d - cubic) <= quartic_scale * ns**4 + 1e-15


class TestTaylorCoefficients:
    def test_matches_closed_forms_at_reference(self):
        coeffs = taylor_coefficients(REFERENCE)
        assert coeffs.c2 == pytest.approx(1.8, rel=1e-14)
        assert coeffs.c3 == pytest.approx(-12.96, rel=1e-14)

    @pytest.mark.parametrize(
        "point", PINNED, ids=[f"{i:02d}-{p['kind']}" for i, p in enumerate(PINNED)]
    )
    def test_matches_pinned_high_precision_values(self, point):
        scenario = SensingScenario(
            point["eta_1"], point["eta_2"], point["nbar_b1"], point["nbar_b2"]
        )
        coeffs = taylor_coefficients(scenario)
        assert coeffs.c2 == pytest.approx(float(point["c2"]), rel=1e-12)
        assert coeffs.c3 == pytest.approx(float(point["c3"]), rel=1e-12)

    def test_pinned_points_cover_the_hard_regions(self):
        kinds = [point["kind"] for point in PINNED]
        assert len(PINNED) >= 30
        for kind in ("random", "weak-bath", "near-identity", "coincident"):
            assert kinds.count(kind) >= 6, kind

    def test_unequal_baths_supported(self):
        # The quadratic term of the QRE itself, from the independent evaluator.
        scenario = SensingScenario(0.7, 0.9, 0.5, 2.0)
        c2 = taylor_coefficients(scenario).c2
        ns = 1e-4
        assert willie_qre(scenario, ns) == pytest.approx(c2 * ns * ns / 2.0, rel=1e-3)

    @given(
        e1=st.floats(0.05, 0.95),
        e2=st.floats(0.05, 0.95),
        b1=st.floats(1e-2, 10.0),
        b2=st.floats(1e-2, 10.0),
    )
    @settings(max_examples=60)
    def test_stencil_reference_agrees(self, e1, e2, b1, b2):
        scenario = SensingScenario(e1, e2, b1, b2)
        coeffs = taylor_coefficients(scenario)
        c2, c3 = _stencil_coefficients(scenario)
        assert c2 == pytest.approx(coeffs.c2, rel=1e-8)
        # The third difference's error scales with the QRE, not with c3,
        # which can be small (-6.2e-4 against c2 = 2.9e-3 at taps 0.94/0.875).
        assert c3 == pytest.approx(coeffs.c3, rel=1e-6, abs=1e-6 * coeffs.c2)

    def test_vacuum_bath_rejected(self):
        with pytest.raises(DomainError):
            taylor_coefficients(SensingScenario(0.5, 0.5, 0.0, 0.0))

    @pytest.mark.parametrize("one_minus_eta", [1e-5, 1e-7])
    def test_formerly_unresolved_c2_pinned(self, one_minus_eta):
        # Weak bath, eta_eff within 2e-5 of 1: the finite-difference stencil
        # returned c2 about 8e3 times too large here and was refused.  The
        # closed form is exact; both points are in the pinned table.
        eta = 1.0 - one_minus_eta
        (point,) = [
            p for p in PINNED
            if (p["eta_1"], p["eta_2"], p["nbar_b1"], p["nbar_b2"])
            == (eta, eta, 1e-9, 1e-9)
        ]
        coeffs = taylor_coefficients(SensingScenario(eta, eta, 1e-9, 1e-9))
        assert coeffs.c2 == pytest.approx(float(point["c2"]), rel=1e-12)
        assert coeffs.c3 == pytest.approx(float(point["c3"]), rel=1e-12)

    def test_c2_route_is_taylor_coefficients_bit_for_bit(self):
        # _taylor_c2, the c2 the link layer reads, against taylor_coefficients
        # over a seeded box: taps U[0.01, 0.99], baths 10^U[-6, 3], equal
        # baths in a third of the draws, and the identity-channel (both taps
        # 1) and vacuum (a bath 0) edges.  Both give the same c2 bits or the
        # same refusal.
        def outcome(route, scenario):
            try:
                return route(scenario)
            except Exception as exc:
                return type(exc), str(exc)

        rng = random.Random(40)
        kinds = Counter()
        for _ in range(24_000):
            taps = [rng.uniform(0.01, 0.99) for _ in range(2)]
            baths = [10.0 ** rng.uniform(-6.0, 3.0) for _ in range(2)]
            edge = rng.random()
            if edge < 1 / 3:
                baths[1] = baths[0]
            if rng.random() < 0.05:
                taps = [1.0, 1.0]
            if rng.random() < 0.05:
                baths[rng.randrange(2)] = 0.0
            if edge > 0.95:
                baths = [0.0, 0.0]
            scenario = SensingScenario(*taps, *baths)
            want = outcome(taylor_coefficients, scenario)
            got = outcome(covertness._taylor_c2, scenario)
            if isinstance(want, TaylorCoefficients):
                assert got[0] == want.c2, scenario
                kinds["c2"] += 1
            else:
                assert got == want, scenario
                kinds[want[0].__name__] += 1
        assert kinds["c2"] > 18_000, kinds
        assert kinds["DomainError"] > 500, kinds
        assert kinds["DegenerateCovertnessError"] > 500, kinds

    @pytest.mark.parametrize("one_minus_eta", [1e-4, 1e-6])
    def test_resolved_c2_near_unit_transmissivity(self, one_minus_eta):
        eta = 1.0 - one_minus_eta
        scenario = SensingScenario(eta, eta, 1e-5, 1e-5)
        want = equal_bath_c2(scenario.eta_eff, scenario.nbar_b_eff)
        assert taylor_coefficients(scenario).c2 == pytest.approx(want, rel=1e-7)


class TestCovertBudget:
    def test_budget_golden(self):
        budget = covert_budget(REFERENCE, 1e-3, 1e6)
        assert budget.nbar_s == pytest.approx(2.98142397e-06, rel=1e-7)
        # The budget is built for n = floor(num_modes).
        assert covert_budget(REFERENCE, 1e-3, 1e6 + 0.5) == budget
        assert budget.in_taylor_regime

    def test_budget_carries_both_taylor_coefficients(self):
        budget = covert_budget(REFERENCE, 1e-3, 1e6)
        coeffs = taylor_coefficients(REFERENCE)
        assert (budget.c2, budget.c3) == (coeffs.c2, coeffs.c3)

    def test_budget_scales_as_inverse_root_modes(self):
        small = covert_budget(REFERENCE, 1e-3, 1e4).nbar_s
        large = covert_budget(REFERENCE, 1e-3, 1e8).nbar_s
        assert small / large == pytest.approx(100.0, rel=1e-9)

    def test_budget_linear_in_epsilon(self):
        lo = covert_budget(REFERENCE, 1e-4, 1e6).nbar_s
        hi = covert_budget(REFERENCE, 1e-2, 1e6).nbar_s
        assert hi / lo == pytest.approx(100.0, rel=1e-9)

    def test_out_of_regime_flagged(self):
        with pytest.warns(UserWarning):
            budget = covert_budget(REFERENCE, 0.45, 4.0)
        assert not budget.in_taylor_regime

    def test_identity_channel_degenerate(self):
        with pytest.raises(DegenerateCovertnessError):
            covert_budget(SensingScenario(1.0, 1.0, 0.3, 0.3), 1e-3, 1e6)

    def test_hot_bath_is_not_an_identity_channel(self):
        # c2 = 9e-14 here is exact, not a noise floor: the taps leak.
        scenario = SensingScenario(0.5, 0.5, 1e7, 1e7)
        budget = covert_budget(scenario, 1e-3, 1e6)
        assert budget.c2 == pytest.approx(equal_bath_c2(0.25, 1e7), rel=1e-12)
        assert budget.nbar_s == pytest.approx(4e-3 / math.sqrt(9e-14 * 1e6), rel=1e-6)
        ns = budget.nbar_s
        taylor = equal_bath_c2(0.25, 1e7) * ns**2 / 2 + equal_bath_c3(0.25, 1e7) * ns**3 / 6
        assert willie_qre(scenario, ns) == pytest.approx(taylor, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("nbar_b", [1e160, 1e300])
    def test_underflowing_c2_named(self, nbar_b):
        # c2 ~ 1/nbar_b^2 is subnormal at 1e160 and zero at 1e300.
        with pytest.raises(DomainError, match="underflows double precision") as info:
            taylor_coefficients(SensingScenario(0.5, 0.5, nbar_b, nbar_b))
        assert not isinstance(info.value, DegenerateCovertnessError)

    def test_error_bound_closes_the_loop(self):
        budget = covert_budget(REFERENCE, 1e-3, 1e6)
        bound = willie_error_lower_bound(budget.c2, 1e6, budget.nbar_s)
        assert bound == pytest.approx(0.5 - 1e-3, abs=1e-15)

    def test_error_bound_monotone_in_signal(self):
        c2 = equal_bath_c2(0.25, 1.0)
        weak = willie_error_lower_bound(c2, 1e6, 1e-6)
        strong = willie_error_lower_bound(c2, 1e6, 1e-4)
        assert strong < weak <= 0.5

    @pytest.mark.parametrize(
        "c2,nbar_s,name",
        [
            (-1.0, 1e-3, "c2"),
            (math.nan, 1e-3, "c2"),
            (math.inf, 1e-3, "c2"),
            (1.0, -1e-3, "nbar_s"),
            (1.0, math.nan, "nbar_s"),
            (1.0, math.inf, "nbar_s"),
        ],
    )
    def test_error_bound_refuses_bad_inputs_by_name(self, c2, nbar_s, name):
        # Unrefused, a NaN c2 gives a bound of nan and nbar_s = inf one of -inf.
        with pytest.raises(ValueError, match=f"^{name} must be non-negative and finite"):
            willie_error_lower_bound(c2, 1e6, nbar_s)

    def test_invalid_epsilon_rejected(self):
        with pytest.raises(ValueError):
            covert_budget(REFERENCE, 0.0, 1e6)
        with pytest.raises(ValueError):
            covert_budget(REFERENCE, -1e-3, 1e6)

    def test_invalid_modes_rejected(self):
        with pytest.raises(ValueError):
            covert_budget(REFERENCE, 1e-3, 0.0)
