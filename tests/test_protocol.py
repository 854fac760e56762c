import cmath
import math

import numpy as np
import pytest
from scipy import integrate

from catamp import optics, protocol
from catamp import (DegenerateProbabilityError, DensityOperator, MultiModeState, Schedule,
                    SourceModel, StageParams, amplify_once, best_schedule, cat_state,
                    fidelity_mixed, homodyne_error,
                    optimal_squeezing, plan_schedule, prepare_source,
                    projector, run_schedule, squeezed_photon,
                    squeezed_photon_cat_fidelity, squeezed_vacuum,
                    success_probability)

from catamp.cli import ALPHA_GRID
from circuit_reference import fock_state

PI = math.pi
ROOT2 = math.sqrt(2.0)


def test_stage_planner_invariants():
    for a, b in ((0.5, 0.5), (0.7, 1.1), (1.5, 0.3)):
        st = StageParams.plan(a, b, PI, 0.0)
        big = math.hypot(a, b)
        assert abs(math.sin(st.mixing_angle) - b / big) < 1e-12
        assert abs(math.cos(st.mixing_angle) - a / big) < 1e-12
        assert abs(st.gamma - 2 * a * b / big) < 1e-12
        assert abs(st.nominal_target.alpha - big) < 1e-12
        assert abs(st.nominal_target.phi - (PI % (2 * PI))) < 1e-12
    with pytest.raises(ValueError):
        StageParams.plan(0.0, 0.0, PI, PI)


def test_stage_params_reject_bad_amplitudes_and_phases():
    StageParams(0.0, 0.5, PI, 0.0)  # one empty input is a valid stage
    for alpha in (math.nan, -0.5, math.inf):
        with pytest.raises(ValueError, match="amplitudes"):
            StageParams(alpha, 0.5, PI, PI)
        with pytest.raises(ValueError, match="amplitudes"):
            StageParams(0.5, alpha, PI, PI)
    for phi in (math.nan, math.inf):
        with pytest.raises(ValueError, match="phases"):
            StageParams(0.5, 0.5, phi, PI)
        with pytest.raises(ValueError, match="phases"):
            StageParams(0.5, 0.5, PI, phi)


def test_stage_params_refuse_overflowing_derived_values():
    # 2 alpha beta overflows before the division by A; hypot overflows later
    for big in (1e200, 1e308):
        with pytest.raises(ValueError, match="overflow"):
            StageParams(big, big, 0.0, 0.0)
    st = StageParams(1e150, 1e150, 0.0, 0.0)
    assert math.isfinite(st.gamma) and st.mixing_angle == math.pi / 4


def test_success_probability_rejects_non_finite_and_negative_inputs():
    for bad in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="amplitudes"):
            success_probability(bad, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="amplitudes"):
            success_probability(1.0, bad, 0.0, 0.0)
    with pytest.raises(ValueError, match="phases"):
        success_probability(1.0, 1.0, math.nan, 0.0)


def test_squeezed_photon_cat_fidelity_rejects_non_finite_inputs():
    for bad in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="amplitude"):
            squeezed_photon_cat_fidelity(0.3, bad)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="squeezing"):
            squeezed_photon_cat_fidelity(bad, 1.0)


def test_homodyne_error_rejects_non_finite_amplitudes():
    for bad in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="amplitude"):
            homodyne_error(bad)


def test_success_probability_oracle_values():
    # frozen direct evaluations of the closed form
    assert abs(success_probability(2 ** -0.5, 2 ** -0.5, PI, PI)
               - 0.2199460174696386) < 1e-12
    assert abs(success_probability(2 ** -0.5, 2 ** -0.5, PI, PI) - 0.21995) < 1e-5
    assert abs(success_probability(2.0, 2.0, PI, PI) - 0.4821755961740174) < 1e-12
    assert abs(success_probability(2.0, 2.0, PI, PI) - 0.4822) < 1e-4


def test_success_probability_limits():
    # odd inputs keep one photon each as alpha -> 0, so coincidences
    # survive at rate 1/4; even inputs empty out and the rate vanishes
    assert abs(success_probability(0.01, 0.01, PI, PI) - 0.25) < 1e-3
    assert success_probability(0.01, 0.01, 0.0, 0.0) < 1e-8
    with pytest.raises(ValueError):
        success_probability(0.0, 0.5, PI, 0.0)
    for phases in ((0.0, 0.0), (PI, 0.0), (0.0, PI)):
        with pytest.raises(ValueError, match="zero-amplitude"):
            success_probability(0.0, 0.0, *phases)


@pytest.mark.parametrize("alpha,beta", [(0.5, 0.5), (0.5, 1.0), (1.0, 1.5), (2 ** -0.5, 1.0)])
@pytest.mark.parametrize("phi_a,phi_b", [(PI, PI), (0.0, 0.0), (0.0, PI), (PI, 0.0)])
def test_simulation_matches_closed_form(alpha, beta, phi_a, phi_b):
    stage = StageParams.plan(alpha, beta, phi_a, phi_b)
    res = amplify_once(cat_state(alpha, phi_a), cat_state(beta, phi_b), stage)
    assert abs(res.probability - success_probability(alpha, beta, phi_a, phi_b)) < 1e-5
    assert res.fidelity >= 1 - 1e-5
    assert abs(res.nominal_target.alpha - math.hypot(alpha, beta)) < 1e-12


@pytest.mark.parametrize("alpha", [2.0, 2.5])
@pytest.mark.parametrize("phi_a,phi_b", [(PI, PI), (0.0, 0.0), (0.0, PI), (PI, 0.0)])
def test_closed_form_probability_holds_at_the_top_of_the_regime(alpha, phi_a, phi_b):
    # the herald's auxiliary and detector modes are not truncated, so only
    # the inputs and U1's two output modes must fit the cutoff-30 basis
    stage = StageParams.plan(alpha, alpha, phi_a, phi_b)
    res = amplify_once(cat_state(alpha, phi_a, cutoff=30), cat_state(alpha, phi_b, cutoff=30),
                       stage)
    assert abs(res.probability - success_probability(alpha, alpha, phi_a, phi_b)) <= 1e-4


def test_amplify_once_ideal_cats_anchor():
    a = 2 ** -0.5
    stage = StageParams.plan(a, a, PI, PI)
    res = amplify_once(cat_state(a, PI), cat_state(a, PI), stage)
    assert res.fidelity >= 1 - 1e-6
    assert abs(res.probability - 0.2200) < 1e-4
    assert abs(res.purity - 1.0) < 1e-8
    assert res.leakage_warning == 0.0


def test_amplify_once_squeezed_photons():
    r_star, _ = optimal_squeezing(0.5)
    sp = squeezed_photon(r_star)
    stage = StageParams.plan(0.5, 0.5, PI, PI)
    res = amplify_once(sp, sp, stage)
    assert res.fidelity > 0.99
    assert fidelity_mixed(res.output, cat_state(2 ** -0.5, 0.0)) > 0.99


def test_missing_photon_branch_is_suppressed():
    r_star, _ = optimal_squeezing(0.5)
    stage = StageParams.plan(0.5, 0.5, PI, PI)
    p_signal = amplify_once(squeezed_photon(r_star), squeezed_photon(r_star), stage).probability
    p_error = amplify_once(squeezed_photon(r_star), squeezed_vacuum(r_star), stage).probability
    assert p_error < 0.25 * p_signal


def test_parity_bookkeeping():
    # odd x odd -> even output; even x odd -> odd output
    stage = StageParams.plan(0.8, 0.8, PI, PI)
    res = amplify_once(cat_state(0.8, PI), cat_state(0.8, PI), stage)
    _, vecs, _ = res.output.eigenbranches()
    assert np.abs(vecs[1::2, 0]).max() < 1e-8
    stage = StageParams.plan(0.8, 0.8, 0.0, PI)
    res = amplify_once(cat_state(0.8, 0.0), cat_state(0.8, PI), stage)
    _, vecs, _ = res.output.eigenbranches()
    assert np.abs(vecs[0::2, 0]).max() < 1e-8


TWIST = cmath.exp(0.3j)


def _twisted(state):
    """The same pure state times the global phase TWIST."""
    return MultiModeState(TWIST * state.amplitudes, leakage=state.leakage)


@pytest.fixture
def kernel_dtypes(monkeypatch):
    """The dtype of every pair array the stage kernel mixes."""
    seen = []

    def spy(theta, a, b):
        out = optics._mix_pairs(theta, a, b)
        assert out.dtype == np.result_type(a, b)
        seen.append(out.dtype)
        return out

    monkeypatch.setattr(protocol, "_mix_pairs", spy)
    return seen


def _assert_same_stage(real, cplx):
    assert np.abs(real.output.matrix - cplx.output.matrix).max() < 1e-12
    for key in ("probability", "fidelity", "purity"):
        assert abs(getattr(real, key) - getattr(cplx, key)) < 1e-12


@pytest.mark.parametrize("alpha,beta,eta", [(0.9, 1.3, 1.0), (2 ** -0.5, 2 ** -0.5, 0.6)])
def test_real_and_complex_kernels_agree_on_pure_cats(alpha, beta, eta, kernel_dtypes):
    # a global phase forces the complex path and leaves rho unchanged
    stage = StageParams.plan(alpha, beta, PI, 0.0, eta=eta)
    a, b = cat_state(alpha, PI), cat_state(beta, 0.0)
    real = amplify_once(a, b, stage)
    cplx = amplify_once(_twisted(a), _twisted(b), stage)
    assert kernel_dtypes == [np.float64, np.complex128]
    _assert_same_stage(real, cplx)


def test_real_and_complex_kernels_agree_on_mixed_inputs(monkeypatch, kernel_dtypes):
    rho = prepare_source(SourceModel("mixed-photon", r=0.3, p=0.3), 0.6)
    stage = StageParams.plan(0.6, 0.6, PI, PI, eta=0.8)
    real = amplify_once(rho, rho, stage)
    branches = DensityOperator.eigenbranches

    def twisted_branches(self):
        """The same branches, each times the global phase TWIST."""
        w, v, discarded = branches(self)
        return w, TWIST * v, discarded

    monkeypatch.setattr(DensityOperator, "eigenbranches", twisted_branches)
    cplx = amplify_once(rho, rho, stage)
    assert kernel_dtypes == [np.float64, np.complex128]
    _assert_same_stage(real, cplx)


def test_real_inputs_run_the_stage_in_float64(kernel_dtypes):
    # every source the CLI offers is real, and so is every stage it feeds
    for kind in protocol.SOURCE_KINDS:
        source = SourceModel(kind, p=0.2 if kind == "mixed-photon" else 0.0)
        run_schedule(plan_schedule(2.0, 3, eta=0.8), source)
    assert kernel_dtypes == [np.float64] * 9


def test_amplify_once_degenerate_probability():
    stage = StageParams.plan(1e-3, 1e-3, 0.0, 0.0)
    with pytest.raises(DegenerateProbabilityError):
        amplify_once(cat_state(1e-3, 0.0), cat_state(1e-3, 0.0), stage)


def test_amplify_once_rejects_bad_inputs():
    stage = StageParams.plan(0.5, 0.5, PI, PI)
    short = cat_state(0.5, PI, cutoff=20)
    with pytest.raises(ValueError):
        amplify_once(cat_state(0.5, PI, cutoff=30), short, stage)
    # a half-trace input is refused where it would be built
    with pytest.raises(ValueError, match="trace"):
        DensityOperator(0.5 * projector(cat_state(0.5, PI)).matrix)


def test_mixed_inputs_structure():
    r_star, _ = optimal_squeezing(0.5)
    pure = prepare_source(SourceModel("mixed-photon", r=r_star, p=0.0), 0.5)
    assert np.allclose(pure.matrix, projector(squeezed_photon(r_star)).matrix, atol=1e-14)
    rho = prepare_source(SourceModel("mixed-photon", r=r_star, p=0.3), 0.5)
    assert abs(np.trace(rho.matrix) - 1.0) < 1e-12
    w, _, _ = rho.eigenbranches()
    assert len(w) == 2
    assert np.allclose(sorted(w), [0.3, 0.7], atol=1e-12)


@pytest.mark.parametrize("p,f_init", [(0.4, 0.60), (0.25, 0.750), (0.05, 0.950)])
def test_mixed_input_fidelity_against_small_cat(p, f_init):
    r_star, _ = optimal_squeezing(0.5)
    rho = prepare_source(SourceModel("mixed-photon", r=r_star, p=p), 0.5)
    f = fidelity_mixed(rho, cat_state(0.5, PI))
    assert abs(f - f_init) < 0.01


def test_mixed_source_is_the_weighted_sum_of_two_projectors():
    for source, alpha_i in ((SourceModel("mixed-photon", r=0.3, p=0.2), 0.5),
                            (SourceModel("mixed-photon", r=1.0, p=0.3), 0.5),
                            (SourceModel("mixed-photon", p=0.25), 0.7)):
        r = source.r if source.r is not None else optimal_squeezing(alpha_i)[0]
        s1, s0, p = squeezed_photon(r), squeezed_vacuum(r), source.p
        rho = prepare_source(source, alpha_i)
        assert np.array_equal(rho.matrix,
                              (1.0 - p) * projector(s1).matrix + p * projector(s0).matrix)
        assert rho.leakage == (1.0 - p) * s1.leakage + p * s0.leakage


@pytest.mark.parametrize("p", [0.05, 0.25, 0.4])
def test_purification_raises_fidelity(p):
    r_star, _ = optimal_squeezing(0.5)
    rho = prepare_source(SourceModel("mixed-photon", r=r_star, p=p), 0.5)
    f_init = fidelity_mixed(rho, cat_state(0.5, PI))
    stage = StageParams.plan(0.5, 0.5, PI, PI)
    res = amplify_once(rho, rho, stage)
    assert res.fidelity > f_init


def test_purification_exact_propagation_values():
    # pinned behavior of exact branch-pairwise propagation at cutoff 30
    # (cross-checked against an independent implementation at cutoff 40)
    expected = {0.4: 0.90624, 0.25: 0.94937, 0.05: 0.99159}
    r_star, _ = optimal_squeezing(0.5)
    stage = StageParams.plan(0.5, 0.5, PI, PI)
    for p, f_after in expected.items():
        rho = prepare_source(SourceModel("mixed-photon", r=r_star, p=p), 0.5)
        res = amplify_once(rho, rho, stage)
        assert abs(res.fidelity - f_after) < 5e-4


def test_failed_herald_branches_explain_reference_purification_values():
    # The reference values 0.89 / 0.941 / 0.990 follow from treating the
    # one-photon-missing branches as exactly orthogonal to the target (the
    # nominal phase-addition rule: odd x even feeds an odd output). Exact
    # propagation keeps their small even-parity admixture, which is why
    # the full simulation lands slightly higher.
    r_star, _ = optimal_squeezing(0.5)
    stage = StageParams.plan(0.5, 0.5, PI, PI)
    s1, s0 = squeezed_photon(r_star), squeezed_vacuum(r_star)
    branches = {
        (1, 1): amplify_once(s1, s1, stage),
        (1, 0): amplify_once(s1, s0, stage),
        (0, 1): amplify_once(s0, s1, stage),
        (0, 0): amplify_once(s0, s0, stage),
    }
    reference = {0.4: 0.89, 0.25: 0.941, 0.05: 0.990}
    for p, want in reference.items():
        weights = {(1, 1): (1 - p) ** 2, (1, 0): p * (1 - p), (0, 1): p * (1 - p),
                   (0, 0): p * p}
        fid = {key: res.fidelity for key, res in branches.items()}
        fid[(1, 0)] = fid[(0, 1)] = 0.0  # the idealization behind the reference values
        num = sum(weights[k] * branches[k].probability * fid[k] for k in weights)
        den = sum(weights[k] * branches[k].probability for k in weights)
        assert abs(num / den - want) < 1.5e-3


def test_plan_schedule_chain_consistency():
    sched = plan_schedule(2.0, 4)
    assert sched == Schedule(2.0, 4)
    assert len(sched.stages) == 4
    assert abs(sched.alpha_i - 0.5) < 1e-12
    for k, stage in enumerate(sched.stages):
        assert abs(stage.alpha_in - sched.alpha_i * ROOT2 ** k) < 1e-12
        if k + 1 < len(sched.stages):
            nxt = sched.stages[k + 1]
            assert abs(stage.nominal_target.alpha - nxt.alpha_in) < 1e-12
            assert abs(stage.nominal_target.phi - nxt.phi_a) < 1e-12
    assert abs(sched.stages[0].nominal_target.phi - 0.0) < 1e-12  # odd+odd -> even


def test_schedule_rejects_bad_plans():
    for target in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="target"):
            plan_schedule(target, 2)
    with pytest.raises(ValueError, match="iteration"):
        Schedule(2.0, -1)
    for count in (1.5, 2.0):
        with pytest.raises(ValueError, match="iteration"):
            plan_schedule(2.0, count)
    assert plan_schedule(2.0, 0).stages == ()


def test_run_schedule_zero_iterations_echoes_source():
    res = run_schedule(plan_schedule(0.5, 0), SourceModel("squeezed-photon"))
    assert len(res) == 1
    assert res[0].probability == 1.0
    assert abs(res[0].fidelity - 0.99999) < 1e-4
    assert abs(res[0].purity - 1.0) < 1e-10


def test_run_schedule_ideal_cats_stay_ideal():
    res = run_schedule(plan_schedule(2.0, 4), SourceModel("ideal-cat"))
    assert len(res) == 5
    for r in res:
        assert r.fidelity >= 1 - 1e-5
    # the 2*sqrt(2) target exceeds what cutoff 30 resolves in the rejected
    # branches of the last stage; cutoff 40 restores the ideal behavior
    res = run_schedule(plan_schedule(2 * ROOT2, 4), SourceModel("ideal-cat"), cutoff=40)
    for r in res:
        assert r.fidelity >= 1 - 1e-5


def test_run_schedule_reproduces_reference_anchor():
    res = run_schedule(plan_schedule(2.0, 4), SourceModel("squeezed-photon"))
    assert abs(res[-1].fidelity - 0.995) < 0.003


def test_pure_source_feeds_the_first_stage_without_an_eigendecomposition(monkeypatch):
    # only the outputs of stages 1 to n - 1 are decomposed, never the source
    calls = []
    branches = DensityOperator.eigenbranches

    def spy(self):
        calls.append(self)
        return branches(self)

    monkeypatch.setattr(DensityOperator, "eigenbranches", spy)
    res = run_schedule(plan_schedule(2.0, 4), SourceModel("squeezed-photon"))
    assert len(calls) == 3
    assert all(rho is r.output for rho, r in zip(calls, res[1:4]))


def test_schedules_report_their_source_truncation_at_the_first_stage():
    # at r = 1.0 the squeezed states reach past cutoff 30; a mixed source
    # carries the p-weighted mixture of the two states' deficits
    l1, l0, p = squeezed_photon(1.0).leakage, squeezed_vacuum(1.0).leakage, 0.3
    want = (1.0 - p) * l1 + p * l0
    assert abs(want - 6.169e-4) < 1e-7 and abs(l1 - 8.553e-4) < 1e-7
    mixed = run_schedule(plan_schedule(2.0, 4), SourceModel("mixed-photon", r=1.0, p=p))
    assert [r.leakage_warning for r in mixed[:2]] == [want, want]
    pure = run_schedule(plan_schedule(2.0, 4), SourceModel("squeezed-photon", r=1.0))
    assert [r.leakage_warning for r in pure[:2]] == [l1, l1]


def test_best_schedule_anchor_and_small_target():
    n_star, f_star = best_schedule(2.0, max_n=6)
    assert n_star == 4
    assert abs(f_star - 0.995) < 0.003
    # at alpha = 0.5 the bare squeezed photon is already near-perfect; one
    # iteration edges it out by ~1e-5, so the optimum is 0 or 1 steps
    n_small, f_small = best_schedule(0.5, max_n=3)
    assert n_small <= 1
    assert f_small >= 0.99998
    with pytest.raises(ValueError):
        best_schedule(3.0)


def test_best_schedule_fidelity_falls_with_detector_efficiency():
    best = {eta: best_schedule(2.5, eta=eta) for eta in (1.0, 0.6, 0.3)}
    assert best[1.0] == best_schedule(2.5)
    assert best[1.0][1] > best[0.6][1] > best[0.3][1]
    with pytest.raises(ValueError, match="efficiency"):
        best_schedule(2.5, eta=1.5)


def test_best_schedule_rejects_negative_iteration_count():
    # the (-1, -1.0) sentinel must never come back as a schedule
    with pytest.raises(ValueError):
        best_schedule(1.0, max_n=-1)
    assert best_schedule(1.0, max_n=0)[0] == 0


@pytest.mark.parametrize("cutoff, warning", [(3, "0.134"), (5, "0.0153")])
def test_best_schedule_raises_when_its_winner_warns_of_leakage(cutoff, warning):
    # at these cutoffs n = 0 wins while its input lost part of its norm:
    # the fidelity it would return cannot be trusted
    with pytest.raises(ValueError, match=f"n = 0, .* {warning} at cutoff {cutoff}"):
        best_schedule(1.0, max_n=2, cutoff=cutoff)


@pytest.mark.parametrize("max_n", [2.0, 2.5, "2"])
def test_best_schedule_refuses_a_non_integer_iteration_count(max_n):
    # as Schedule refuses a non-integer n_iterations, not a TypeError from range
    with pytest.raises(ValueError, match="non-negative integer"):
        best_schedule(1.0, max_n=max_n)


def test_stage_fidelity_is_judged_against_the_cached_target_cat():
    protocol._target_cat.cache_clear()
    res = run_schedule(plan_schedule(2.0, 4), SourceModel("mixed-photon", p=0.2))
    keys = set()
    for r in res:
        t, c = r.nominal_target, r.output.cutoff
        assert r.fidelity == fidelity_mixed(r.output, cat_state(t.alpha, t.phi, cutoff=c))
        cached = protocol._target_cat(t.alpha, t.phi, c)
        assert cached is protocol._target_cat(t.alpha, t.phi, c)
        assert not cached.amplitudes.flags.writeable
        keys.add((t.alpha, t.phi, c))
    assert protocol._target_cat.cache_info().currsize == len(keys) == len(res)
    # cat_state itself stays uncached: every call builds a fresh state
    t = res[-1].nominal_target
    fresh = cat_state(t.alpha, t.phi)
    assert fresh is not cat_state(t.alpha, t.phi)
    assert fresh is not protocol._target_cat(t.alpha, t.phi, fresh.cutoff)


def test_stage_target_cache_stays_within_its_size():
    protocol._target_cat.cache_clear()
    maxsize = protocol._target_cat.cache_info().maxsize
    for k in range(maxsize + 40):
        protocol._target_cat(0.5 + 0.01 * k, PI, 12)
        assert protocol._target_cat.cache_info().currsize <= maxsize
    assert protocol._target_cat.cache_info().currsize == maxsize
    protocol._target_cat.cache_clear()


def test_sources_validate():
    with pytest.raises(ValueError):
        SourceModel("laser")
    with pytest.raises(ValueError):
        SourceModel("squeezed-photon", p=0.2)
    with pytest.raises(ValueError):
        SourceModel("mixed-photon", p=1.0)
    with pytest.raises(ValueError):
        SourceModel("ideal-cat", r=0.3)  # an ideal cat has no squeezing
    assert isinstance(prepare_source(SourceModel("mixed-photon", p=0.2), 0.5),
                      DensityOperator)


def test_squeezed_photon_fidelity_formula_values():
    assert abs(squeezed_photon_cat_fidelity(0.083, 0.5) - 0.99999) < 1e-5
    assert abs(squeezed_photon_cat_fidelity(0.313, 1.0) - 0.997) < 1e-3
    assert squeezed_photon_cat_fidelity(0.0, 0.01) > 0.9999
    with pytest.raises(ValueError):
        squeezed_photon_cat_fidelity(0.1, 0.0)


def test_closed_forms_survive_vanishing_amplitudes():
    # 1 - e^{-2 alpha^2} rounds to 0 below alpha ~ 7e-9; a tiny odd cat is |1>
    assert math.isclose(squeezed_photon_cat_fidelity(0.0, 1e-9), 1.0, rel_tol=1e-12)
    assert math.isclose(fidelity_mixed(projector(fock_state(1)), cat_state(1e-9, PI)),
                        1.0, rel_tol=1e-12)
    assert cat_state(1e-9, PI).leakage < 1e-12
    # two tiny odd cats are |1>|1>: P -> a^2 b^2 / (a^2 + b^2)^2 = 1/4
    tiny = cat_state(1e-9, PI)
    sim = amplify_once(tiny, tiny, StageParams.plan(1e-9, 1e-9, PI, PI)).probability
    for p in (success_probability(1e-9, 1e-9, PI, PI), sim):
        assert math.isclose(p, 0.25, rel_tol=1e-12)


def test_optimal_squeezing_is_the_global_maximum_on_the_fig3_grid():
    rs = np.linspace(0.0, 2.0, 20001)  # step 1e-4
    for alpha in ALPHA_GRID:
        r_star, f_star = optimal_squeezing(alpha)
        assert f_star == squeezed_photon_cat_fidelity(r_star, alpha)
        grid_max = max(squeezed_photon_cat_fidelity(r, alpha) for r in rs)
        assert f_star >= grid_max - 1e-12
        residual = alpha * alpha / math.cosh(r_star) ** 2 - 3.0 * math.tanh(r_star)
        assert abs(residual) <= 1e-12


def test_optimal_squeezing_matches_quoted_points():
    for alpha, r_want in ((0.5, 0.083), (2 ** -0.5, 0.164), (1.0, 0.313)):
        r_star, f_star = optimal_squeezing(alpha)
        assert abs(r_star - r_want) < 0.002
        assert f_star >= squeezed_photon_cat_fidelity(r_want, alpha) - 1e-9
        h = 1e-5
        slope = (squeezed_photon_cat_fidelity(r_star + h, alpha)
                 - squeezed_photon_cat_fidelity(r_star - h, alpha)) / (2 * h)
        assert abs(slope) < 1e-8


def test_homodyne_error_against_gaussian_overlap():
    # oracle: integrate the losing Gaussian tail directly
    def overlap_error(alpha):
        mu, var = math.sqrt(2) * alpha, 0.5
        pdf = lambda x: math.exp(-(x - mu) ** 2 / (2 * var)) / math.sqrt(2 * math.pi * var)
        val, _ = integrate.quad(pdf, -np.inf, 0.0)
        return val

    assert homodyne_error(0.0) == 0.5
    assert abs(homodyne_error(1.0) - overlap_error(1.0)) < 1e-10
    assert abs(homodyne_error(1.0) - 0.02275) < 1e-5
    assert 2e-7 <= homodyne_error(2.5) <= 4.5e-7
    with pytest.raises(ValueError):
        homodyne_error(-1.0)


def test_eta_invariance_for_ideal_inputs():
    a = 2 ** -0.5
    fids, probs = [], []
    for eta in (0.1, 0.5, 1.0):
        stage = StageParams.plan(a, a, PI, PI, eta=eta)
        res = amplify_once(cat_state(a, PI), cat_state(a, PI), stage)
        fids.append(res.fidelity)
        probs.append(res.probability)
    assert max(fids) - min(fids) < 1e-9
    assert probs[0] < probs[1] < probs[2]
