"""Acceptance suite: one check per headline criterion, one line printed each.

Run standalone (``python tests/test_acceptance.py``) or under pytest
(``pytest tests/test_acceptance.py -v -s``). Expected wall time is a few
seconds; the iteration-count sweep of criterion 4 dominates.

One criterion asserts a reference value that exact propagation cannot
reach and is expected to stay red; the measured value and the reason are
printed with the FAIL line:

* criterion 4: the best final fidelity at the boundary target 2.5 is
  0.98982 (n* = 5; n = 4 gives 0.98857) with input-optimized squeezing,
  against the > 0.99 envelope. Every other grid point clears 0.99
  (target 2.4 gives 0.99066), and the anchor holds (n* = 4, F* = 0.99487
  at target 2). Truncation is not the cause: cutoff 40 gives 0.989821,
  the cutoff-30 value to 2e-11.
  Optimizing the squeezing for the final fidelity instead would reach
  0.99920 at target 2.5 (n = 5), but also 0.99927 at target 2 (n = 4),
  outside the 0.995 +- 0.003 anchor, so no model here meets both quoted
  numbers.

Criterion 5 checks the purification table against the model its quoted
values come from. The quoted F_after = 0.89 / 0.941 / 0.990 (p = 0.4 /
0.25 / 0.05) follow from treating the odd x even branches (squeezed
photon with squeezed vacuum) as orthogonal to the even target; the
simulator's own branch outputs recombined that way give 0.8904 / 0.9406 /
0.9901, which must round to the quoted digits. Exact propagation, the
value ``catamp purify`` emits, keeps the odd x even branch (fidelity
0.151 against the target, unlike inputs do not fix the output parity)
and gives 0.9062 / 0.9494 / 0.9916; it is checked to 1e-10 against the
recombination of the four pure branches, once through ``amplify_once``
and once through the brute-force 3-mode circuit of
``tests/circuit_reference.py`` (a (x) b (x) |gamma> on plain arrays, U1,
the 50:50 splitter and two click detectors).
"""

import math
from functools import lru_cache

import numpy as np

import circuit_reference as ref
from catamp import (Schedule, SourceModel, StageParams, amplify_once, best_schedule,
                    cat_state, fidelity_mixed, homodyne_error,
                    optimal_squeezing, prepare_source, projector,
                    run_schedule, squeezed_photon, squeezed_vacuum,
                    success_probability)
from catamp.cli import _build_parser, cmd_purify, render_csv
from catamp.detection import herald_operator
from catamp.optics import _mix_pairs

PI = math.pi
ROOT2 = math.sqrt(2.0)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 1: squeezed-photon fidelity optima, formula and full state
# ---------------------------------------------------------------------------

def test_criterion_1_squeezing_optima():
    quoted = [(0.5, 0.99999, 1e-5, 0.083), (2 ** -0.5, 0.9998, 1e-4, 0.164),
              (1.0, 0.997, 1e-3, 0.313)]
    problems = []
    for alpha, f_want, f_tol, r_want in quoted:
        r_star, f_formula = optimal_squeezing(alpha)
        f_state = fidelity_mixed(projector(squeezed_photon(r_star)), cat_state(alpha, PI))
        if abs(r_star - r_want) > 0.002:
            problems.append(f"r*({alpha})={r_star:.4f}")
        if abs(f_formula - f_want) > f_tol or abs(f_state - f_want) > f_tol:
            problems.append(f"F({alpha})={f_formula:.6f}/{f_state:.6f}")
    _report(1, "squeezed-photon fidelity optima", not problems, "; ".join(problems))


# ---------------------------------------------------------------------------
# criterion 2: maximized fidelity stays above 0.99 through alpha = 1.2
# ---------------------------------------------------------------------------

def test_criterion_2_small_cat_envelope():
    grid = [round(0.05 * k, 10) for k in range(1, 25)]
    worst = 1.0
    for alpha in grid:
        r_star, f_formula = optimal_squeezing(alpha)
        f_state = fidelity_mixed(projector(squeezed_photon(r_star)), cat_state(alpha, PI))
        worst = min(worst, f_formula, f_state)
    _report(2, "max-over-r fidelity > 0.99 for alpha <= 1.2", worst > 0.99,
            f"worst {worst:.6f}")


# ---------------------------------------------------------------------------
# criterion 3: simulated coincidence probability matches the closed form
# ---------------------------------------------------------------------------

def test_criterion_3_formula_simulation_equivalence():
    amps = (0.5, 2 ** -0.5, 1.0, 1.5)
    phases = (0.0, PI)
    worst_p, worst_f = 0.0, 1.0
    for a in amps:
        for b in amps:
            for pa in phases:
                for pb in phases:
                    stage = StageParams(a, b, pa, pb)
                    res = amplify_once(cat_state(a, pa), cat_state(b, pb), stage)
                    worst_p = max(worst_p, abs(res.probability
                                               - success_probability(a, b, pa, pb)))
                    worst_f = min(worst_f, res.fidelity)
    ok = worst_p < 1e-5 and worst_f >= 1 - 1e-5
    _report(3, "formula-simulation oracle equivalence (64 settings)", ok,
            f"max |dP| {worst_p:.2e}, min F {worst_f:.8f}")


# ---------------------------------------------------------------------------
# criterion 4: best iteration count anchor and fidelity envelope
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def _iteration_sweep():
    grid = [round(0.5 + 0.1 * k, 10) for k in range(21)]
    return {a: best_schedule(a, max_n=6) for a in grid}


def test_criterion_4_best_schedule():
    sweep = _iteration_sweep()
    n_star, f_star = sweep[2.0]
    problems = []
    if n_star != 4 or abs(f_star - 0.995) > 0.003:
        problems.append(f"anchor n*={n_star}, F*={f_star:.5f}")
    low = {a: nf for a, nf in sweep.items() if nf[1] <= 0.99}
    if low:
        worst = min(low.items(), key=lambda kv: kv[1][1])
        problems.append(
            f"F*({worst[0]})={worst[1][1]:.5f} not > 0.99; exact propagation "
            "with input-optimized squeezing cannot reach the reference "
            "envelope at the boundary point")
    _report(4, "iteration sweep anchor and > 0.99 envelope", not problems,
            "; ".join(problems))


# ---------------------------------------------------------------------------
# criterion 5: purification of imperfect-photon-source inputs
# ---------------------------------------------------------------------------

def _three_mode_branch(input_a, input_b, stage):
    """One stage on pure inputs through the brute-force 3-mode circuit.
    Returns (probability, fidelity against the nominal target)."""
    rho = ref.stage(input_a.amplitudes, input_b.amplitudes, stage.mixing_angle,
                    stage.gamma, stage.eta)[ref.BOTH_CLICK]
    prob = float(np.trace(rho).real)
    spec = stage.nominal_target
    target = cat_state(spec.alpha, spec.phi, cutoff=input_a.cutoff).amplitudes
    return prob, float(np.vdot(target, rho @ target).real) / prob


def _recombine(branches, weight, orthogonal=()):
    """Heralded mixture of pure-branch outputs for input weights
    {1: 1 - p, 0: p}; returns (probability, fidelity). Branches listed in
    ``orthogonal`` count with fidelity 0."""
    prob = sum(weight[i] * weight[j] * pk for (i, j), (pk, _) in branches.items())
    num = sum(weight[i] * weight[j] * pk * (0.0 if (i, j) in orthogonal else fk)
              for (i, j), (pk, fk) in branches.items())
    return prob, num / prob


def test_criterion_5_purification_table():
    # (p, quoted F_init, quoted F_after, half a unit in F_after's last digit)
    quoted = [(0.4, 0.60, 0.89, 5e-3), (0.25, 0.750, 0.941, 5e-4),
              (0.05, 0.950, 0.990, 5e-4)]
    r_star, _ = optimal_squeezing(0.5)
    stage = StageParams(0.5, 0.5, PI, PI)
    pure = {1: squeezed_photon(r_star), 0: squeezed_vacuum(r_star)}
    pairs = [(1, 1), (1, 0), (0, 1), (0, 0)]
    kernel = {}
    for i, j in pairs:
        res = amplify_once(pure[i], pure[j], stage)
        kernel[(i, j)] = (res.probability, res.fidelity)
    generic = {(i, j): _three_mode_branch(pure[i], pure[j], stage) for i, j in pairs}
    problems, measured = [], []
    for p, f0_want, f1_quoted, f1_tol in quoted:
        weight = {1: 1.0 - p, 0: p}
        rho = prepare_source(SourceModel("mixed-photon", r=r_star, p=p), 0.5)
        f0 = fidelity_mixed(rho, cat_state(0.5, PI))
        res = amplify_once(rho, rho, stage)
        _, f1_ideal = _recombine(kernel, weight, orthogonal=((1, 0), (0, 1)))
        if abs(f0 - f0_want) > 0.01:
            problems.append(f"F_init(p={p})={f0:.4f} vs {f0_want}")
        if abs(f1_ideal - f1_quoted) > f1_tol:
            problems.append(f"orthogonal-branch F_after(p={p})={f1_ideal:.5f} "
                            f"vs {f1_quoted}")
        for route, branches in (("branch", kernel), ("3-mode", generic)):
            p_ref, f_ref = _recombine(branches, weight)
            if abs(res.fidelity - f_ref) > 1e-10 or abs(res.probability - p_ref) > 1e-10:
                problems.append(f"F_after(p={p})={res.fidelity:.12f} vs {route} "
                                f"recombination {f_ref:.12f}")
        if not res.fidelity > f0:
            problems.append(f"F_after(p={p})={res.fidelity:.4f} <= F_init {f0:.4f}")
        measured.append(f"p={p}: {f0:.4f} -> {res.fidelity:.4f} "
                        f"(orthogonal-branch {f1_ideal:.4f})")
    _report(5, "purification table at alpha_i = 0.5", not problems,
            "; ".join(problems or measured))


# ---------------------------------------------------------------------------
# criterion 6: detector inefficiency does not degrade the output
# ---------------------------------------------------------------------------

def test_criterion_6_eta_robustness():
    a = 2 ** -0.5
    etas = (0.1, 0.5, 1.0)
    ideal_f, ideal_p = [], []
    for eta in etas:
        stage = StageParams(a, a, PI, PI, eta=eta)
        res = amplify_once(cat_state(a, PI), cat_state(a, PI), stage)
        ideal_f.append(res.fidelity)
        ideal_p.append(res.probability)
    r_star, _ = optimal_squeezing(0.5)
    sp = squeezed_photon(r_star)
    approx_f = []
    for eta in etas:
        stage = StageParams(0.5, 0.5, PI, PI, eta=eta)
        approx_f.append(amplify_once(sp, sp, stage).fidelity)
    ideal_spread = max(ideal_f) - min(ideal_f)
    approx_spread = max(approx_f) - min(approx_f)
    ok = (ideal_spread < 1e-9 and ideal_p[0] < ideal_p[1] < ideal_p[2]
          and approx_spread < 1e-3)
    _report(6, "eta robustness of the conditional output", ok,
            f"ideal spread {ideal_spread:.2e}, approx spread {approx_spread:.2e}")


# ---------------------------------------------------------------------------
# criterion 7: homodyne discrimination error at the top of the regime
# ---------------------------------------------------------------------------

def test_criterion_7_homodyne_discrimination():
    err = homodyne_error(2.5)
    _report(7, "homodyne error at alpha = 2.5", 2e-7 <= err <= 4.5e-7,
            f"{err:.3e}")


# ---------------------------------------------------------------------------
# criterion 8: property suites that need no quoted numbers
# ---------------------------------------------------------------------------

def test_criterion_8_property_suites():
    problems = []

    # POVM completeness on the dump mode: the four click-pattern elements
    # sum to the identity, and the both-click one is the herald operator
    for eta in (0.25, 0.8, 1.0):
        elements = ref.click_elements(eta, 1.3, 12, 40)
        total = sum(elements.values())
        if np.max(np.abs(total - np.eye(12))) > 1e-10:
            problems.append(f"POVM completeness off by "
                            f"{np.max(np.abs(total - np.eye(12))):.2e} at eta={eta}")
        pi = herald_operator(eta, 1.3, 12)
        if np.max(np.abs(elements[ref.BOTH_CLICK] - pi)) > 1e-12:
            problems.append(f"herald operator off the circuit at eta={eta}")

    # beam-splitter coherent-state covariance on a 5x5 amplitude grid
    r, t = 0.6, 0.8
    worst_cov = 1.0
    for a in np.linspace(-1.5, 1.5, 5):
        for b in np.linspace(-1.5, 1.5, 5):
            psi2 = _mix_pairs(math.atan2(r, t), ref.coherent_state(a).amplitudes[:, None],
                              ref.coherent_state(b).amplitudes[:, None]).ravel()
            want_a = t * a + r * b
            want_b = -r * a + t * b
            want = np.kron(ref.coherent_state(want_a).amplitudes,
                           ref.coherent_state(want_b).amplitudes)
            worst_cov = min(worst_cov, abs(np.vdot(want, psi2)) ** 2)
    if worst_cov < 1 - 1e-8:
        problems.append(f"covariance fidelity {worst_cov:.10f}")

    # parity selection after every stage of an ideal-input schedule
    results = run_schedule(Schedule(2.0, 4), SourceModel("ideal-cat"))
    for k, res in enumerate(results):
        _, vecs, _ = res.output.eigenbranches()
        wrong = vecs[0::2, 0] if k == 0 else vecs[1::2, 0]
        if np.abs(wrong).max() >= 1e-8:
            problems.append(f"stage {k} parity leak {np.abs(wrong).max():.2e}")

    # cutoff convergence of the headline schedule
    src = SourceModel("squeezed-photon")
    f30 = run_schedule(Schedule(2.0, 4), src, cutoff=30)[-1].fidelity
    f40 = run_schedule(Schedule(2.0, 4), src, cutoff=40)[-1].fidelity
    if abs(f30 - f40) > 1e-4:
        problems.append(f"cutoff drift {abs(f30 - f40):.2e}")

    # determinism: byte-identical tables, identical matrices
    args = _build_parser().parse_args(["purify"])
    if render_csv(cmd_purify(args)) != render_csv(cmd_purify(args)):
        problems.append("purify table not reproducible")
    stage = StageParams(0.5, 0.5, PI, PI)
    m1 = amplify_once(cat_state(0.5, PI), cat_state(0.5, PI), stage).output.matrix
    m2 = amplify_once(cat_state(0.5, PI), cat_state(0.5, PI), stage).output.matrix
    if not np.array_equal(m1, m2):
        problems.append("amplification not reproducible")

    _report(8, "property suites (POVM, covariance, parity, cutoff, determinism)",
            not problems, "; ".join(problems))


def main() -> int:
    checks = [test_criterion_1_squeezing_optima, test_criterion_2_small_cat_envelope,
              test_criterion_3_formula_simulation_equivalence, test_criterion_4_best_schedule,
              test_criterion_5_purification_table, test_criterion_6_eta_robustness,
              test_criterion_7_homodyne_discrimination, test_criterion_8_property_suites]
    failed = 0
    for check in checks:
        try:
            check()
        except AssertionError:
            failed += 1
    print(f"\n{len(checks) - failed}/{len(checks)} criteria passed")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
