import math

import numpy as np
import pytest

import circuit_reference as ref
from catamp import Schedule, StageParams, cat_state
from catamp.detection import herald_operator
from circuit_reference import coherent_state, fock_state


def _conditioning_circuit(input_a, input_b, gamma):
    return ref.circuit(input_a.amplitudes, input_b.amplitudes, ref.FIFTY, gamma)


def _normalized(rho):
    return rho / np.trace(rho).real


def test_click_povm_perfect_detector():
    assert np.array_equal(ref.click_diagonal(1.0, 30), np.r_[0.0, np.ones(29)])


def test_click_povm_dead_detector():
    assert np.all(ref.click_diagonal(0.0, 30) == 0.0)


def test_click_povm_half_efficiency():
    d = ref.click_diagonal(0.5, 8)
    assert d[0] == 0.0
    assert np.isclose(d[2], 0.75, atol=1e-15)


def test_click_povm_completeness_is_exact():
    for eta in (0.0, 0.3, 0.77, 1.0):
        click = ref.click_diagonal(eta, 16)
        assert np.array_equal(click + (1 - eta) ** np.arange(16), np.ones(16))


def test_detector_model_rejects_bad_efficiency():
    # the detector efficiency is a stage setting, checked when it is set
    for eta in (1.2, -0.1, math.nan):
        with pytest.raises(ValueError, match="efficiency"):
            StageParams(1.0, 1.0, math.pi, math.pi, eta)
        with pytest.raises(ValueError, match="efficiency"):
            Schedule(2.0, 3, eta=eta)


@pytest.mark.parametrize("eta", [0.2, 0.6, 1.0])
def test_pattern_probabilities_sum_to_one(eta):
    # the four click-pattern elements on the dump mode resolve the
    # identity, and the both-click one is the stage's herald operator
    elements = ref.click_elements(eta, 1.3, 10, 40)
    assert np.max(np.abs(sum(elements.values()) - np.eye(10))) < 1e-10
    pi = herald_operator(eta, 1.3, 10)
    assert np.max(np.abs(elements[ref.BOTH_CLICK] - pi)) <= 1e-12


def test_double_click_on_interfered_cats_yields_amplified_cat():
    # two odd cats of size 1/sqrt2 condition onto the even cat of size 1
    a = 2 ** -0.5
    psi = _conditioning_circuit(cat_state(a, math.pi), cat_state(a, math.pi),
                                gamma=math.sqrt(2) * a)
    rho = ref.condition(psi, ref.BOTH_CLICK, 1.0)
    prob = np.trace(rho).real
    assert abs(prob - 0.2199460174696386) < 1e-4
    target = cat_state(1.0, 0.0).amplitudes
    assert np.vdot(target, _normalized(rho) @ target).real >= 1 - 1e-9


def test_double_noclick_keeps_the_rejected_branch():
    a = 2 ** -0.5
    psi = _conditioning_circuit(cat_state(a, math.pi), cat_state(a, math.pi),
                                gamma=math.sqrt(2) * a)
    rho = ref.condition(psi, (False, False), 1.0)
    assert np.trace(rho).real > 0.1
    target = cat_state(1.0, 0.0).amplitudes
    assert np.vdot(target, _normalized(rho) @ target).real < 0.6


def test_normalized_output_is_eta_independent_for_ideal_cats():
    a = 2 ** -0.5
    psi = _conditioning_circuit(cat_state(a, math.pi), cat_state(a, math.pi),
                                gamma=math.sqrt(2) * a)
    outputs, probs = [], []
    for eta in (0.1, 0.5, 1.0):
        rho = ref.condition(psi, ref.BOTH_CLICK, eta)
        outputs.append(_normalized(rho))
        probs.append(np.trace(rho).real)
    assert np.max(np.abs(outputs[0] - outputs[2])) < 1e-9
    assert np.max(np.abs(outputs[1] - outputs[2])) < 1e-9
    assert probs[0] < probs[1] < probs[2]


def test_vacuum_detector_mode_never_clicks():
    # exact zero, not merely small: the click element annihilates vacuum
    psi = ref.product(coherent_state(0.7, 12).amplitudes, fock_state(0, 12).amplitudes,
                      coherent_state(0.4, 12).amplitudes)
    assert np.trace(ref.condition(psi, (True, True), 1.0)).real == 0.0
    assert np.trace(ref.condition(psi, (True, False), 1.0)).real == 0.0


def test_conditioning_output_is_physical():
    rng = np.random.default_rng(3)
    amp = rng.standard_normal((10, 10, 10)) + 1j * rng.standard_normal((10, 10, 10))
    # keep mode 1, detectors on modes 0 and 2
    psi = np.moveaxis(amp / np.linalg.norm(amp), 1, 0)
    for pat in ref.PATTERNS:
        rho = ref.condition(psi, pat, 0.8)
        assert 0.0 <= np.trace(rho).real <= 1.0 + 1e-10
        assert np.linalg.eigvalsh(rho)[0] >= -1e-10
