"""The closed-form herald operator on the dump port and the stage kernel
built on it, checked against brute-force conditioning circuits."""

import math

import numpy as np
import pytest

import catamp.protocol
import circuit_reference as ref
from catamp import (DegenerateProbabilityError, SourceModel, StageParams,
                    amplify_once, cat_state, optimal_squeezing, prepare_source,
                    projector)
from catamp.detection import herald_operator, herald_root

PI = math.pi


def _root(pi):
    w, v = np.linalg.eigh(pi)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def _three_mode_stage(input_a, input_b, stage):
    """Unnormalized stage output through the brute-force 3-mode circuit,
    one branch pair at a time."""
    rho = 0.0
    branches = [input_a.eigenbranches()[:2], input_b.eigenbranches()[:2]]
    for wa, a in zip(branches[0][0], branches[0][1].T):
        for wb, b in zip(branches[1][0], branches[1][1].T):
            out = ref.stage(a, b, stage.mixing_angle, stage.gamma, stage.eta)
            rho = rho + wa * wb * out[ref.BOTH_CLICK]
    return rho


@pytest.mark.parametrize("eta", [1.0, 0.6, 0.25])
@pytest.mark.parametrize("gamma", [0.3, 1.0, 2.2])
def test_herald_matches_brute_force_circuit(eta, gamma):
    # 50:50 blocks below 40 photons in total are exact, and |gamma> puts
    # < 1e-14 of its weight beyond the 30 photons the 10 dump states leave
    pi = herald_operator(eta, gamma, 10)
    want = ref.click_elements(eta, gamma, 10, 40)[ref.BOTH_CLICK]
    assert np.max(np.abs(pi - want)) <= 1e-12


@pytest.mark.parametrize("eta", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("gamma", [0.0, 0.7, 3.54])
def test_herald_is_an_effect_with_its_root(eta, gamma):
    pi, root = herald_operator(eta, gamma, 30), herald_root(eta, gamma, 30)
    assert np.max(np.abs(pi - pi.T)) <= 1e-15
    w = np.linalg.eigvalsh(pi)
    assert w[0] >= -1e-12 and w[-1] <= 1.0 + 1e-12
    assert np.max(np.abs(root @ root - pi)) <= 1e-12
    assert not root.flags.writeable
    assert herald_root(eta, gamma, 30) is root


def test_dead_detectors_never_herald():
    pi = herald_operator(0.0, 1.4, 30)
    assert not pi.any()
    stage = StageParams(1.0, 1.0, PI, PI, eta=0.0)
    with pytest.raises(DegenerateProbabilityError):
        amplify_once(cat_state(1.0, PI), cat_state(1.0, PI), stage)


@pytest.mark.parametrize("case", ["pure-unequal", "pure-truncated", "mixed"])
def test_kernel_with_truncated_herald_reproduces_three_mode_route(case, monkeypatch):
    # With the herald rebuilt from the truncated circuit the kernel must
    # give the 3-mode route's numbers, truncation error included; only
    # the herald operator separates the two.
    cutoff = 20
    if case == "pure-unequal":
        stage = StageParams(1.2, 0.7, PI, 0.0, eta=0.6)
        rho_a = projector(cat_state(1.2, PI, cutoff=cutoff))
        rho_b = projector(cat_state(0.7, 0.0, cutoff=cutoff))
    elif case == "pure-truncated":
        stage = StageParams(2.0, 2.0, PI, PI)
        rho_a = rho_b = projector(cat_state(2.0, PI, cutoff=cutoff))
    else:
        stage = StageParams(0.5, 0.5, PI, PI, eta=0.8)
        r_star, _ = optimal_squeezing(0.5)
        rho_a = rho_b = prepare_source(SourceModel("mixed-photon", r=r_star, p=0.25), 0.5,
                                       cutoff=cutoff)
    want = _three_mode_stage(rho_a, rho_b, stage)
    exact = amplify_once(rho_a, rho_b, stage)
    # the both-click element as the 3-mode route sees it: auxiliary and
    # detector modes cut at the stage cutoff
    pi = ref.click_elements(stage.eta, stage.gamma, cutoff, cutoff)[ref.BOTH_CLICK].real
    monkeypatch.setattr(catamp.protocol, "herald_root",
                        lambda eta, gamma, cutoff: _root(pi))
    res = amplify_once(rho_a, rho_b, stage)
    assert abs(res.probability - np.trace(want).real) <= 1e-12
    assert np.max(np.abs(res.probability * res.output.matrix - want)) <= 1e-12
    if case == "pure-truncated":
        # the cut auxiliary and detector modes are what the closed form removes
        assert abs(exact.probability - res.probability) > 1e-3
