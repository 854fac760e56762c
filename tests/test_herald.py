"""The closed-form herald operator on the dump port and the stage kernel
built on it, checked against brute-force conditioning circuits."""

import math

import numpy as np
import pytest

import catamp.protocol
from catamp import (BOTH_CLICK, BeamSplitterParams, DegenerateProbabilityError,
                    DetectorModel, MultiModeState, SourceModel, StageParams, amplify_once,
                    apply_beam_splitter, beam_splitter_unitary, cat_state,
                    coherent_state, condition, mixed_inputs, optimal_squeezing,
                    projector, tensor)
from catamp.detection import herald_operator, outcome_diagonal

PI = math.pi
FIFTY = BeamSplitterParams.fifty_fifty()


def _circuit_herald(eta, gamma, cutoff, wide):
    """Both-click element on the first ``cutoff`` dump states, from the
    truncated 50:50 unitary on dump x |gamma> at cutoff ``wide`` and the
    click diagonals of both detectors."""
    u2 = beam_splitter_unitary(FIFTY, wide)
    aux = coherent_state(gamma, wide).amplitudes
    click = outcome_diagonal(DetectorModel(eta, wide), True)
    out = np.zeros((cutoff, wide * wide), dtype=np.complex128)
    for m in range(cutoff):
        dump = np.zeros((wide, wide), dtype=np.complex128)
        dump[m] = aux
        out[m] = u2 @ dump.ravel()
    weighted = out * np.sqrt(np.kron(click, click))[None, :]
    return weighted.conj() @ weighted.T


def _root(pi):
    w, v = np.linalg.eigh(pi)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def _three_mode_stage(input_a, input_b, stage):
    """Unnormalized stage output through the generic 3-mode route: each
    branch pair is tensored with |gamma>, mixed on bs1 and the truncated
    50:50 splitter, and conditioned on both detectors clicking."""
    cutoff = input_a.cutoff
    aux = coherent_state(stage.gamma, cutoff)
    model = DetectorModel(stage.eta, cutoff)
    rho = np.zeros((cutoff, cutoff), dtype=np.complex128)
    branches = [input_a.eigenbranches()[:2], input_b.eigenbranches()[:2]]
    for wa, a in zip(branches[0][0], branches[0][1].T):
        for wb, b in zip(branches[1][0], branches[1][1].T):
            psi = tensor(tensor(MultiModeState(a), MultiModeState(b)), aux)
            psi = apply_beam_splitter(psi, 0, 1, stage.bs1)
            psi = apply_beam_splitter(psi, 1, 2, FIFTY)
            sub, _ = condition(psi, 1, 2, BOTH_CLICK, model)
            rho += wa * wb * sub.matrix
    return rho


@pytest.mark.parametrize("eta", [1.0, 0.6, 0.25])
@pytest.mark.parametrize("gamma", [0.3, 1.0, 2.2])
def test_herald_matches_brute_force_circuit(eta, gamma):
    # 50:50 blocks below 40 photons in total are exact, and |gamma> puts
    # < 1e-14 of its weight beyond the 30 photons the 10 dump states leave
    pi, _ = herald_operator(DetectorModel(eta, 10), gamma)
    want = _circuit_herald(eta, gamma, 10, 40)
    assert np.max(np.abs(pi - want)) <= 1e-12


@pytest.mark.parametrize("eta", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("gamma", [0.0, 0.7, 3.54])
def test_herald_is_an_effect_with_its_root(eta, gamma):
    pi, root = herald_operator(DetectorModel(eta, 30), gamma)
    assert np.max(np.abs(pi - pi.T)) <= 1e-15
    w = np.linalg.eigvalsh(pi)
    assert w[0] >= -1e-12 and w[-1] <= 1.0 + 1e-12
    assert np.max(np.abs(root @ root - pi)) <= 1e-12
    assert not pi.flags.writeable and not root.flags.writeable
    assert herald_operator(DetectorModel(eta, 30), gamma)[0] is pi


def test_dead_detectors_never_herald():
    pi, _ = herald_operator(DetectorModel(0.0, 30), 1.4)
    assert not pi.any()
    stage = StageParams.plan(1.0, 1.0, PI, PI, eta=0.0)
    with pytest.raises(DegenerateProbabilityError):
        amplify_once(cat_state(1.0, PI), cat_state(1.0, PI), stage)


@pytest.mark.parametrize("case", ["pure-unequal", "pure-truncated", "mixed"])
def test_kernel_with_truncated_herald_reproduces_three_mode_route(case, monkeypatch):
    # With the herald rebuilt from the truncated circuit the kernel must
    # give the 3-mode route's numbers, truncation error included; only
    # the herald operator separates the two.
    cutoff = 20
    if case == "pure-unequal":
        stage = StageParams.plan(1.2, 0.7, PI, 0.0, eta=0.6)
        rho_a = projector(cat_state(1.2, PI, cutoff=cutoff))
        rho_b = projector(cat_state(0.7, 0.0, cutoff=cutoff))
    elif case == "pure-truncated":
        stage = StageParams.plan(2.0, 2.0, PI, PI)
        rho_a = rho_b = projector(cat_state(2.0, PI, cutoff=cutoff))
    else:
        stage = StageParams.plan(0.5, 0.5, PI, PI, eta=0.8)
        r_star, _ = optimal_squeezing(0.5)
        rho_a = rho_b = mixed_inputs(SourceModel("mixed-photon", r=r_star, p=0.25),
                                     cutoff=cutoff)
    want = _three_mode_stage(rho_a, rho_b, stage)
    exact = amplify_once(rho_a, rho_b, stage)
    # the both-click element as the 3-mode route sees it: auxiliary and
    # detector modes cut at the stage cutoff
    pi = _circuit_herald(stage.eta, stage.gamma, cutoff, cutoff).real
    monkeypatch.setattr(catamp.protocol, "herald_operator",
                        lambda model, gamma: (pi, _root(pi)))
    res = amplify_once(rho_a, rho_b, stage)
    assert abs(res.probability - np.trace(want).real) <= 1e-12
    assert np.max(np.abs(res.probability * res.output.matrix - want)) <= 1e-12
    if case == "pure-truncated":
        # the cut auxiliary and detector modes are what the closed form removes
        assert abs(exact.probability - res.probability) > 1e-3
