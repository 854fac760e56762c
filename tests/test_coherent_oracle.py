"""A stage's success probability at any detector efficiency, without a
Fock state.

Each cat is a sum of two coherent states, so a stage on two cats is a
sum of four coherent-state products. U1 maps |x>|y> to |tx + ry>|-rx +
ty>, and the 50:50 splitter maps the dump port u beside the auxiliary
|gamma> to |(u + gamma)/sqrt2>|(-u + gamma)/sqrt2>. Both detectors click
with the element 1 - NC1 - NC2 + NC12 = (1 - NC1)(1 - NC2), and a
detector's no-click element is :e^{-eta n}:, whose coherent-state
element is <w'|:e^{-eta n}:|w> = exp(-|w|^2/2 - |w'|^2/2 + (1-eta) w'* w).
P is then a sum over 16 term pairs. Neither ``herald_operator`` nor any
truncated basis enters, so the oracle checks the simulated P off the
simulator's code path, at eta < 1 too, where ``success_probability`` has
no form.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from catamp import StageParams, amplify_once, cat_state, success_probability
from catamp.cli import ALPHA_GRID

PI = math.pi
# the three phase pairs of fig2, and one with neither input of definite parity
PHASES = ((PI, PI), (0.0, 0.0), (0.0, PI), (1.0, 2.5))
GOLDEN = Path(__file__).with_name("golden")


def _cat_terms(alpha, phi):
    """(amplitudes, coefficients) of the cat |alpha> + e^{i phi}|-alpha>,
    normalized."""
    norm = 1.0 / math.sqrt(2.0 * (1.0 + math.cos(phi) * math.exp(-2.0 * alpha * alpha)))
    return np.array([alpha, -alpha]), norm * np.array([1.0, np.exp(1j * phi)])


def _clicks(x, eta):
    """e^{x} - e^{(1-eta) x}: one detector's click element between two
    coherent states, without their factor exp(-|w|^2/2 - |w'|^2/2), for
    x = w'* w."""
    return np.exp((1.0 - eta) * x) * np.expm1(eta * x)


def oracle_probability(alpha, beta, phi_a, phi_b, eta):
    """Both-click probability of one stage on the cats (alpha, phi_a) and
    (beta, phi_b), with U1 and the auxiliary set from the amplitudes as
    the paper plans them: t = alpha/A, r = beta/A, gamma = 2 alpha beta/A."""
    big = math.hypot(alpha, beta)
    t, r, gamma = alpha / big, beta / big, 2.0 * alpha * beta / big
    xa, ca = _cat_terms(alpha, phi_a)
    xb, cb = _cat_terms(beta, phi_b)
    x, y = (v.ravel() for v in np.meshgrid(xa, xb, indexing="ij"))
    coef = np.outer(ca, cb).ravel()
    bright, dump = t * x + r * y, -r * x + t * y
    d1, d2 = (dump + gamma) / math.sqrt(2.0), (-dump + gamma) / math.sqrt(2.0)
    # real amplitudes: every w'* w is a plain product
    half = -0.5 * (bright ** 2 + d1 ** 2 + d2 ** 2)
    cross = np.outer(bright, bright)
    weight = np.exp(half[:, None] + half[None, :] + cross)
    detect = _clicks(np.outer(d1, d1), eta) * _clicks(np.outer(d2, d2), eta)
    return float((coef.conj()[:, None] * coef[None, :] * weight * detect).sum().real)


def _settings():
    for a in (0.3, 0.7, 1.0, 1.5, 2.0):
        for b in (a, 0.8 * a, 1.3 * a):
            if max(a, b) <= 2.0:  # cutoff 30 resolves the stage there
                for pa, pb in PHASES:
                    yield a, b, pa, pb


@pytest.mark.parametrize("eta", [1.0, 0.6, 0.3])
def test_oracle_matches_the_simulated_stage(eta):
    worst = 0.0
    for a, b, pa, pb in _settings():
        res = amplify_once(cat_state(a, pa), cat_state(b, pb), StageParams(a, b, pa, pb, eta))
        worst = max(worst, abs(res.probability - oracle_probability(a, b, pa, pb, eta)))
    assert worst < 1e-8


def test_oracle_matches_the_closed_form_at_unit_efficiency():
    worst = 0.0
    for a in ALPHA_GRID:
        for b in (a, 0.8 * a, 1.3 * a):
            for pa, pb in PHASES:
                want = success_probability(a, b, pa, pb)
                got = oracle_probability(a, b, pa, pb, 1.0)
                worst = max(worst, abs(got - want) / want)
    assert worst < 1e-11


def test_oracle_reproduces_the_fig2_cell_at_reduced_efficiency():
    # fig2_eta06.csv's alpha = 1 row: the simulated column that its
    # closed-form p_odd_odd, which has no eta, does not match
    lines = [ln for ln in (GOLDEN / "fig2_eta06.csv").read_text().splitlines()
             if not ln.startswith("#")]
    rows = [dict(zip(lines[0].split(","), ln.split(","))) for ln in lines[1:]]
    row, = (r for r in rows if float(r["alpha"]) == 1.0)
    assert row["sim_odd_odd"] == "0.138634948047"
    assert f"{oracle_probability(1.0, 1.0, PI, PI, 0.6):.12g}" == row["sim_odd_odd"]
