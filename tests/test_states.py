import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

import circuit_reference as ref
from catamp import (CatSpec, cat_state, fidelity_mixed, projector, squeezed_photon,
                    squeezed_vacuum)
from catamp.states import _phase_factor
from circuit_reference import coherent_state, fock_state

# r of the purification table (0.083), the optimum for alpha = 2.5 (1.07),
# and both signs; the reference is the matrix exponential at cutoff 120,
# cut to the first 30 levels and renormalised
WIDE_EXPM_R = (0.083, 0.6, 1.07, -0.7)

# r in steps of 0.05 over the whole allowed range, and cat amplitudes
# 0.1 ... 4.0, for the exact-arithmetic check
EXACT_R = [i / 20 for i in range(-40, 41)]
EXACT_ALPHA = [i / 10 for i in range(1, 41)]


def test_fock_state_basis_vectors():
    for n in (0, 1, 29):
        psi = fock_state(n, 30)
        assert psi.amplitudes[n] == 1.0
        assert np.count_nonzero(psi.amplitudes) == 1
    with pytest.raises(ValueError):
        fock_state(30, 30)


def test_coherent_state_vacuum_and_ground_amplitude():
    assert np.array_equal(coherent_state(0.0).amplitudes, fock_state(0).amplitudes)
    # c_0 = e^{-1/2} at alpha = 1
    assert np.isclose(coherent_state(1.0).amplitudes[0].real, 0.6065306597126334, atol=1e-12)


def test_coherent_state_leakage_small_at_regime_edge():
    psi = coherent_state(2.5, 30)
    assert psi.leakage < 1e-10
    assert np.isclose(np.vdot(psi.amplitudes, psi.amplitudes).real, 1.0, atol=1e-12)


@pytest.mark.parametrize("cutoff", [8, 30, 64])
@pytest.mark.parametrize("phi", [0.0, math.pi, 1.0])
def test_cat_state_matches_closed_form_coherent_sum(phi, cutoff):
    # the normalized |alpha> + e^{i phi}|-alpha> of the reference's closed
    # form, which renormalizes both terms by the same factor
    for alpha in np.linspace(0.05, 2.5, 50):
        want = (ref.coherent_state(alpha, cutoff).amplitudes
                + np.exp(1j * phi) * ref.coherent_state(-alpha, cutoff).amplitudes)
        want /= np.linalg.norm(want)
        diff = np.abs(cat_state(alpha, phi, cutoff).amplitudes - want)
        assert diff.max() <= 1e-13, alpha


@pytest.mark.parametrize("cutoff", [1, 2, 8, 30, 64])
def test_cat_state_is_the_two_expansion_sum_bit_for_bit(cutoff):
    # cat_state derives |-alpha> from |alpha>'s expansion; it must give the
    # bytes of the sum of two separate recurrences, one run at -alpha. The
    # goldens hold only phases 0 and pi, so three other phases are pinned
    # here. A sum that is the null vector (an odd cat at cutoff 1) is refused.
    def coherent(x):
        amp = np.zeros(cutoff)
        amp[0] = math.exp(-0.5 * abs(x) ** 2)
        for n in range(1, cutoff):
            amp[n] = amp[n - 1] * x * (1.0 / math.sqrt(n))
        return amp

    cases = [(0.0, 0.0)] + [(alpha, phi) for alpha in (0.02, 1.3, 7.5)
                            for phi in (0.0, math.pi, 0.4, math.pi / 2, 5.0)]
    for alpha, phi in cases:
        amp = coherent(alpha) + _phase_factor(phi) * coherent(-alpha)
        nsq = float(np.vdot(amp, amp).real)
        if nsq == 0.0:
            with pytest.raises(ValueError):
                cat_state(alpha, phi, cutoff)
            continue
        want = amp * (1.0 / math.sqrt(nsq))
        got = cat_state(alpha, phi, cutoff).amplitudes
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (alpha, phi)
    with pytest.raises(ValueError):
        cat_state(0.0, math.pi, cutoff)


def test_cat_state_parity_zeros_are_exact():
    odd = cat_state(0.9, math.pi)
    even = cat_state(0.9, 0.0)
    assert np.all(odd.amplitudes[0::2] == 0.0)
    assert np.all(even.amplitudes[1::2] == 0.0)


def test_cat_state_small_odd_cat_approaches_single_photon():
    f = fidelity_mixed(projector(cat_state(0.01, math.pi)), fock_state(1))
    assert f > 1 - 1e-4


def test_cat_state_null_vector_rejected():
    with pytest.raises(ValueError):
        cat_state(0.0, math.pi)
    with pytest.raises(ValueError):
        CatSpec(-0.5, 0.0)
    with pytest.raises(ValueError, match="phase"):
        CatSpec(1.0, math.nan)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0, 1.7, 2.4])
def test_opposite_parity_cats_are_orthogonal(alpha):
    odd = cat_state(alpha, math.pi)
    even = cat_state(alpha, 0.0)
    assert abs(np.vdot(odd.amplitudes, even.amplitudes)) < 1e-12


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_even_cat_overlap_with_coherent_state(alpha):
    # |<cat_+|alpha>|^2 = (1 + e^{-2 alpha^2}) / 2
    f = fidelity_mixed(projector(cat_state(alpha, 0.0)), coherent_state(alpha))
    assert np.isclose(f, (1 + math.exp(-2 * alpha * alpha)) / 2, atol=1e-10)


def test_squeezed_photon_zero_squeeze_is_single_photon():
    assert np.array_equal(squeezed_photon(0.0).amplitudes, fock_state(1).amplitudes)


def test_squeezed_photon_even_amplitudes_exactly_zero():
    psi = squeezed_photon(0.3)
    assert np.all(psi.amplitudes[0::2] == 0.0)


def test_squeezed_photon_matches_quoted_optima():
    # quoted (r, F) pairs for the odd-cat approximation
    f1 = fidelity_mixed(projector(squeezed_photon(0.083)), cat_state(0.5, math.pi))
    assert abs(f1 - 0.99999) < 1e-5
    f2 = fidelity_mixed(projector(squeezed_photon(0.164)), cat_state(2 ** -0.5, math.pi))
    assert abs(f2 - 0.9998) < 1e-4


@pytest.mark.parametrize("r", [0.05, 0.2, 0.4, 0.59])
def test_squeezed_photon_coefficients_strictly_decrease(r):
    amps = np.abs(squeezed_photon(r).amplitudes[1::2])
    assert np.all(np.diff(amps) < 0)


def test_squeezed_vacuum_zero_squeeze_and_parity():
    assert np.array_equal(squeezed_vacuum(0.0).amplitudes, fock_state(0).amplitudes)
    psi = squeezed_vacuum(0.4)
    assert np.all(psi.amplitudes[1::2] == 0.0)
    n = np.arange(psi.cutoff)
    parity = float(np.sum((-1.0) ** n * np.abs(psi.amplitudes) ** 2))
    assert parity == 1.0


def test_squeezed_vacuum_mean_photon_number():
    # sinh^2(0.3) = 0.0927326091, checked against the series sum
    psi = squeezed_vacuum(0.3)
    n = np.arange(psi.cutoff)
    mean = float(np.sum(n * np.abs(psi.amplitudes) ** 2))
    assert abs(mean - 0.09273260912) < 1e-6
    assert abs(mean - math.sinh(0.3) ** 2) < 1e-9


def test_squeezed_photon_agrees_with_squeeze_unitary():
    for r in WIDE_EXPM_R:
        diff = np.abs(squeezed_photon(r).amplitudes - ref.squeezed(r, 1, 30))
        assert diff.max() <= 1e-13, r


def test_squeezed_vacuum_agrees_with_squeeze_unitary():
    for r in WIDE_EXPM_R:
        diff = np.abs(squeezed_vacuum(r).amplitudes - ref.squeezed(r, 0, 30))
        assert diff.max() <= 1e-13, r


def test_squeezed_state_leakage_matches_wide_reference():
    # the weight beyond the cutoff, which the series renormalises away
    for r in WIDE_EXPM_R:
        for k, state in ((1, squeezed_photon), (0, squeezed_vacuum)):
            kept = ref.squeeze_unitary(r, 120)[:30, k]
            assert abs(state(r).leakage - (1.0 - kept @ kept)) <= 1e-13, (r, k)


def test_squeeze_spec_range():
    squeezed_photon(2.0)
    squeezed_vacuum(-2.0)
    for r in (2.5, -3.0, math.nan, math.inf):
        for state in (squeezed_photon, squeezed_vacuum):
            with pytest.raises(ValueError, match="squeezing parameter"):
                state(r)


def test_negative_squeeze_alternates_sign():
    amps = squeezed_photon(-0.3).amplitudes[1::2].real
    assert amps[0] > 0 > amps[1]
    assert amps[2] > 0


# the coherent-* cases give a cat an amplitude no coherent state can take
@pytest.mark.parametrize("build,args,kwargs", [
    (cat_state, (0.5,), {"cutoff": 0}),
    (squeezed_photon, (0.3,), {"cutoff": 1}),
    (squeezed_vacuum, (0.3,), {"cutoff": 0}),
    (cat_state, (math.nan,), {}),
    (cat_state, (math.inf,), {}),
    (cat_state, (30.0,), {}),
    (cat_state, (1e200, 0.0), {}),
], ids=["cat-cutoff-0", "photon-cutoff-1", "vacuum-cutoff-0", "coherent-nan",
        "coherent-inf", "coherent-null", "cat-huge"])
def test_constructors_refuse_bad_cutoff_or_amplitude(build, args, kwargs):
    # a warning or an IndexError on the way would fail this test
    with pytest.raises(ValueError):
        build(*args, **kwargs)


def _exact_squeezed(r, k, cutoff):
    # tanh(r)^n sqrt((2n+k)!) / (cosh(r)^{k+1/2} 2^n n!) over |2n+k>, from
    # the same float tanh(r) and cosh(r); Decimal(0) ** 0 raises, so t^0 is 1
    t, ch = Decimal(math.tanh(r)), Decimal(math.cosh(r))
    amp = [Decimal(0)] * cutoff
    for n in range((cutoff - 1 - k) // 2 + 1):
        tn = t ** n if n else Decimal(1)
        amp[2 * n + k] = (tn * Decimal(math.factorial(2 * n + k)).sqrt()
                          / (ch ** k * ch.sqrt() * 2 ** n * math.factorial(n)))
    return amp


def _exact_cat(alpha, sign, cutoff):
    # alpha^n / sqrt(n!) (1 + sign (-1)^n); e^{-alpha^2/2} cancels in the norm
    a = Decimal(alpha)
    return [a ** n / Decimal(math.factorial(n)).sqrt() * (1 + sign * (-1) ** n)
            for n in range(cutoff)]


@pytest.mark.parametrize("cutoff", [8, 30, 64])
@pytest.mark.parametrize("build,params,exact", [
    (squeezed_photon, EXACT_R, lambda r, c: _exact_squeezed(r, 1, c)),
    (squeezed_vacuum, EXACT_R, lambda r, c: _exact_squeezed(r, 0, c)),
    (lambda a, c: cat_state(a, math.pi, c), EXACT_ALPHA, lambda a, c: _exact_cat(a, -1, c)),
    (lambda a, c: cat_state(a, 0.0, c), EXACT_ALPHA, lambda a, c: _exact_cat(a, 1, c)),
], ids=["squeezed-photon", "squeezed-vacuum", "odd-cat", "even-cat"])
def test_constructors_match_exact_arithmetic(build, params, exact, cutoff):
    # the normalized expansion evaluated at 50 digits from the package's
    # own float inputs; every kept amplitude within 1e-15 of it (the
    # package refuses none of these states)
    for x in params:
        got = build(x, cutoff).amplitudes
        with localcontext() as ctx:
            ctx.prec = 50
            amp = exact(x, cutoff)
            norm = sum(a * a for a in amp).sqrt()
            want = np.array([float(a / norm) for a in amp])
        assert np.abs(got - want).max() <= 1e-15, x
