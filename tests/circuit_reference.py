"""Brute-force reference for one amplification stage, on plain ndarrays.

Builds the circuit that the stage kernel and the herald operator fold
away: the inputs a (x) b (x) |gamma> as one c x c x c amplitude array
(bright, dump, auxiliary; mode 0 slowest), U1 on modes (0, 1), the 50:50
splitter on modes (1, 2), and two threshold detectors on modes 1 and 2
with diagonal click elements 1 - (1-eta)^n. Every mode is cut at the
array's size, so the auxiliary and detector modes carry the truncation
the closed-form herald removes. U1 and the 50:50 splitter are dense
c^2 x c^2 matrices, one ``expm`` per photon-number block, built here
rather than by catamp's block apply. Also the matrix-exponential squeeze
unitary, a reference for the closed-form squeezed states.

Splitters are named by their mixing angle theta: reflectivity
sin(theta), transmittivity cos(theta). Only ``coherent_state`` comes
from catamp. ``apply_beam_splitter`` is no reference: it drives
catamp's own U1 on flat two-mode amplitudes, for the tests that check
it against this module.
"""

import math
from functools import reduce

import numpy as np
from scipy.linalg import expm

from catamp import coherent_state
from catamp.optics import _mix_pairs

FIFTY = math.pi / 4

# (detector on mode 1 clicks, detector on mode 2 clicks)
PATTERNS = ((False, False), (False, True), (True, False), (True, True))
BOTH_CLICK = (True, True)


def product(*amplitudes):
    """Tensor product of amplitude arrays, the first one slowest."""
    return reduce(np.multiply.outer, amplitudes)


def beam_splitter_blocks(theta, cutoff):
    """(flat indices, expm of the mixing generator) per total photon number
    N, on the states |k, N-k> with k ascending and the first mode slowest."""
    c = cutoff
    for total in range(2 * c - 1):
        ks = np.arange(max(0, total - c + 1), min(total, c - 1) + 1)
        d = len(ks)
        # generator of adag_1 a_2 - a_1 adag_2 restricted to this block
        g = np.zeros((d, d))
        amp = np.sqrt((ks[:-1] + 1.0) * (total - ks[:-1]))
        g[np.arange(1, d), np.arange(d - 1)] = amp
        g[np.arange(d - 1), np.arange(1, d)] = -amp
        yield ks * c + (total - ks), expm(theta * g)


def beam_splitter_unitary(theta, cutoff):
    """The dense two-mode beam-splitter matrix, block by block."""
    u = np.zeros((cutoff * cutoff, cutoff * cutoff), dtype=np.complex128)
    for flat, block in beam_splitter_blocks(theta, cutoff):
        u[np.ix_(flat, flat)] = block
    return u


def apply_beam_splitter(theta, x):
    """catamp's U1 of mixing angle ``theta`` applied to the c^2 rows of
    ``x``, one flattened two-mode amplitude vector or a c^2 x k array of
    them as columns, the first mode the slower half of the flat index.
    Real input gives a float64 result and complex input a complex128
    one. U1 is taken as the c^2 x c^2 matrix of catamp's images of the
    number states |i>|j>, the products of the identity's columns."""
    x = np.asarray(x)
    x = x.astype(np.complex128 if np.iscomplexobj(x) else np.float64, copy=False)
    c = math.isqrt(x.shape[0]) if x.ndim in (1, 2) else 0
    if c == 0 or c * c != x.shape[0]:
        raise ValueError(f"expected c^2 rows of two-mode amplitudes, got shape {x.shape}")
    return _mix_pairs(theta, np.eye(c), np.eye(c)).reshape(c * c, c * c) @ x


def apply_two_mode(u, psi, m1, m2):
    """Contract a square matrix with the joint index of modes (m1, m2),
    m1 the slower half, as ``beam_splitter_unitary`` orders it."""
    x = np.moveaxis(psi, (m1, m2), (0, 1))
    y = (u @ x.reshape(u.shape[1], -1)).reshape(x.shape)
    return np.moveaxis(y, (0, 1), (m1, m2))


def click_diagonal(eta, cutoff):
    """Diagonal of one threshold detector's click element."""
    return 1.0 - (1.0 - eta) ** np.arange(cutoff)


def condition(psi, pattern, eta):
    """Operator on mode 0 of a three-mode array for a click pattern of
    the detectors on modes 1 and 2; its trace is the pattern's
    probability times the squared norm of ``psi``."""
    click = click_diagonal(eta, psi.shape[1])
    d1, d2 = (click if c else 1.0 - click for c in pattern)
    x = psi * np.sqrt(d1)[None, :, None] * np.sqrt(d2)[None, None, :]
    f = x.reshape(psi.shape[0], -1)
    rho = f @ f.conj().T
    return 0.5 * (rho + rho.conj().T)


def circuit(a, b, theta, gamma):
    """a (x) b (x) |gamma> after U1 of angle ``theta`` on modes (0, 1) and
    the 50:50 splitter on modes (1, 2)."""
    c = len(a)
    psi = product(a, b, coherent_state(gamma, c).amplitudes)
    psi = apply_two_mode(beam_splitter_unitary(theta, c), psi, 0, 1)
    return apply_two_mode(beam_splitter_unitary(FIFTY, c), psi, 1, 2)


def stage(a, b, theta, gamma, eta):
    """Bright-mode operator per click pattern for pure inputs a and b;
    each trace is that pattern's probability."""
    psi = circuit(a, b, theta, gamma)
    return {p: condition(psi, p, eta) for p in PATTERNS}


def click_elements(eta, gamma, cutoff, wide):
    """The four click-pattern elements on the first ``cutoff`` dump
    states, with the auxiliary and both detectors cut at ``wide``."""
    aux = coherent_state(gamma, wide).amplitudes
    # row m: the dump state |m> beside |gamma>, through the 50:50 splitter
    psi = apply_two_mode(beam_splitter_unitary(FIFTY, wide),
                         product(np.eye(cutoff, wide), aux), 1, 2)
    return {p: condition(psi, p, eta).T for p in PATTERNS}


def squeeze_unitary(r, cutoff):
    """exp(-(r/2)(a^2 - adag^2)) from the generator cut at ``cutoff``;
    only columns and rows far below the cutoff are accurate."""
    a = np.diag(np.sqrt(np.arange(1.0, cutoff)), 1)
    a2 = a @ a
    return expm(0.5 * r * (a2.T - a2))


def squeezed(r, k, cutoff, wide=120):
    """The squeezed number state |k> on ``cutoff`` levels: column k of
    the squeeze unitary at ``wide``, cut and renormalised."""
    v = squeeze_unitary(r, wide)[:cutoff, k]
    return v / np.linalg.norm(v)
