"""Constructors for the states the amplification protocol consumes.

Cat states (superpositions of two opposite coherent amplitudes),
squeezed vacuum and the squeezed single photon. All constructors
renormalize within the truncated basis and record the squared-norm
deficit they absorbed as ``state.leakage``. They check the cutoff and
the amplitude before any arithmetic, and build real amplitudes in
float64; only a cat phase other than 0 or pi makes a complex state.
Divisions by a real number are multiplications by its reciprocal, which
is how numpy divides complex128 by a real, so a real amplitude has the
same digits in either dtype.

The squeeze convention is exp(-(r/2)(a^2 - adag^2)), which for r > 0
stretches a single photon into positive odd-photon-number coefficients;
both squeezed states take r as a plain number, |r| <= MAX_SQUEEZE, and
are its closed-form series, exact on the kept basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import DEFAULT_CUTOFF, MultiModeState

# Input guard on user-supplied |r|; every optimal_squeezing r* lies at or
# below its value at the validated bound on alpha, 1.067, well inside it.
MAX_SQUEEZE = 2.0

# Beyond this |alpha| the vacuum weight exp(-|alpha|^2/2) underflows to 0,
# so a coherent expansion is the null vector at every cutoff.
_NULL_COHERENT = 38.6


@dataclass(frozen=True)
class CatSpec:
    """Names the ideal target state |alpha> + e^{i phi}|-alpha>.

    phi = pi is the odd cat (odd photon numbers only), phi = 0 the even
    cat. The amplitude is real and non-negative; opposite signs are
    absorbed into phi.
    """

    alpha: float
    phi: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha >= 0.0):
            raise ValueError(f"cat amplitude must be finite and >= 0, got {self.alpha}")
        if not math.isfinite(self.phi):
            raise ValueError("cat phase must be finite")


def _phase_factor(phi: float) -> complex:
    """e^{i phi}, snapped to exactly +-1 at the parity points so even and
    odd cats carry exact zeros on the opposite-parity amplitudes."""
    s, c = math.sin(phi), math.cos(phi)
    if abs(s) < 1e-12:
        return 1.0 if c > 0.0 else -1.0
    return complex(c, s)


def _check_level(n: int, cutoff: int) -> None:
    """Refuse a cutoff whose basis [0, cutoff) does not hold |n>."""
    if not 0 <= n < cutoff:
        raise ValueError(f"photon number {n} outside truncated basis [0, {cutoff})")


def _coherent_amplitudes(alpha: float, cutoff: int) -> np.ndarray:
    # c_n = e^{-|alpha|^2/2} alpha^n / sqrt(n!), by stable recurrence
    _check_level(0, cutoff)
    if abs(alpha) > _NULL_COHERENT:
        raise ValueError(f"coherent amplitude {alpha} underflows to the null vector")
    amp = np.zeros(cutoff)
    amp[0] = math.exp(-0.5 * abs(alpha) ** 2)
    for n in range(1, cutoff):
        amp[n] = amp[n - 1] * alpha * (1.0 / math.sqrt(n))
    return amp


def cat_state(alpha: float, phi: float = math.pi,
              cutoff: int = DEFAULT_CUTOFF) -> MultiModeState:
    """Normalized |alpha> + e^{i phi}|-alpha>.

    The normalization is numerical, so the state has unit norm within
    the truncated basis even where the closed-form factor would not.
    """
    alpha = float(alpha)
    CatSpec(alpha, phi)  # validate
    ph = _phase_factor(phi)
    if alpha == 0.0 and ph == -1.0:
        raise ValueError("alpha = 0 with phi = pi names the null vector")
    plus = _coherent_amplitudes(alpha, cutoff)
    minus = _coherent_amplitudes(-alpha, cutoff)
    amp = plus + ph * minus
    nsq = float(np.vdot(amp, amp).real)
    if nsq <= 0.0:
        raise ValueError("cat parameters produce a null vector")
    # leakage relative to the untruncated norm 2(1 + cos(phi) e^{-2 alpha^2}),
    # written with expm1 so tiny odd cats do not cancel to 0
    full = 2.0 * ((1.0 + ph.real) + ph.real * math.expm1(-2.0 * alpha * alpha))
    deficit = max(0.0, 1.0 - nsq / full)
    return MultiModeState(amp * (1.0 / math.sqrt(nsq)), leakage=deficit)


def _squeezed_series(r: float, k: int, cutoff: int) -> MultiModeState:
    """The squeezed number state |k>, k in {0, 1}, over |2n+k>.

    Coefficients follow tanh(r)^n sqrt((2n+k)!) / (cosh(r)^{k+1/2} 2^n n!),
    evaluated in log space to survive the factorials; amplitudes of the
    other parity are exactly zero.
    """
    _check_level(k, cutoff)
    if not math.isfinite(r) or abs(r) > MAX_SQUEEZE:
        raise ValueError(f"squeezing parameter must satisfy |r| <= {MAX_SQUEEZE}, got {r}")
    t = math.tanh(r)
    amp = np.zeros(cutoff)
    if t == 0.0:
        amp[k] = 1.0
        return MultiModeState(amp)
    ln_ch = math.log(math.cosh(r))
    total = 0.0
    for n in range((cutoff - 1 - k) // 2 + 1):
        ln_c = (n * math.log(abs(t)) + 0.5 * math.lgamma(2 * n + k + 1)
                - (k + 0.5) * ln_ch - n * math.log(2.0) - math.lgamma(n + 1))
        sign = -1.0 if (t < 0.0 and n % 2 == 1) else 1.0
        amp[2 * n + k] = sign * math.exp(ln_c)
        total += math.exp(2.0 * ln_c)
    deficit = max(0.0, 1.0 - total)
    return MultiModeState(amp * (1.0 / math.sqrt(total)), leakage=deficit)


def squeezed_photon(r: float, cutoff: int = DEFAULT_CUTOFF) -> MultiModeState:
    """Squeezed single photon, expanded over odd number states."""
    return _squeezed_series(r, 1, cutoff)


def squeezed_vacuum(r: float, cutoff: int = DEFAULT_CUTOFF) -> MultiModeState:
    """Squeezed vacuum, expanded over even number states."""
    return _squeezed_series(r, 0, cutoff)
