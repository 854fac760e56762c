"""Dense linear algebra on truncated bosonic Fock spaces.

Single-mode pure state vectors and density operators, the projector
|psi><psi| and the fidelity <psi|rho|psi>; a pure-state overlap is
``fidelity_mixed(projector(phi), psi)``. A vector has unit norm and an
operator unit trace from construction on, so no operation checks them
again. Every value is immutable after construction and every operation
is a pure function of its inputs, so instances can be shared freely
across parameter-sweep workers.

A state's dtype is decided once, when it is stored: float64 when no
entry has a nonzero imaginary part, complex128 otherwise. Code that
reads a state follows its stored dtype, so real states stay real
through every stage they feed.
"""

from __future__ import annotations

import numpy as np

DEFAULT_CUTOFF = 30

# Round-off allowed in a density operator's Hermiticity, positivity and
# trace above one.
OPERATOR_TOL = 1e-10
# Allowed |norm^2 - 1| of a pure state and trace deficit of a mixed one.
UNIT_TOL = 1e-8

# Truncation leakage above this is surfaced as a warning on results.
LEAKAGE_WARN = 1e-6

# Eigenvalues below this are dropped from a mixture's spectral branches.
EIGEN_FLOOR = 1e-10


def _stored(values) -> np.ndarray:
    """A fresh copy of ``values``: float64 when no entry has a nonzero
    imaginary part, complex128 otherwise."""
    arr = np.asarray(values)
    if np.iscomplexobj(arr) and arr.imag.any():
        return arr.astype(np.complex128)
    return arr.real.astype(np.float64)


class MultiModeState:
    """Pure state of one bosonic mode on a truncated Fock basis.

    The amplitude vector is one-dimensional, of unit norm within
    ``UNIT_TOL`` and read-only, float64 when it is real and complex128
    otherwise. ``leakage`` records the squared-norm deficit a constructor
    absorbed when renormalizing a truncated expansion; 0 for states that
    fit the cutoff exactly.
    """

    def __init__(self, amplitudes, leakage: float = 0.0):
        arr = _stored(amplitudes)
        if arr.ndim != 1:
            raise ValueError(f"amplitudes must be a vector, got shape {arr.shape}")
        nsq = float(np.vdot(arr, arr).real)
        # also refuses an empty or null vector and, as NaN compares false,
        # a non-finite one
        if not abs(nsq - 1.0) <= UNIT_TOL:
            raise ValueError(f"state vector must have unit norm, got norm^2 {nsq:.6e}")
        arr.flags.writeable = False
        self.amplitudes = arr
        self.leakage = float(leakage)

    @property
    def cutoff(self) -> int:
        return self.amplitudes.shape[0]

    def __repr__(self):
        return f"MultiModeState(cutoff={self.cutoff})"


class DensityOperator:
    """Hermitian positive-semidefinite operator on one truncated mode.

    Its trace lies in [1 - ``UNIT_TOL``, 1 + ``OPERATOR_TOL``]. The matrix
    is read-only, float64 when it is real and complex128 otherwise.
    ``leakage`` records the truncation deficit of the states it was built
    from, as on ``MultiModeState``.
    """

    def __init__(self, matrix, leakage: float = 0.0):
        m = _stored(matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
            raise ValueError(f"density operator must be square and non-empty, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError("density operator entries must be finite")
        dev = float(np.max(np.abs(m - m.conj().T)))
        if dev > OPERATOR_TOL:
            raise ValueError(f"matrix is not Hermitian (max deviation {dev:.3e})")
        smallest = float(np.linalg.eigvalsh(m)[0])
        if smallest < -OPERATOR_TOL:
            raise ValueError(f"matrix is not positive semidefinite (min eigenvalue {smallest:.3e})")
        tr = float(np.trace(m).real)
        if not 1.0 - UNIT_TOL <= tr <= 1.0 + OPERATOR_TOL:
            raise ValueError(f"trace {tr:.6e} outside [1 - {UNIT_TOL:g}, 1 + {OPERATOR_TOL:g}]")
        m.flags.writeable = False
        self.matrix = m
        self.leakage = float(leakage)

    @property
    def cutoff(self) -> int:
        return self.matrix.shape[0]

    def purity(self) -> float:
        """tr(rho^2); equals the squared Frobenius norm for Hermitian rho."""
        return float(np.sum(np.abs(self.matrix) ** 2))

    def eigenbranches(self):
        """Spectral branches for pure-state propagation of mixtures.

        Returns (weights, vectors, discarded) with weights descending,
        vectors as columns, and ``discarded`` the total weight dropped by
        the ``EIGEN_FLOOR``, its negative round-off clipped to 0. The
        vectors have the matrix's dtype. ``eigh`` returns the spectrum
        ascending, so reversing it by slicing puts the kept branches
        first: weights and vectors are views of its result, not copies.
        """
        w, v = np.linalg.eigh(self.matrix)
        w, v = w[::-1], v[:, ::-1]
        kept = int(np.count_nonzero(w >= EIGEN_FLOOR))
        discarded = float(np.clip(w[kept:], 0.0, None).sum())
        return w[:kept], v[:, :kept], discarded

    def __repr__(self):
        return f"DensityOperator(cutoff={self.cutoff})"


def projector(psi: MultiModeState) -> DensityOperator:
    """|psi><psi| for a pure state, with its leakage."""
    v = psi.amplitudes
    m = np.outer(v, v.conj())
    return DensityOperator(0.5 * (m + m.conj().T), leakage=psi.leakage)


def fidelity_mixed(rho: DensityOperator, psi: MultiModeState) -> float:
    """<psi|rho|psi> against a pure state."""
    if rho.cutoff != psi.cutoff:
        raise ValueError(f"cutoff mismatch: {rho.cutoff} vs {psi.cutoff}")
    v = psi.amplitudes
    return float(np.vdot(v, rho.matrix @ v).real)
