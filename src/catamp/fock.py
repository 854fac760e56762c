"""Dense linear algebra on truncated bosonic Fock spaces.

Pure multimode state vectors, single-mode density operators, tensor
products, partial traces and fidelities. Every value is immutable after
construction and every operation is a pure function of its inputs, so
instances can be shared freely across parameter-sweep workers.
"""

from __future__ import annotations

import numpy as np

DEFAULT_CUTOFF = 30

# Numerical-hygiene tolerances.
HERMITICITY_TOL = 1e-10
POSITIVITY_TOL = 1e-10
TRACE_TOL = 1e-10
NORMALIZATION_TOL = 1e-8

# Truncation leakage above this is surfaced as a warning on results.
LEAKAGE_WARN = 1e-6


class MultiModeState:
    """Pure state of one or more bosonic modes sharing a Fock cutoff.

    The amplitude tensor carries one axis per mode (mode 0 slowest
    varying) and is read-only. ``leakage`` records the squared-norm
    deficit a constructor absorbed when renormalizing a truncated
    expansion; 0 for states that fit the cutoff exactly.
    """

    def __init__(self, amplitudes, leakage: float = 0.0):
        arr = np.array(amplitudes, dtype=np.complex128)
        if arr.ndim < 1:
            raise ValueError("amplitude tensor needs at least one mode axis")
        cutoff = arr.shape[0]
        if cutoff < 1 or any(s != cutoff for s in arr.shape):
            raise ValueError(f"modes must share a single cutoff, got shape {arr.shape}")
        nsq = float(np.vdot(arr, arr).real)
        if not np.isfinite(nsq) or nsq <= 0.0:
            raise ValueError("state vector must be finite and non-null")
        arr.flags.writeable = False
        self.amplitudes = arr
        self.leakage = float(leakage)

    @property
    def mode_count(self) -> int:
        return self.amplitudes.ndim

    @property
    def cutoff(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def norm_sq(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

    @property
    def is_normalized(self) -> bool:
        return abs(self.norm_sq - 1.0) <= NORMALIZATION_TOL

    def normalized(self) -> "MultiModeState":
        """Rescale to unit norm (leakage tag preserved)."""
        return MultiModeState(self.amplitudes / np.sqrt(self.norm_sq), self.leakage)

    def __repr__(self):
        return (f"MultiModeState(modes={self.mode_count}, cutoff={self.cutoff}, "
                f"norm_sq={self.norm_sq:.6f})")


class DensityOperator:
    """Hermitian positive-semidefinite operator on one truncated mode.

    Sub-normalized operators carry a conditioning probability as their
    trace; ``trace_value`` caches it.
    """

    def __init__(self, matrix):
        m = np.array(matrix, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"density operator must be square, got shape {m.shape}")
        dev = float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0
        if dev > HERMITICITY_TOL:
            raise ValueError(f"matrix is not Hermitian (max deviation {dev:.3e})")
        smallest = float(np.linalg.eigvalsh(m)[0])
        if smallest < -POSITIVITY_TOL:
            raise ValueError(f"matrix is not positive semidefinite (min eigenvalue {smallest:.3e})")
        tr = float(np.trace(m).real)
        if tr < 0.0 or tr > 1.0 + TRACE_TOL:
            raise ValueError(f"trace {tr:.6e} outside [0, 1]")
        m.flags.writeable = False
        self.matrix = m
        self.trace_value = tr

    @property
    def cutoff(self) -> int:
        return self.matrix.shape[0]

    def normalized(self) -> "DensityOperator":
        """Unit-trace version; round-off negatives are clamped to zero."""
        w, v = np.linalg.eigh(self.matrix)
        w = np.clip(w, 0.0, None)
        total = float(w.sum())
        if total <= 0.0:
            raise ValueError("cannot normalize an operator with zero trace")
        m = (v * (w / total)) @ v.conj().T
        m = 0.5 * (m + m.conj().T)
        return DensityOperator(m)

    def purity(self) -> float:
        """tr(rho^2); equals the squared Frobenius norm for Hermitian rho."""
        return float(np.sum(np.abs(self.matrix) ** 2))

    def eigenbranches(self, min_weight: float = 1e-10):
        """Spectral branches for pure-state propagation of mixtures.

        Returns (weights, vectors, discarded) with weights descending,
        vectors as columns, and ``discarded`` the total weight dropped by
        the ``min_weight`` floor.
        """
        w, v = np.linalg.eigh(self.matrix)
        order = np.argsort(w)[::-1]
        w, v = w[order], v[:, order]
        keep = w >= min_weight
        discarded = float(np.clip(w[~keep], 0.0, None).sum())
        return w[keep], v[:, keep], discarded

    def __repr__(self):
        return f"DensityOperator(cutoff={self.cutoff}, trace={self.trace_value:.6f})"


def projector(psi: MultiModeState) -> DensityOperator:
    """|psi><psi| for a single-mode pure state."""
    if psi.mode_count != 1:
        raise ValueError("projector is defined for single-mode states only")
    v = psi.amplitudes
    m = np.outer(v, v.conj())
    return DensityOperator(0.5 * (m + m.conj().T))


def tensor(a: MultiModeState, b: MultiModeState) -> MultiModeState:
    """Tensor product; mode axes of ``a`` precede those of ``b``."""
    if a.cutoff != b.cutoff:
        raise ValueError(f"cutoff mismatch: {a.cutoff} vs {b.cutoff}")
    amp = np.tensordot(a.amplitudes, b.amplitudes, axes=0)
    return MultiModeState(amp, leakage=max(a.leakage, b.leakage))


def partial_trace(psi: MultiModeState, keep: int) -> DensityOperator:
    """Trace out all modes except ``keep``.

    The result's trace equals ||psi||^2, so sub-normalized inputs yield
    sub-normalized operators.
    """
    if psi.mode_count < 2:
        raise ValueError("partial trace needs at least two modes")
    if not 0 <= keep < psi.mode_count:
        raise ValueError(f"mode {keep} out of range [0, {psi.mode_count})")
    x = np.moveaxis(psi.amplitudes, keep, 0).reshape(psi.cutoff, -1)
    rho = x @ x.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return DensityOperator(rho)


def fidelity_pure(psi: MultiModeState, phi: MultiModeState) -> float:
    """|<psi|phi>|^2 for normalized pure states of equal shape."""
    if psi.amplitudes.shape != phi.amplitudes.shape:
        raise ValueError("state shapes differ")
    for s in (psi, phi):
        if not s.is_normalized:
            raise ValueError("fidelity_pure requires normalized states")
    return float(abs(np.vdot(psi.amplitudes, phi.amplitudes)) ** 2)


def fidelity_mixed(rho: DensityOperator, psi: MultiModeState) -> float:
    """<psi|rho|psi> against a normalized single-mode pure state."""
    if psi.mode_count != 1:
        raise ValueError("target state must be single-mode")
    if rho.cutoff != psi.cutoff:
        raise ValueError(f"cutoff mismatch: {rho.cutoff} vs {psi.cutoff}")
    if not psi.is_normalized:
        raise ValueError("fidelity_mixed requires a normalized target state")
    v = psi.amplitudes
    return float(np.vdot(v, rho.matrix @ v).real)


def apply_single_mode(op, psi: MultiModeState, mode: int) -> MultiModeState:
    """Contract a cutoff x cutoff matrix against one mode axis."""
    op = np.asarray(op, dtype=np.complex128)
    if op.shape != (psi.cutoff, psi.cutoff):
        raise ValueError(f"operator shape {op.shape} does not match cutoff {psi.cutoff}")
    if not 0 <= mode < psi.mode_count:
        raise ValueError(f"mode {mode} out of range [0, {psi.mode_count})")
    out = np.tensordot(op, psi.amplitudes, axes=([1], [mode]))
    out = np.moveaxis(out, 0, mode)
    return MultiModeState(out, leakage=psi.leakage)


def apply_two_mode(op, psi: MultiModeState, m1: int, m2: int) -> MultiModeState:
    """Contract a cutoff^2 x cutoff^2 matrix against the joint (m1, m2)
    index, with m1 the slower-varying half of the flattened index."""
    c = psi.cutoff
    op = np.asarray(op)
    if op.shape != (c * c, c * c):
        raise ValueError(f"operator shape {op.shape} does not match cutoff {c}")
    if m1 == m2:
        raise ValueError("two-mode operator needs distinct modes")
    for m in (m1, m2):
        if not 0 <= m < psi.mode_count:
            raise ValueError(f"mode {m} out of range [0, {psi.mode_count})")
    x = np.moveaxis(psi.amplitudes, (m1, m2), (0, 1))
    tail = x.shape[2:]
    y = (op @ x.reshape(c * c, -1)).reshape((c, c) + tail)
    out = np.moveaxis(y, (0, 1), (m1, m2))
    return MultiModeState(out, leakage=psi.leakage)
