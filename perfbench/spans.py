"""Span tracing of catamp's layers, installed from outside the package.

``Tracer.install`` replaces each public function named in ``TARGETS`` with
a wrapper, in every catamp module that holds it (modules call each other
through imported names, so ``catamp.protocol.cat_state`` must be wrapped as
well as ``catamp.states.cat_state``). While an op is open, each wrapped
call records a span: name, start, end, the span that caused it and the op
it served. Spans live in flat arrays and are aggregated into per-layer
metrics, and written out, when the run ends. A target that no longer
exists is skipped, so its metrics read 0 instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import weakref
from array import array
from time import perf_counter

import numpy as np

# (span name, module, attribute); a dotted attribute names a method.
TARGETS = (
    ("fock.density_operator", "catamp.fock", "DensityOperator.__init__"),
    ("fock.normalized", "catamp.fock", "DensityOperator.normalized"),
    ("fock.eigenbranches", "catamp.fock", "DensityOperator.eigenbranches"),
    ("fock.purity", "catamp.fock", "DensityOperator.purity"),
    ("fock.fidelity_mixed", "catamp.fock", "fidelity_mixed"),
    ("states.coherent_state", "catamp.states", "coherent_state"),
    ("states.cat_state", "catamp.states", "cat_state"),
    ("states.squeezed_photon", "catamp.states", "squeezed_photon"),
    ("states.squeezed_vacuum", "catamp.states", "squeezed_vacuum"),
    ("states.mixed_inputs", "catamp.protocol", "mixed_inputs"),
    ("optics.beam_splitter_unitary", "catamp.optics", "beam_splitter_unitary"),
    ("optics.squeeze_unitary", "catamp.optics", "squeeze_unitary"),
    ("detection.outcome_diagonal", "catamp.detection", "outcome_diagonal"),
    ("protocol.amplify_once", "catamp.protocol", "amplify_once"),
    ("protocol.run_schedule", "catamp.protocol", "run_schedule"),
    ("protocol.optimal_squeezing", "catamp.protocol", "optimal_squeezing"),
    ("protocol.success_probability", "catamp.protocol", "success_probability"),
    ("protocol.squeezed_photon_cat_fidelity", "catamp.protocol",
     "squeezed_photon_cat_fidelity"),
    ("protocol.homodyne_error", "catamp.protocol", "homodyne_error"),
    ("cli.render_csv", "catamp.cli", "render_csv"),
)

STATES = ("states.coherent_state", "states.cat_state", "states.squeezed_photon",
          "states.squeezed_vacuum", "states.mixed_inputs")
CLOSED_FORMS = ("protocol.success_probability", "protocol.squeezed_photon_cat_fidelity",
                "protocol.homodyne_error")

# Per-layer metrics: name -> unit. Every one is reported, 0 when its layer
# was not called.
LAYER_METRICS = {
    "protocol.amplify_once.calls": "count",
    "protocol.amplify_once.self_s": "s",
    "protocol.amplify_once.self_ms.rank1": "ms",
    "protocol.amplify_once.self_ms.rank2-4": "ms",
    "protocol.amplify_once.self_ms.rank5-16": "ms",
    "protocol.branch_pairs": "count",
    "protocol.run_schedule.self_s": "s",
    "protocol.optimal_squeezing.calls": "count",
    "protocol.optimal_squeezing.s": "s",
    "protocol.closed_forms.s": "s",
    "optics.beam_splitter_unitary.calls": "count",
    "optics.beam_splitter_unitary.s": "s",
    "optics.u1_builds": "count",
    "optics.u1_bytes_total": "bytes",
    "optics.squeeze_unitary.s": "s",
    "detection.outcome_diagonal.calls": "count",
    "detection.outcome_diagonal.s": "s",
    "fock.density_operator.calls": "count",
    "fock.density_operator.s": "s",
    "fock.normalized.s": "s",
    "fock.eigenbranches.s": "s",
    "fock.eigenbranches.discarded_max": "prob",
    "fock.fidelity_mixed.s": "s",
    "fock.purity.s": "s",
    "states.calls": "count",
    "states.s": "s",
    "cli.render.s": "s",
    "micro.u1_build_ms": "ms",
    "micro.stage_self_ms.rank7-9": "ms",
    "micro.stage_self_ms.rank10-16": "ms",
    "micro.eigh_ms": "ms",
    "micro.fidelity_ms": "ms",
    "trace.ops": "count",
    "trace.spans": "count",
    "trace.overhead_pct": "%",
}


def _resolve(modname: str, attr: str):
    """Return (owner, name, function) or None when the target is gone."""
    try:
        owner = importlib.import_module(modname)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = getattr(owner, name, None)
    return None if fn is None else (owner, name, fn)


class Tracer:
    """Records spans of wrapped calls made while an op is open."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("d")  # probe result per span, NaN if none
        self.discarded_max = 0.0
        self._stack: list[int] = []
        self._op = -1
        self._seen_u1 = weakref.WeakValueDictionary()

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        probes = {"fock.eigenbranches": self._probe_eigenbranches,
                  "optics.beam_splitter_unitary": self._probe_u1}
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "catamp" or k.startswith("catamp."))]
        for span, modname, attr in TARGETS:
            self.names.append(span)
            found = _resolve(modname, attr)
            if found is None:
                continue
            owner, name, fn = found
            wrapper = self._wrap(len(self.names) - 1, fn, probes.get(span))
            if isinstance(owner, type):
                setattr(owner, name, wrapper)
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, key, wrapper)

    def _wrap(self, nid: int, fn, probe):
        tracer = self
        stack, name_id, parent, op = self._stack, self.name_id, self.parent, self.op
        start, end, value = self.start, self.end, self.value
        nan = float("nan")

        # U1 arrays returned outside ops (warm-up) must still be known, or
        # their first reuse inside an op would count as a build
        untraced_probe = self._probe_u1 if probe == self._probe_u1 else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._op < 0:
                result = fn(*args, **kwargs)
                if untraced_probe is not None:
                    untraced_probe(result)
                return result
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(tracer._op)
            end.append(0.0)
            value.append(nan)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if probe is not None:
                value[idx] = probe(result)
            return result

        return wrapper

    def _probe_eigenbranches(self, result) -> float:
        try:
            weights, _, discarded = result
        except (TypeError, ValueError):
            return float("nan")
        self.discarded_max = max(self.discarded_max, float(discarded))
        return float(len(weights))

    def _probe_u1(self, u) -> float:
        """nbytes if ``u`` is an array not returned before (a build), else 0."""
        key = id(u)
        if self._seen_u1.get(key) is u:
            return 0.0
        try:
            self._seen_u1[key] = u
        except TypeError:
            pass  # not weak-referenceable: every call counts as a build
        return float(getattr(u, "nbytes", 0))

    # -- recording --------------------------------------------------------

    def open_op(self, index: int) -> None:
        self._op = index

    def close_op(self) -> None:
        self._op = -1

    def write(self, path: str) -> None:
        """Write every span (and the name table) as a compressed npz."""
        np.savez_compressed(path, names=np.array(self.names), name_id=np.array(self.name_id),
                            parent=np.array(self.parent), op=np.array(self.op),
                            start=np.array(self.start), end=np.array(self.end),
                            value=np.array(self.value))

    # -- aggregation ------------------------------------------------------

    def layer_metrics(self, ops: int) -> dict:
        """Per-layer metrics over the recorded spans as name -> (value, unit);
        the tracing overhead is left to the caller."""
        nid = np.array(self.name_id, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end) - np.array(self.start)
        value = np.array(self.value)
        n = len(dur)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_t = dur - child
        ids = {name: i for i, name in enumerate(self.names)}

        def mask(*names):
            return np.isin(nid, [ids[x] for x in names])

        def calls(name):
            return int(mask(name).sum())

        def incl(name):
            return float(dur[mask(name)].sum())

        def outermost(names):
            """Inclusive time of spans in ``names`` not nested in another."""
            m = mask(*names)
            nested = np.zeros(n, dtype=bool)
            nested[has_parent] = m[parent[has_parent]]
            return int(m.sum()), float(dur[m & ~nested].sum())

        def median_ms(m):
            return float(np.median(dur[m]) * 1e3) if m.any() else 0.0

        # input rank of each stage from the eigenbranches calls it made;
        # a pure input makes none and counts as rank 1
        amp = np.flatnonzero(mask("protocol.amplify_once"))
        eig = np.flatnonzero(mask("fock.eigenbranches"))
        ranks: dict[int, list[float]] = {}
        for i in eig:
            ranks.setdefault(int(parent[i]), []).append(value[i])
        amp_rank = np.array([max(ranks.get(int(i), [1.0])) for i in amp])
        pairs = sum(float(np.prod(ranks.get(int(i), [1.0]))) for i in amp)
        amp_self_ms = self_t[amp] * 1e3

        def amp_median(lo, hi):
            sel = (amp_rank >= lo) & (amp_rank <= hi)
            return float(np.median(amp_self_ms[sel])) if sel.any() else 0.0

        u1 = mask("optics.beam_splitter_unitary")
        built = u1 & (value > 0)
        states_calls, states_s = outermost(STATES)
        m = {
            "protocol.amplify_once.calls": len(amp),
            "protocol.amplify_once.self_s": float(self_t[amp].sum()),
            "protocol.amplify_once.self_ms.rank1": amp_median(1, 1),
            "protocol.amplify_once.self_ms.rank2-4": amp_median(2, 4),
            "protocol.amplify_once.self_ms.rank5-16": amp_median(5, 16),
            "protocol.branch_pairs": pairs,
            "protocol.run_schedule.self_s": float(self_t[mask("protocol.run_schedule")].sum()),
            "protocol.optimal_squeezing.calls": calls("protocol.optimal_squeezing"),
            "protocol.optimal_squeezing.s": incl("protocol.optimal_squeezing"),
            "protocol.closed_forms.s": outermost(CLOSED_FORMS)[1],
            "optics.beam_splitter_unitary.calls": int(u1.sum()),
            "optics.beam_splitter_unitary.s": float(dur[u1].sum()),
            "optics.u1_builds": int(built.sum()),
            "optics.u1_bytes_total": float(value[built].sum()),
            "optics.squeeze_unitary.s": incl("optics.squeeze_unitary"),
            "detection.outcome_diagonal.calls": calls("detection.outcome_diagonal"),
            "detection.outcome_diagonal.s": incl("detection.outcome_diagonal"),
            "fock.density_operator.calls": calls("fock.density_operator"),
            "fock.density_operator.s": incl("fock.density_operator"),
            "fock.normalized.s": incl("fock.normalized"),
            "fock.eigenbranches.s": incl("fock.eigenbranches"),
            "fock.eigenbranches.discarded_max": self.discarded_max,
            "fock.fidelity_mixed.s": incl("fock.fidelity_mixed"),
            "fock.purity.s": incl("fock.purity"),
            "states.calls": states_calls,
            "states.s": states_s,
            "cli.render.s": incl("cli.render_csv"),
            "micro.u1_build_ms": median_ms(built),
            "micro.stage_self_ms.rank7-9": amp_median(7, 9),
            "micro.stage_self_ms.rank10-16": amp_median(10, 16),
            "micro.eigh_ms": median_ms(mask("fock.eigenbranches")),
            "micro.fidelity_ms": median_ms(mask("fock.fidelity_mixed")),
            "trace.ops": ops,
            "trace.spans": n,
        }
        return {k: (v, LAYER_METRICS[k]) for k, v in m.items()}
