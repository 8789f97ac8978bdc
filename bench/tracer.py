"""Span tracer that wraps latticeqe's public entry points from outside.

Each layer is a group of public functions of one ``latticeqe`` module. The
wrappers replace the function wherever it was imported (every module
attribute that is the original function object), so calls between modules
and calls inside a module both pass through a span. Spans stay in memory
with their parent links until :meth:`Tracer.end_pass`; nothing inside
``src/`` is changed.

``lattice`` gets no span: its calls are too fine-grained to wrap without
distorting the run, and their time shows up inside the callers.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc

MIB = float(1 << 20)


def _basis_bytes(itemsize):
    def count(args, kwargs, result):
        N, d = args[0], args[1]
        return {"bytes": N ** (2 * d) * itemsize, "factor_bytes": d * N * N * itemsize}
    return count


def _pair_counts(args, kwargs, result):
    N, d = args[0], args[1]
    kept = sum(result.values())

    def visited():
        # Ordered pairs inside each degeneracy class, times the 4^d sign
        # pairs. Runs after the pass, when the wrappers open no spans.
        from latticeqe import spectra
        eigs = spectra.dirichlet_eigenvalues(N, d)
        classes = spectra.degeneracy_classes(eigs, spectra.default_deg_tol(d))
        return {"visited": sum(len(c) ** 2 for c in classes) * 4 ** d}

    return {"kept": kept}, visited


def _contract_ops(args, kwargs, result):
    basis = args[0]
    return {"ops": basis.box.volume * basis.n}


def _eigensolve_v3(args, kwargs, result):
    return {"v3": len(args[0]) ** 3}


def _columns(args, kwargs, result):
    return {"columns": args[0].n}


def _evals(args, kwargs, result):
    return {"evals": sum(int(N) for N in args[0]) * (int(args[1]) + 1)}


def _emitted(args, kwargs, result):
    return {"rows": len(args[0].rows), "bytes": sum(p.stat().st_size for p in result)}


# layer -> (module, {function: counter or None}); the counter turns the
# call's arguments and result into counts and must stay O(1) inside the
# span; work that is not O(1) goes into a callable evaluated after the pass.
LAYERS = {
    "cli.main": ("cli", {"main": None}),
    "experiments.run": ("experiments", {"run": None}),
    "observables.build": ("observables", {"build_observable": None}),
    "spectra.basis": ("spectra", {
        "sine_basis": None,
        "bloch_basis": None,
        "sine_matrix": _basis_bytes(8),
        "bloch_matrix": _basis_bytes(16),
        "dirichlet_eigenvalues": None,
        "periodic_eigenvalues": None,
    }),
    "spectra.classes": ("spectra", {"degeneracy_classes": None}),
    "spectra.pairs": ("spectra", {"lemma_c1_counts": _pair_counts, "lemma_c1_count": None}),
    "time_average.contract": ("time_average", {
        "expectations": _contract_ops, "quantum_variance": None, "centered": None,
    }),
    "time_average.timeavg": ("time_average", {
        "time_averaged_observable": None, "numeric_time_average": None, "center_matrix": None,
    }),
    "time_average.fourier": ("time_average", {
        "fourier_coefficient": None,
        "fourier_coefficients": None,
        "theta_decompose": None,
        "bessel_bound_check": None,
    }),
    "schrodinger.build": ("schrodinger", {
        "build_operator": None, "load_potential": None, "counterexample_potential": None,
    }),
    "schrodinger.eigensolve": ("schrodinger", {"eigensolve_symmetric": _eigensolve_v3, "eigenbasis": None}),
    "schrodinger.profile": ("schrodinger", {
        "counterexample_mass_profile": None, "partial_qe_experiment": None, "lc_deviation": None,
    }),
    "correspondence.verify": ("correspondence", {
        "verify_correspondence_family": _columns, "verify_correspondence": None,
    }),
    "correlators.scan": ("correlators", {"wucha_error_scan": _evals, "sine_shift_overlaps": None}),
    "reporting.emit": ("reporting", {"emit_report": _emitted}),
}


class Span:
    __slots__ = ("layer", "fn", "parent", "start", "end", "child", "base", "peak", "counts")

    def __init__(self, layer, fn, parent, start, base):
        self.layer, self.fn, self.parent, self.start = layer, fn, parent, start
        self.end = None
        self.child = 0.0
        self.base = self.peak = base
        self.counts = {}

    def as_dict(self, index):
        return {
            "id": index, "layer": self.layer, "fn": self.fn, "parent": self.parent,
            "start": self.start, "end": self.end, "self_s": self.end - self.start - self.child,
            "peak_mb": (self.peak - self.base) / MIB, "counts": self.counts,
        }


class Tracer:
    """Spans of one pass at a time; inactive wrappers cost one attribute check."""

    def __init__(self):
        self.active = False
        self.memory = False
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.deferred: list[tuple[Span, object]] = []

    def install(self, package):
        """Wrap every listed function wherever a latticeqe module imported it."""
        modules = [m for name, m in sys.modules.items()
                   if name == package.__name__ or name.startswith(package.__name__ + ".")]
        for layer, (modname, functions) in LAYERS.items():
            home = sys.modules[f"{package.__name__}.{modname}"]
            for fn_name, counter in functions.items():
                original = getattr(home, fn_name)
                wrapped = self._wrap(original, layer, counter)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapped)

    def _wrap(self, fn, layer, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = tracer._open(layer, fn.__name__)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if counter is not None:
                counts = counter(args, kwargs, result)
                if isinstance(counts, tuple):
                    counts, later = counts
                    tracer.deferred.append((span, later))
                span.counts.update(counts)
            return result

        return traced

    def begin_pass(self, memory: bool = False):
        """Start recording spans; with ``memory`` also peak traced memory per span.

        tracemalloc slows allocation-heavy Python code several times over, so
        self times come from passes without it and peaks from passes with it.
        """
        self.spans, self.stack, self.deferred = [], [], []
        self.memory = memory
        if memory:
            tracemalloc.start()
        self.active = True

    def end_pass(self) -> list[Span]:
        self.active = False
        if self.memory:
            tracemalloc.stop()
        for span, later in self.deferred:
            span.counts.update(later())
        return self.spans

    def _open(self, layer, fn):
        parent = self.stack[-1] if self.stack else None
        cur = 0
        if self.memory:
            cur, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                p = self.spans[parent]
                p.peak = max(p.peak, peak)
            tracemalloc.reset_peak()
        span = Span(layer, fn, parent, 0.0, cur)
        self.spans.append(span)
        self.stack.append(len(self.spans) - 1)
        span.start = time.perf_counter()
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self.stack.pop()
        if self.memory:
            _, peak = tracemalloc.get_traced_memory()
            span.peak = max(span.peak, peak)
            tracemalloc.reset_peak()
        if span.parent is not None:
            p = self.spans[span.parent]
            p.child += span.end - span.start
            p.peak = max(p.peak, span.peak)


def layer_totals(spans: list[Span]) -> dict:
    """Per layer: self time, top-level calls, peak traced memory, summed counts."""
    out = {layer: {"self_s": 0.0, "calls": 0, "peak_mb": 0.0, "counts": {}} for layer in LAYERS}
    for span in spans:
        agg = out[span.layer]
        agg["self_s"] += span.end - span.start - span.child
        if span.parent is None or spans[span.parent].layer != span.layer:
            agg["calls"] += 1
        agg["peak_mb"] = max(agg["peak_mb"], (span.peak - span.base) / MIB)
        for key, value in span.counts.items():
            agg["counts"][key] = agg["counts"].get(key, 0) + value
    return out
