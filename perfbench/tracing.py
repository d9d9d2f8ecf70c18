"""Outside-in span tracing of quasicut's public call sites.

``Tracer`` replaces names in the namespaces where the package's modules (and
the benchmark) look them up, for example ``quasicut.sampler.apply_gate`` or
the ``ShotStream.random`` method, with wrappers that record one span per
call: (span id, parent span id, call id, name, start, end). The call id is
the id of the outermost span, so all spans under one benchmark call share
it. Spans stay in memory until ``write`` saves them.

Nothing is wrapped outside a ``Tracer``'s ``with`` block, so untraced runs
call the package's functions directly. A name that no longer exists (a later
refactor may remove or bypass a call site) is listed in ``absent`` and
reads as zero calls; it never stops the run.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
from collections import defaultdict
from time import perf_counter

# (module the caller looks the name up in, attribute, span name). Span names
# are "<defining module>.<function>"; a class attribute is given as
# "Class.method".
CALL_SITES: tuple[tuple[str, str, str], ...] = (
    # the benchmark's own calls go through the package namespace
    ("quasicut", "estimate", "sampler.estimate"),
    ("quasicut", "exact_expectation", "circuit.exact_expectation"),
    ("quasicut", "circuit_from_doc", "circuit.from_doc"),
    ("quasicut", "observable_from_doc", "circuit.from_doc"),
    ("quasicut", "decompose", "decomposition.decompose"),
    ("quasicut", "legacy_decompose", "decomposition.legacy_decompose"),
    ("quasicut", "reconstruct_ptm", "decomposition.reconstruct_ptm"),
    ("quasicut", "pauli_coefficients", "canonical.pauli_coefficients"),
    ("quasicut", "canonical_unitary", "canonical.canonical_unitary"),
    ("quasicut", "ptm_of_unitary", "algebra.ptm_of_unitary"),
    ("quasicut", "realize", "local_basis.realize"),
    ("quasicut", "sweep", "analysis.sweep"),
    ("quasicut", "find_max_w", "analysis.find_max_w"),
    ("quasicut.cli", "main", "cli.main"),
    # sampler -> circuit, decomposition, canonical
    ("quasicut.sampler", "run_shot", "sampler.run_shot"),
    ("quasicut.sampler", "ShotStream.__init__", "sampler.ShotStream.__init__"),
    ("quasicut.sampler", "ShotStream.random", "sampler.ShotStream.random"),
    ("quasicut.sampler", "initial_state", "circuit.initial_state"),
    ("quasicut.sampler", "apply_gate", "circuit.apply_gate"),
    ("quasicut.sampler", "apply_1q", "circuit.apply_1q"),
    ("quasicut.sampler", "observable_expectation", "circuit.observable"),
    ("quasicut.sampler", "pauli_string_expectation", "circuit.observable"),
    ("quasicut.sampler", "decompose", "decomposition.decompose"),
    ("quasicut.sampler", "pauli_coefficients", "canonical.pauli_coefficients"),
    # cli -> everything it dispatches to
    ("quasicut.cli", "estimate", "sampler.estimate"),
    ("quasicut.cli", "exact_expectation", "circuit.exact_expectation"),
    ("quasicut.cli", "circuit_from_doc", "circuit.from_doc"),
    ("quasicut.cli", "observable_from_doc", "circuit.from_doc"),
    ("quasicut.cli", "decompose", "decomposition.decompose"),
    ("quasicut.cli", "reconstruct_ptm", "decomposition.reconstruct_ptm"),
    ("quasicut.cli", "pauli_coefficients", "canonical.pauli_coefficients"),
    ("quasicut.cli", "canonical_unitary", "canonical.canonical_unitary"),
    ("quasicut.cli", "ptm_of_unitary", "algebra.ptm_of_unitary"),
    ("quasicut.cli", "sweep", "analysis.sweep"),
    # analysis -> decomposition, canonical (the solver's objective)
    ("quasicut.analysis", "weight_formula", "analysis.weight_formula"),
    ("quasicut.analysis", "pauli_coefficients", "canonical.pauli_coefficients"),
    ("quasicut.analysis", "gate_based_cost", "circuit.gate_based_cost"),
    # decomposition -> canonical, local_basis
    ("quasicut.decomposition", "pauli_coefficients", "canonical.pauli_coefficients"),
    ("quasicut.decomposition", "basis_ptm", "local_basis.basis_ptm"),
)


class Tracer:
    """Records spans around ``CALL_SITES`` while entered (a context manager).

    The sites are looked up once, when the tracer is made; each ``with``
    block installs the wrappers and its exit restores the originals, so
    traced and untraced calls can alternate. Spans accumulate across blocks.
    """

    def __init__(self, sites: tuple[tuple[str, str, str], ...] = CALL_SITES) -> None:
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._ids = itertools.count()
        # (owner, attribute, original, wrapper)
        self._sites: list[tuple[object, str, object, object]] = []
        for module_name, attr, span_name in sites:
            try:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._sites.append((owner, leaf, original, self._wrap(span_name, original)))

    def _wrap(self, name: str, fn):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else -1
            root = stack[0] if stack else sid
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, root, name, start, end))

        return wrapper

    def __enter__(self) -> Tracer:
        for owner, leaf, _original, wrapper in self._sites:
            setattr(owner, leaf, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, leaf, original, _wrapper in reversed(self._sites):
            setattr(owner, leaf, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy seconds and self seconds.

        Busy time counts a span only when no ancestor has the same name, so a
        layer that calls itself is not counted twice. Self time is a span's
        duration minus its direct children's durations.
        """
        child_time: dict[int, float] = defaultdict(float)
        by_id: dict[int, tuple[int, str]] = {}
        for sid, parent, _root, name, start, end in self.spans:
            by_id[sid] = (parent, name)
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
        )
        for sid, parent, _root, name, start, end in self.spans:
            row = out[name]
            row["calls"] += 1
            row["self_s"] += (end - start) - child_time[sid]
            ancestor = parent
            while ancestor >= 0 and by_id[ancestor][1] != name:
                ancestor = by_id[ancestor][0]
            if ancestor < 0:
                row["busy_s"] += end - start
        return dict(out)

    def write(self, path) -> None:
        """Save the spans as gzip CSV, times in microseconds from the first span."""
        origin = min((span[4] for span in self.spans), default=0.0)
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write("span,parent,call,name,start_us,end_us\n")
            for sid, parent, root, name, start, end in sorted(self.spans):
                handle.write(
                    f"{sid},{parent},{root},{name},"
                    f"{(start - origin) * 1e6:.3f},{(end - origin) * 1e6:.3f}\n"
                )
