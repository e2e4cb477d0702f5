"""In-memory span recorder for the traced benchmark run.

A span has a name, a start and end (perf_counter_ns), the index of the span
that was open when it started (its parent, -1 at the top) and the id of the
op it belongs to.  Spans are kept in a list and written out once, when the
run ends, so recording costs two clock reads and a list append.

Spans come from the benchmark's own files: ``instrument`` rebinds public
functions in the layercap modules that call them (``bounds.bound_a`` as seen
from ``bounds``, ``cli.intersect`` as seen from ``cli`` and so on) and
``restore`` puts the originals back.  Nothing inside the library changes.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
from time import perf_counter_ns

# (module, attribute as the calling module sees it, span name).  A span name
# is "<layer>.<function>", the layer being the layercap module that defines it.
TARGETS = (
    ("layercap.cli", "load_spec_file", "cli.parse"),
    ("layercap.cli", "region_document", "cli.region_document"),
    ("layercap.cli", "classify_document", "cli.classify_document"),
    ("layercap.cli", "render_json", "cli.render"),
    ("layercap.cli", "render_csv", "cli.render"),
    ("layercap.cli", "render_svg", "cli.render"),
    ("layercap.cli", "intersect", "geometry.intersect"),
    ("layercap.bounds", "intersect", "geometry.intersect"),
    ("layercap.regimes", "intersect", "geometry.intersect"),
    ("layercap.deterministic", "intersect", "geometry.intersect"),
    ("layercap.cli", "active_bounds", "bounds.active"),
    ("layercap.bounds", "bound_a", "bounds.evaluate"),
    ("layercap.bounds", "bound_b", "bounds.evaluate"),
    ("layercap.bounds", "bound_c", "bounds.evaluate"),
    ("layercap.regimes", "bound_b", "bounds.evaluate"),
    ("layercap.verification", "bound_b", "bounds.evaluate"),
    ("layercap.deterministic", "bound_a", "bounds.evaluate"),
    ("layercap.deterministic", "bound_b", "bounds.evaluate"),
    ("layercap.deterministic", "bound_c", "bounds.evaluate"),
    ("layercap.bounds", "critical_weights", "bounds.critical_weights"),
    ("layercap.regimes", "critical_weights", "bounds.critical_weights"),
    ("layercap.verification", "critical_weights", "bounds.critical_weights"),
    ("layercap.bounds", "layer_coefficients", "channel.layer_coefficients"),
    ("layercap.regimes", "layer_coefficients", "channel.layer_coefficients"),
    ("layercap.cli", "classify", "regimes.classify"),
    ("layercap.regimes", "classify", "regimes.classify"),
    ("layercap.verification", "coupling_check", "oracles.coupling_check"),
    ("layercap.verification", "mc_estimate_stats", "oracles.mc_estimate_stats"),
    ("layercap.verification", "verify_recovery", "deterministic.verify_recovery"),
)

# spans whose arguments and result are kept for counting after the run
KEEP = frozenset({
    "geometry.intersect",
    "bounds.active",
    "channel.layer_coefficients",
    "oracles.mc_estimate_stats",
})

NAME, START, END, PARENT, OP = range(5)


class Recorder:
    """Collects spans; ``op`` is stamped on every span opened while it is set."""

    def __init__(self):
        self.spans = []
        self.kept = {}  # span index -> (args, result)
        self.op = None
        self._stack = []
        self._patched = []

    @contextlib.contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter_ns(), 0, parent, self.op])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][END] = perf_counter_ns()
        self._stack.pop()

    def wrap(self, name, fn):
        keep = name in KEEP

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if keep:
                self.kept[idx] = (args, result)
            return result

        return traced

    def instrument(self, targets=TARGETS):
        """Rebind each target that exists; a missing one records nothing."""
        for module_name, attr, name in targets:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            self._patched.append((module, attr, fn))
            setattr(module, attr, self.wrap(name, fn))

    def restore(self):
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op"],
                       "spans": self.spans}, fh)


def _covered(intervals) -> int:
    """Length of the union of [start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list:
    """Per span, its duration minus the part of it covered by its children (ns)."""
    children = [[] for _ in spans]
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[START], s[END]))
    out = []
    for s, kids in zip(spans, children):
        clipped = [(max(a, s[START]), min(b, s[END])) for a, b in kids]
        covered = _covered([(a, b) for a, b in clipped if b > a])
        out.append(s[END] - s[START] - covered)
    return out
