"""Spans and counts at the boundaries of the program's layers, for the traced run.

``Tracer.install()`` replaces the public functions of each layer, in every
``uncond`` module namespace that holds them, with timing wrappers, and
``uninstall()`` puts the originals back; nothing is wrapped unless a traced
run installs it.  A span records its name, start, end and parent; a span
opened in a worker thread with no span of its own takes the innermost open
span of the main thread as its parent.  Self time is a span's duration minus
the union of its children's intervals.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict

import numpy as np

#: Public functions wrapped per layer (module of ``uncond``).
LAYERS = {
    "seqspace": ["row_norms"],
    "unconditionality": ["subset_max_norm", "sign_max_norm", "unconditionality_quotient", "quotient_lower_bound_search"],
    "lemma_lab": ["grothendieck_ratio", "grothendieck_search"],
    "witness": ["sylvester", "hadamard_witness", "tail_witness"],
    "classifier": ["classify", "region_grid", "cross_validate"],
    "cli": ["main"],
}

SEARCHES = ("unconditionality.quotient_lower_bound_search", "lemma_lab.grothendieck_search")

#: Spans kept for the trace file; aggregates count every span.
MAX_SPANS = 200_000


class _Span:
    __slots__ = ("id", "parent", "name", "t0", "children", "seen", "evals", "improves", "best")

    def __init__(self, sid, parent, name, t0):
        self.id, self.parent, self.name, self.t0 = sid, parent, name, t0
        self.children = []  # (t0, t1) of child spans
        self.seen = None  # x-families enumerated under a search
        self.evals = self.improves = 0
        self.best = -np.inf


def _covered(intervals) -> float:
    total, end = 0.0, -np.inf
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


class Tracer:
    def __init__(self, U):
        self.U = U
        self.stats = defaultdict(float)
        self.spans: list[tuple] = []
        self.dropped = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[_Span] = []
        self._patches = []
        modules = [m for k, m in sys.modules.items() if (k == "uncond" or k.startswith("uncond.")) and m is not None]
        for layer, names in LAYERS.items():
            home = sys.modules[f"uncond.{layer}"]
            for name in names:
                orig = getattr(home, name)
                wrapper = self._wrap(f"{layer}.{name}", orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._patches.append((mod, attr, orig, wrapper))
        family = U.Family
        self._family_init = family.__post_init__

        def post_init(obj, _orig=self._family_init):
            self.stats["family.builds"] += 1
            _orig(obj)

        self._family_wrapper = post_init

    def install(self):
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)
        self.U.Family.__post_init__ = self._family_wrapper

    def uninstall(self):
        for mod, attr, orig, _ in self._patches:
            setattr(mod, attr, orig)
        self.U.Family.__post_init__ = self._family_init

    def _stack(self):
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enclosing_search(self, span):
        while span is not None:
            if span.name in SEARCHES:
                return span
            span = span.parent
        return None

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            span = _Span(next(self._ids), parent, name, 0.0)
            stack.append(span)
            out = err = None
            span.t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            except BaseException as exc:
                err = exc
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self._finish(name, span, t1, args, kwargs, out, err)

        return wrapper

    def _finish(self, name, span, t1, args, kwargs, out, err):
        s = self.stats
        dur = t1 - span.t0
        s[f"{name}.calls"] += 1
        s[f"{name}.incl_s"] += dur
        s[f"{name}.self_s"] += dur - _covered(span.children)
        if span.parent is not None:
            span.parent.children.append((span.t0, t1))
        if len(self.spans) < MAX_SPANS:
            self.spans.append((span.id, span.parent.id if span.parent else 0, name, span.t0, t1))
        else:
            self.dropped += 1
        if name == "seqspace.row_norms":
            s["row_norms.rows"] += np.shape(args[0])[0]
        elif name in ("unconditionality.subset_max_norm", "unconditionality.sign_max_norm"):
            mode = args[2] if len(args) > 2 else kwargs.get("mode", "exhaustive")
            fam = args[0]
            if str(mode).startswith("exh") and err is None:
                s["positions"] += 1 << len(fam)
                s["positions.incl_s"] += dur
            search = self._enclosing_search(span.parent)
            if search is not None and name.endswith("subset_max_norm"):
                key = (np.asarray(getattr(fam, "matrix", fam)).tobytes(), str(args[1] if len(args) > 1 else kwargs.get("q")))
                if search.seen is None:
                    search.seen = set()
                s["subset.in_search"] += 1
                s["subset.repeats"] += key in search.seen
                search.seen.add(key)
        elif name == "unconditionality.unconditionality_quotient":
            if isinstance(err, ValueError) and "degenerate" in str(err):
                s["quotient.degenerate"] += 1
            search = self._enclosing_search(span.parent)
            if search is not None:
                search.evals += 1
                if out is not None and out.quotient > search.best:
                    search.best = out.quotient
                    search.improves += 1
        elif name == "unconditionality.quotient_lower_bound_search":
            s["search.evals"] += span.evals
            s["search.improves"] += span.improves
        elif name == "lemma_lab.grothendieck_ratio":
            s["grothendieck_ratio.degenerate"] += isinstance(err, ValueError)
        elif name == "witness.tail_witness" and out is not None:
            s["tail.terms"] += out.N
        elif name == "classifier.region_grid" and out is not None:
            s["grid.points"] += len(out)

    def per_layer(self, rounds: int) -> dict:
        """Per-layer metrics: counts and self seconds per traced round, shares and rates as ratios."""
        s = self.stats

        def per_round(key):
            return s[key] / rounds

        def ratio(a, b):
            return s[a] / s[b] if s[b] else 0.0

        u, lab, w, c = "unconditionality", "lemma_lab", "witness", "classifier"
        return {
            "seqspace.row_norms.calls": per_round("seqspace.row_norms.calls"),
            "seqspace.row_norms.rows_per_call": ratio("row_norms.rows", "seqspace.row_norms.calls"),
            "seqspace.row_norms.self_s": per_round("seqspace.row_norms.self_s"),
            f"{u}.positions": per_round("positions"),
            f"{u}.positions_per_s": ratio("positions", "positions.incl_s"),
            f"{u}.subset_max_norm.calls": per_round(f"{u}.subset_max_norm.calls"),
            f"{u}.subset_max_norm.self_s": per_round(f"{u}.subset_max_norm.self_s"),
            f"{u}.sign_max_norm.calls": per_round(f"{u}.sign_max_norm.calls"),
            f"{u}.sign_max_norm.self_s": per_round(f"{u}.sign_max_norm.self_s"),
            f"{u}.subset_max_norm.repeat_share": ratio("subset.repeats", "subset.in_search"),
            f"{u}.family.builds": per_round("family.builds"),
            f"{u}.quotient.calls": per_round(f"{u}.unconditionality_quotient.calls"),
            f"{u}.quotient.degenerate": per_round("quotient.degenerate"),
            f"{u}.quotient.self_s": per_round(f"{u}.unconditionality_quotient.self_s"),
            f"{u}.search.calls": per_round(f"{u}.quotient_lower_bound_search.calls"),
            f"{u}.search.self_s": per_round(f"{u}.quotient_lower_bound_search.self_s"),
            f"{u}.search.evals_per_call": ratio("search.evals", f"{u}.quotient_lower_bound_search.calls"),
            f"{u}.search.improve_share": ratio("search.improves", "search.evals"),
            f"{lab}.grothendieck_ratio.calls": per_round(f"{lab}.grothendieck_ratio.calls"),
            f"{lab}.grothendieck_ratio.degenerate": per_round("grothendieck_ratio.degenerate"),
            f"{lab}.grothendieck_ratio.self_s": per_round(f"{lab}.grothendieck_ratio.self_s"),
            f"{lab}.grothendieck_search.self_s": per_round(f"{lab}.grothendieck_search.self_s"),
            f"{w}.sylvester.self_s": per_round(f"{w}.sylvester.self_s"),
            f"{w}.hadamard_witness.calls": per_round(f"{w}.hadamard_witness.calls"),
            f"{w}.hadamard_witness.self_s": per_round(f"{w}.hadamard_witness.self_s"),
            f"{w}.tail_witness.terms": per_round("tail.terms"),
            f"{w}.tail_witness.terms_per_s": ratio("tail.terms", f"{w}.tail_witness.incl_s"),
            f"{w}.tail_witness.self_s": per_round(f"{w}.tail_witness.self_s"),
            f"{c}.classify.calls": per_round(f"{c}.classify.calls"),
            f"{c}.classify.self_s": per_round(f"{c}.classify.self_s"),
            f"{c}.region_grid.points": per_round("grid.points"),
            f"{c}.region_grid.self_s": per_round(f"{c}.region_grid.self_s"),
            f"{c}.cross_validate.self_s": per_round(f"{c}.cross_validate.self_s"),
            "cli.main.calls": per_round("cli.main.calls"),
            "cli.main.self_s": per_round("cli.main.self_s"),
        }

    def dump(self) -> dict:
        return {"spans": self.spans, "dropped_spans": self.dropped, "totals": dict(self.stats)}
