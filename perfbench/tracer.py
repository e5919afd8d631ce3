"""Outside-in tracing of cognatekit: wraps the program's public functions.

The program itself is not instrumented.  ``Tracer.install`` replaces each
public function of the layer modules at *every* ``cognatekit.*`` module
binding that refers to it (modules import with ``from .x import y``, so
patching only the defining module would miss most calls), plus three hot
methods.  Coarse calls become spans; hot leaf calls are aggregated per
parent span, because ``sim`` alone runs ~800k times in one retrieval run.
Self time is a call's duration minus the time covered by wrapped calls
made inside it.  Everything stays in memory until ``write``.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
from time import perf_counter_ns

LAYERS = ("shingling", "ranking", "error_model", "scorer", "evaluation", "persistence", "cli")
METHODS = (
    ("error_model", "ErrorModel", "transformation_score"),
    ("scorer", "CombinedScorer", "score_candidates"),
    ("scorer", "CombinedScorer", "combined_score"),
)
# Called a handful of times per run: each call gets its own span.
SPAN_NAMES = frozenset({
    "cli.main",
    "evaluation.load_dataset",
    "evaluation.run_experiment",
    "evaluation.resolve_hyperparameters",
    "evaluation.tune",
    "evaluation.eval_classification",
    "evaluation.eval_mrr",
    "scorer.train_scorer",
    "scorer.CombinedScorer.score_candidates",
    "error_model.train_error_model",
    "ranking.rank",
    "ranking.build_index",
    "ranking.load_lexicon",
    "persistence.load_model",
    "persistence.save_model",
})


def _rank_label(bound):
    if bound.arguments.get("scorer") is not None:
        return "combined"
    return bound.arguments["params"].function


def _tune_label(bound):
    return bound.arguments["objective"]


LABELS = {"ranking.rank": _rank_label, "evaluation.tune": _tune_label}
# Distinct-argument keys, for "calls per distinct input" ratios.
KEYS = {
    "shingling.shingle": lambda args: args[0],
    "error_model.build_graph": lambda args: (args[0].source_word, args[1].source_word),
}


class Tracer:
    def __init__(self):
        # span: [id, parent id, name, label, start ns, end ns, self ns, result length]
        self.spans: list[list] = []
        # (parent span id, name) -> [calls, total ns, self ns]
        self.leaves: dict[tuple, list[int]] = {}
        self.distinct: dict[str, set] = {name: set() for name in KEYS}
        # frame: [ns covered by wrapped children, id of the enclosing span]
        self._stack: list[list] = [[0, None]]
        self._patched: list[tuple] = []

    # -- the benchmark's own spans -------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        span, frame = self._open(name, None)
        try:
            yield
        finally:
            self._close(span, frame)

    def _open(self, name, label):
        sid = len(self.spans)
        self.spans.append([sid, self._stack[-1][1], name, label, perf_counter_ns(), 0, 0, None])
        frame = [0, sid]
        self._stack.append(frame)
        return self.spans[sid], frame

    def _close(self, span, frame):
        span[5] = perf_counter_ns()
        self._stack.pop()
        duration = span[5] - span[4]
        span[6] = duration - frame[0]
        self._stack[-1][0] += duration

    # -- wrapping -------------------------------------------------------

    def _wrap(self, name, fn):
        stack = self._stack
        if name in SPAN_NAMES:
            signature = inspect.signature(fn)
            label_of = LABELS.get(name)

            @functools.wraps(fn)
            def spanned(*args, **kwargs):
                label = None
                if label_of is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    label = label_of(bound)
                span, frame = self._open(name, label)
                try:
                    result = fn(*args, **kwargs)
                    if name == "ranking.rank":
                        span[7] = len(result)
                    return result
                finally:
                    self._close(span, frame)

            return spanned

        leaves = self.leaves
        key_of = KEYS.get(name)
        seen = self.distinct.get(name)

        @functools.wraps(fn)
        def leaf(*args, **kwargs):
            if key_of is not None:
                seen.add(key_of(args))
            parent = stack[-1]
            frame = [0, parent[1]]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter_ns() - start
                stack.pop()
                parent[0] += duration
                entry = leaves.get((parent[1], name))
                if entry is None:
                    entry = leaves[(parent[1], name)] = [0, 0, 0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[0]

        return leaf

    def install(self) -> None:
        """Wrap every public layer function at each binding, and the methods."""
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "cognatekit"]
        for layer in LAYERS:
            module = sys.modules["cognatekit." + layer]
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", fn)
                for holder in modules:
                    for name, value in list(vars(holder).items()):
                        if value is fn:
                            self._patched.append((holder, name, fn))
                            setattr(holder, name, wrapped)
        for layer, cls_name, method in METHODS:
            cls = getattr(sys.modules["cognatekit." + layer], cls_name)
            fn = cls.__dict__[method]
            self._patched.append((cls, method, fn))
            setattr(cls, method, self._wrap(f"{layer}.{cls_name}.{method}", fn))

    def uninstall(self) -> None:
        for holder, name, fn in reversed(self._patched):
            setattr(holder, name, fn)
        self._patched.clear()

    # -- results ----------------------------------------------------------

    def totals(self) -> dict[str, dict]:
        """Per function name: calls, total seconds and self seconds."""
        out: dict[str, dict] = {}

        def add(name, calls, total_ns, self_ns):
            entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += calls
            entry["s"] += total_ns / 1e9
            entry["self_s"] += self_ns / 1e9

        for span in self.spans:
            add(span[2], 1, span[5] - span[4], span[6])
            if span[3] is not None:
                add(f"{span[2]}.{span[3]}", 1, span[5] - span[4], span[6])
        for (_, name), (calls, total_ns, self_ns) in self.leaves.items():
            add(name, calls, total_ns, self_ns)
        return out

    def subtree_calls(self, span_id: int, names) -> dict[str, int]:
        """Leaf call counts inside one span, its child spans included."""
        children: dict = {}
        for span in self.spans:
            children.setdefault(span[1], []).append(span[0])
        by_parent: dict = {}
        for (parent, name), entry in self.leaves.items():
            if name in names:
                by_parent.setdefault(parent, {})[name] = entry[0]
        counts = dict.fromkeys(names, 0)
        pending = [span_id]
        while pending:
            sid = pending.pop()
            for name, calls in by_parent.get(sid, {}).items():
                counts[name] += calls
            pending.extend(children.get(sid, ()))
        return counts

    def write(self, path) -> None:
        names = ("id", "parent", "name", "label", "start_ns", "end_ns", "self_ns", "results")
        payload = {
            "spans": [dict(zip(names, span)) for span in self.spans],
            "leaves": [
                {"parent": parent, "name": name, "calls": c, "total_ns": t, "self_ns": s}
                for (parent, name), (c, t, s) in self.leaves.items()
            ],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
            handle.write("\n")
