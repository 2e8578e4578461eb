"""Span tracer the benchmark worker installs around comaj's public functions.

A span is (name, start, end, parent, self seconds); self time is the span's
duration minus the time its child calls took.  Leaf functions that run
hundreds of thousands of times per round (the ``engine`` functions and the
``QPoly`` multiply and digest) are aggregated into a call count and a self
time instead of one span per call, but still count as children of the span
that called them.  Everything is kept in memory and written out at the end.

Each wrapper is installed wherever comaj looks the name up: every
``comaj.*`` module global that is the original object is replaced, so a
``from .qpoly import pochhammer`` binding is covered as well as
``qpoly.pochhammer`` itself.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
from time import perf_counter

# (layer name, module, attribute, kind).  "span" records one span per call,
# "leaf" aggregates, "pairs" is a leaf that also sums |a|*|b| over its two
# operands' terms, "build" splits an lru_cache'd function into cache-filling
# calls and lookups, "rss" is a span that also records ru_maxrss growth.
TARGETS = (
    ("engine.comaj_components", "comaj.engine", "comaj_components", "leaf"),
    ("engine.labeled_tableau", "comaj.engine", "labeled_tableau", "leaf"),
    ("engine.reading_order", "comaj.engine", "reading_order", "leaf"),
    ("engine.descents", "comaj.engine", "descents", "leaf"),
    ("engine.seq_weight", "comaj.engine", "seq_weight", "leaf"),
    ("qpoly.mul", "comaj.qpoly", "QPoly.__mul__", "pairs"),
    ("qpoly.digest", "comaj.qpoly", "QPoly.digest", "leaf"),
    ("qpoly.pochhammer", "comaj.qpoly", "pochhammer", "span"),
    ("qpoly.pochhammer_all", "comaj.qpoly", "pochhammer_all", "span"),
    ("qpoly.schur_principal_jt", "comaj.qpoly", "schur_principal_jt", "span"),
    ("enumeration.fundamental_principal_series", "comaj.enumeration",
     "fundamental_principal_series", "rss"),
    ("enumeration.schur_principal_by_tableaux", "comaj.enumeration",
     "schur_principal_by_tableaux", "span"),
    ("identities.schur_comaj_polynomial", "comaj.identities", "schur_comaj_polynomial", "span"),
    ("identities.graded_multiplicity_character", "comaj.identities",
     "graded_multiplicity_character", "span"),
    ("identities.labeled_tableau_polynomial", "comaj.identities",
     "labeled_tableau_polynomial", "span"),
    ("identities.fundamental_comaj_polynomial", "comaj.identities",
     "fundamental_comaj_polynomial", "span"),
    ("identities.bucket_build", "comaj.identities", "_box_buckets", "build"),
    ("characters.character", "comaj.characters", "character", "span"),
    ("perm.symmetric_group", "comaj.perm", "symmetric_group", "span"),
    ("tableaux.standard_tableaux", "comaj.tableaux", "standard_tableaux", "span"),
)

# Every verify_* function in comaj.identities is traced under this one name.
VERIFY = "identities.verify"


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self) -> None:
        self.origin = perf_counter()
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.spans: list = []
        # Open frames: [seconds spent in children, index of the enclosing span].
        self.stack: list[list] = [[0.0, -1]]
        self.leaves: dict[str, list] = {}
        self.term_pairs = 0
        self.rss_growth_mb = 0.0
        self.build_keys: dict[str, set] = {}
        self.missing: list[str] = []

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def span(self, name: str, fn, rss: bool = False):
        """Wrap fn so that every call records one span."""
        stack, spans = self.stack, self.spans
        name_id = self._name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            frame = [0.0, index]
            parent = stack[-1][1]
            stack.append(frame)
            rss_before = _maxrss_mb() if rss else 0.0
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if rss:
                    self.rss_growth_mb += _maxrss_mb() - rss_before
                duration = end - start
                spans[index] = (name_id, start, end, parent, duration - frame[0])
                stack[-1][0] += duration

        return wrapper

    def leaf(self, name: str, fn, pairs: bool = False):
        """Wrap fn so that calls add to a count and a self time."""
        stack = self.stack
        stat = self.leaves.setdefault(name, [0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if pairs:
                a, b = args
                self.term_pairs += len(a.terms) * (len(b.terms) if hasattr(b, "terms") else 1)
            frame = [0.0, stack[-1][1]]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                stat[0] += 1
                stat[1] += duration - frame[0]
                stack[-1][0] += duration

        return wrapper

    def build(self, name: str, fn):
        """Split calls of a cached function into cache-filling builds and lookups.

        A call that adds a cache miss (or any call, if fn has no cache) is a
        span named ``name``; the others are spans named ``name + ".lookup"``.
        """
        keys = self.build_keys.setdefault(name, set())
        info = getattr(fn, "cache_info", None)
        traced = self.span(name, fn)
        lookup_id = self._name_id(name + ".lookup")
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            keys.add((args, tuple(sorted(kwargs.items()))))
            misses = info().misses if info else None
            index = len(spans)
            try:
                return traced(*args, **kwargs)
            finally:
                if info and info().misses == misses:
                    spans[index] = (lookup_id, *spans[index][1:])

        return wrapper

    def install(self) -> None:
        """Replace every traced comaj function wherever comaj binds it."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "comaj" or key.startswith("comaj."))]
        targets = list(TARGETS)
        identities = sys.modules["comaj.identities"]
        targets += [(VERIFY, "comaj.identities", attr, "span")
                    for attr in sorted(vars(identities)) if attr.startswith("verify_")]
        for name, module_name, attr, kind in targets:
            owner = sys.modules.get(module_name)
            cls_name, _, attr_name = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            original = getattr(owner, attr_name, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            if kind in ("leaf", "pairs"):
                wrapper = self.leaf(name, original, pairs=(kind == "pairs"))
            elif kind == "build":
                wrapper = self.build(name, original)
            else:
                wrapper = self.span(name, original, rss=(kind == "rss"))
            if cls_name:
                setattr(owner, attr_name, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def summary(self) -> dict:
        """Per layer name: calls, self seconds and total seconds."""
        out: dict[str, dict] = {}
        for name_id, start, end, _parent, self_s in self.spans:
            row = out.setdefault(self.names[name_id], {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            row["calls"] += 1
            row["self_s"] += self_s
            row["total_s"] += end - start
        for name, (calls, self_s) in self.leaves.items():
            out[name] = {"calls": calls, "self_s": self_s, "total_s": self_s}
        return {
            "layers": out,
            "term_pairs": self.term_pairs,
            "rss_growth_mb": self.rss_growth_mb,
            "build_keys": {name: len(keys) for name, keys in self.build_keys.items()},
            "missing": self.missing,
        }

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "fields": ["name", "start_s", "end_s", "parent", "self_s"],
                "names": self.names,
                "spans": [
                    [name_id, round(start - self.origin, 7), round(end - self.origin, 7),
                     parent, round(self_s, 7)]
                    for name_id, start, end, parent, self_s in self.spans
                ],
                "leaves": self.leaves,
            }, fh, separators=(",", ":"))
