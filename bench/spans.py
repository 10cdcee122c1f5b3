"""Span recording for the traced run.

The layers are wrapped at run time from here, and restored afterwards;
no file of the package changes.  A span is (name, start, end, parent,
job).  Spans are kept in flat arrays while the run lasts and written out
when it ends.  Within one thread spans nest, so the self time of a span
is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import json
import sys
from array import array
from time import perf_counter

# Span name -> the functions and methods it covers, as "module:qualname".
LAYERS = {
    "ring.coeff_mul": ["ring:Coeff.__mul__"],
    "ring.coeff_addsub": ["ring:Coeff.__add__", "ring:Coeff.__sub__"],
    "poly.xpoly_arith": [
        "poly:XPoly.__add__", "poly:XPoly.__sub__", "poly:XPoly.__mul__",
        "poly:XPoly.mul_term", "poly:XPoly.scale",
    ],
    "poly.tpoly_arith": [
        "poly:TPoly.__add__", "poly:TPoly.__sub__", "poly:TPoly.__mul__", "poly:TPoly.scale",
    ],
    "poly.d_image": ["poly:d_image"],
    "poly.parse": ["poly:parse_poly", "poly:parse_monomial"],
    "poly.format": [
        "poly:XPoly.__str__", "poly:TPoly.__str__", "poly:format_monomial", "rewrite:format_trace",
    ],
    "rewrite.step": ["rewrite:pathless_step"],
    "rewrite.scan": ["rewrite:find_path_triples"],
    "rewrite.loop": ["rewrite:reduce_pathless"],
    "groebner.step": ["groebner:reduce_step"],
    "groebner.nf": ["groebner:normal_form"],
    "groebner.basis": ["groebner:generate_basis"],
    "groebner.buchberger": ["groebner:buchberger_check"],
    "series.a_image": ["series:a_image_rat"],
    "series.ratfrac_add": ["series:QRatFrac.__add__"],
    "series.a_s_expand": ["series:a_s_expand"],
    "series.trunc_mul": ["series:QTruncSeries.__mul__"],
    "series.e_image": ["series:e_image"],
    "series.tw_mul": ["series:TWSeries.__mul__"],
    "series.b_map": ["series:b_map"],
    "algebra.apply_perm": ["algebra:apply_perm"],
    "algebra.enumerate_forkless": ["algebra:enumerate_forkless"],
    "cli.main": ["cli:main"],
}

# Wrapping every Coeff operation costs the most; it gets a pass of its own
# so that it does not inflate the self time of the other layers.
RING = ("ring.coeff_mul", "ring.coeff_addsub")

PACKAGE = "subdivalg"


class Recorder:
    """Flat, append-only span storage for one thread."""

    def __init__(self, names: list):
        self.names = list(names)
        self.name = array("H")
        self.parent = array("l")
        self.job = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack: list = []
        self.current_job = -1
        self.counters = {"poly.terms_built": 0, "rewrite.peak_terms": 0}

    def wrap(self, name: str, fn, after=None):
        name_id = self.names.index(name)
        names, parents, jobs = self.name, self.parent, self.job
        starts, ends, stack = self.start, self.end, self.stack
        clock = perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            jobs.append(self.current_job)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def __len__(self) -> int:
        return len(self.start)

    def self_times(self) -> list:
        """Per span: duration minus the durations of its direct children."""
        start, end, parent = self.start, self.end, self.parent
        out = [e - s for s, e in zip(start, end)]
        for idx, p in enumerate(parent):
            if p >= 0:
                out[p] -= end[idx] - start[idx]
        return out

    def layer_totals(self) -> dict:
        """{name: (calls, self seconds)} over all spans."""
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for name_id, value in zip(self.name, self.self_times()):
            calls[name_id] += 1
            self_s[name_id] += value
        return {n: (calls[i], self_s[i]) for i, n in enumerate(self.names)}

    def folded_self(self, fold: tuple) -> dict:
        """{name: self seconds}, where the self time of each span named in
        fold is credited to its nearest ancestor not named in fold, as if
        the spans in fold were not recorded."""
        fold_ids = {self.names.index(name) for name in fold}
        owner: list = []  # per span: the name id its self time goes to
        totals = [0.0] * len(self.names)
        for name_id, p, value in zip(self.name, self.parent, self.self_times()):
            own = name_id if name_id not in fold_ids or p < 0 else owner[p]
            owner.append(own)
            totals[own] += value
        return {name: totals[i] for i, name in enumerate(self.names) if i not in fold_ids}

    def covered(self, skip: tuple = ()) -> float:
        """Time covered by the outermost spans once the spans named in skip
        are taken out of the tree."""
        skip_ids = {self.names.index(name) for name in skip}
        # outer[i]: span i or its nearest ancestor not in skip lies inside
        # another span that is not in skip.
        outer: list = []
        total = 0.0
        for name_id, p, s, e in zip(self.name, self.parent, self.start, self.end):
            inside = p >= 0 and (outer[p] or self.name[p] not in skip_ids)
            outer.append(inside)
            if not inside and name_id not in skip_ids:
                total += e - s
        return total

    def write(self, stem: str) -> None:
        """stem.json describes the columns; stem.bin holds them back to back."""
        columns = [("name", self.name), ("parent", self.parent), ("job", self.job),
                   ("start", self.start), ("end", self.end)]
        with open(stem + ".bin", "wb") as handle:
            for _, column in columns:
                column.tofile(handle)
        meta = {
            "spans": len(self),
            "names": self.names,
            "columns": [[label, column.typecode, column.itemsize] for label, column in columns],
            "counters": self.counters,
        }
        with open(stem + ".json", "w", encoding="utf-8") as handle:
            json.dump(meta, handle, indent=1)


def _after(recorder: Recorder, name: str):
    counters = recorder.counters
    if name == "poly.xpoly_arith":
        def after(result):
            counters["poly.terms_built"] += len(result.terms)
        return after
    if name == "rewrite.loop":
        def after(result):
            _, trace = result
            peak = max((len(step.after.terms) for step in trace), default=0)
            counters["rewrite.peak_terms"] = max(counters["rewrite.peak_terms"], peak)
        return after
    return None


class Patches:
    """Install wrappers for the given layers; undo() restores the originals."""

    def __init__(self, recorder: Recorder, layers: list):
        self.undo_list: list = []
        modules = [m for key, m in sys.modules.items() if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for name in layers:
            after = _after(recorder, name)
            for target in LAYERS[name]:
                module_name, qualname = target.split(":")
                owner = importlib.import_module(f"{PACKAGE}.{module_name}")
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
                wrapped = recorder.wrap(name, original, after)
                if path:
                    self._set(owner, attr, wrapped)
                else:
                    # A module function is also bound, by import, in every
                    # module that uses it; replace each binding.
                    for module in modules:
                        if getattr(module, attr, None) is original:
                            self._set(module, attr, wrapped)

    def _set(self, owner, attr: str, value) -> None:
        self.undo_list.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self.undo_list:
            owner, attr, original = self.undo_list.pop()
            setattr(owner, attr, original)
