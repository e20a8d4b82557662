"""Spans around calls into the package's layers, recorded from outside.

`Tracer.installed()` replaces each traced function by a wrapper at its
module attribute, at every name another package module bound to it on
import (for example ``scenarios.min_eigenvalue`` and ``cli.covering_sweep``)
and, for methods, at the class. Spans live in memory: name, start, end,
parent span and pass number. A span's self time is its duration minus the
durations of its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import inspect
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

PACKAGE = "stabletori"


def _bound(fn, args, kwargs) -> dict:
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _count_min_eigenvalue(c, fn, args, kwargs, result):
    form = _bound(fn, args, kwargs)["form"]
    c["calls"] += 1
    c["dof"] += form.dof
    c["dense_calls" if result.iterations == 0 else "sparse_calls"] += 1
    digest = hashlib.blake2b(digest_size=16)
    for m in (form.Q.tocsr(), form.M.tocsr()):
        for part in (m.data, m.indices, m.indptr):
            digest.update(np.ascontiguousarray(part).tobytes())
    c.setdefault("forms", set()).add(digest.digest())


def _count_flat_twisted_form(c, fn, args, kwargs, result):
    c["calls"] += 1
    c["nnz"] += result.Q.nnz


def _count_induced_systole(c, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    c["calls"] += 1
    c["sources"] += len(range(0, a["imm"].n, a["stride"])) ** 2


def _count_kappa(c, fn, args, kwargs, result):
    c["samples"] += _bound(fn, args, kwargs)["samples"]


def _count_wp(c, fn, args, kwargs, result):
    c["points"] += int(np.size(_bound(fn, args, kwargs)["z"]))


def _count_calls(c, fn, args, kwargs, result):
    c["calls"] += 1


def _count_bytes(c, fn, args, kwargs, result):
    c["bytes"] += Path(_bound(fn, args, kwargs)["path"]).stat().st_size


# (span name, module, attribute or Class.method, counter)
TRACED = [
    ("stability.min_eigenvalue", "stability", "min_eigenvalue",
     _count_min_eigenvalue),
    ("stability.flat_twisted_form", "stability", "flat_twisted_form",
     _count_flat_twisted_form),
    ("stability.euclidean_index_form", "stability", "euclidean_index_form",
     None),
    ("stability.log_cutoff", "stability", "log_cutoff", _count_calls),
    ("stability.covering_sweep", "stability", "covering_sweep", None),
    ("systole.induced_systole", "systole", "induced_systole",
     _count_induced_systole),
    ("systole.trial", "systole", "axis_truncated_distances", None),
    ("systole.trial", "systole", "phase_trial_section", None),
    ("systole.trial", "systole", "rayleigh_bound_check", None),
    ("systole.trial", "systole", "systole_bound_verdict", None),
    ("geometry.kappa_pic_estimate", "geometry", "kappa_pic_estimate",
     _count_kappa),
    ("geometry.surface_quantities", "geometry", "surface_quantities", None),
    ("geometry.elliptic_curve_immersion", "geometry",
     "elliptic_curve_immersion", None),
    ("weierstrass.wp", "weierstrass", "wp", _count_wp),
    ("scenarios.level", "scenarios", "LensScenario.level", _count_calls),
    ("scenarios.cover_form", "scenarios", "LensScenario.cover_form", None),
    ("scenarios.flat_chart_immersion", "scenarios", "flat_chart_immersion",
     None),
    ("scenarios.stability_audit", "scenarios",
     "EllipticScenario.stability_audit", None),
    ("scenarios.sublattice_growth_table", "scenarios",
     "sublattice_growth_table", None),
    ("bundles.decompose_commuting_pair", "bundles",
     "decompose_commuting_pair", _count_calls),
    ("bundles.line_section", "bundles", "line_section", None),
    ("sections.dbar", "sections", "dbar", _count_calls),
    ("serialize", "serialize", "write_csv", _count_bytes),
    ("serialize", "serialize", "write_json", _count_bytes),
    ("serialize", "serialize", "svg_heatmap", _count_bytes),
]

MODULES = ["stability", "systole", "geometry", "weierstrass", "scenarios",
           "bundles", "sections", "serialize"]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent, pass]
        self.stack: list[int] = []
        self.counters: dict = {}
        self.pass_index = -1

    def begin_pass(self, index: int):
        self.pass_index = index
        self.counters[index] = defaultdict(lambda: defaultdict(int))

    def _wrap(self, name, fn, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            self.spans.append([name, time.perf_counter(), None, parent,
                               self.pass_index])
            self.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[idx][2] = time.perf_counter()
                self.stack.pop()
            if count is not None:
                count(self.counters[self.pass_index][name], fn, args, kwargs,
                      result)
            return result
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced function for the duration of the block."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        undo = []
        try:
            for name, mod_name, attr, count in TRACED:
                mod = importlib.import_module(f"{PACKAGE}.{mod_name}")
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[meth]
                    undo.append((cls, meth, orig))
                    setattr(cls, meth, self._wrap(name, orig, count))
                    continue
                orig = getattr(mod, attr)
                wrapped = self._wrap(name, orig, count)
                for m in modules:
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            undo.append((m, key, orig))
                            setattr(m, key, wrapped)
            yield self
        finally:
            for owner, key, orig in reversed(undo):
                setattr(owner, key, orig)

    def pass_summary(self, index: int, wall: float) -> dict[str, float]:
        """Per-layer metrics of one traced pass of `wall` seconds."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s[4] == index]
        dur = {i: s[2] - s[1] for i, s in spans}
        child = defaultdict(float)
        for i, s in spans:
            if s[3] >= 0:
                child[s[3]] += dur[i]
        self_s = defaultdict(float)
        for i, s in spans:
            self_s[s[0]] += dur[i] - child[i]
        top = sum(dur[i] for i, s in spans if s[3] < 0)

        out = {}
        for mod in MODULES:
            out[f"{mod}.self_s"] = sum(v for k, v in self_s.items()
                                       if k.split(".")[0] == mod)
        for name in dict.fromkeys(t[0] for t in TRACED):
            if name not in MODULES:
                out[f"{name}.self_s"] = self_s.get(name, 0.0)
        c = self.counters.get(index, {})
        eig = c.get("stability.min_eigenvalue", {})
        calls = eig.get("calls", 0)
        out.update({
            "stability.min_eigenvalue.calls": calls,
            "stability.min_eigenvalue.dof": eig.get("dof", 0),
            "stability.min_eigenvalue.dense_calls": eig.get("dense_calls", 0),
            "stability.min_eigenvalue.sparse_calls":
                eig.get("sparse_calls", 0),
            "stability.min_eigenvalue.unique_ratio":
                len(eig.get("forms", ())) / calls if calls else 0.0,
        })
        for name, keys in [
                ("stability.flat_twisted_form", ("calls", "nnz")),
                ("systole.induced_systole", ("calls", "sources")),
                ("geometry.kappa_pic_estimate", ("samples",)),
                ("weierstrass.wp", ("points",)),
                ("stability.log_cutoff", ("calls",)),
                ("bundles.decompose_commuting_pair", ("calls",)),
                ("sections.dbar", ("calls",)),
                ("scenarios.level", ("calls",)),
                ("serialize", ("bytes",))]:
            for key in keys:
                out[f"{name}.{key}"] = c.get(name, {}).get(key, 0)
        kappa_s = self_s.get("geometry.kappa_pic_estimate", 0.0)
        out["geometry.kappa_pic_estimate.samples_per_s"] = (
            out["geometry.kappa_pic_estimate.samples"] / kappa_s
            if kappa_s > 0 else 0.0)
        out["cli.unattributed_s"] = wall - top
        return out

    def dump(self) -> list[dict]:
        return [{"id": i, "name": s[0], "start": s[1], "end": s[2],
                 "parent": s[3], "pass": s[4]}
                for i, s in enumerate(self.spans)]
