"""Per-layer spans and counts, taken from outside the library.

A Recorder wraps public functions of the pstrata modules and times every
call into them.  Wrapping is by identity: the function object is found
once (in its home module, or by name in any pstrata module if it moved)
and every module attribute that *is* that object is replaced, so the
re-exports in ``pstrata/__init__.py`` and the ``from .padic import ...``
bindings inside other modules are all counted.  The ``Lattice`` methods
are wrapped on the class.  A target that can no longer be found is
reported as missing, never as zero.

Spans nest: a span's self time is its duration minus the time of the
wrapped calls made inside it.  A layer's time is the time spent inside
its outermost span, so recursion and calls between functions of one
layer are not counted twice.
"""

from __future__ import annotations

import functools
import sys
import time
from functools import cached_property

# "layer.name" -> (home module, public name).  "Lattice.x" names a method.
TARGETS = {
    "padic.hermite_rows": ("pstrata.padic", "hermite_rows"),
    "padic.smith_rows": ("pstrata.padic", "smith_rows"),
    "lattice.from_rows": ("pstrata.lattice", "Lattice.from_rows"),
    "lattice.lower_level": ("pstrata.lattice", "Lattice.lower_level"),
    "lattice.solve": ("pstrata.lattice", "Lattice.solve"),
    "gmodule.lower_p_series": ("pstrata.gmodule", "lower_p_series"),
    "gmodule.check_invariance": ("pstrata.gmodule", "check_invariance"),
    "strata.detect_cycle": ("pstrata.strata", "detect_cycle"),
    "strata.fit_rational": ("pstrata.strata", "fit_rational"),
    "strata.run_stratification": ("pstrata.strata", "run_stratification"),
    "strata.extract_frame": ("pstrata.strata", "extract_frame"),
    "strata.certify_equivalence": ("pstrata.strata", "certify_equivalence"),
    "hausdorff.hdim_numeric": ("pstrata.hausdorff", "hdim_numeric"),
    "hausdorff.hdim_exact": ("pstrata.hausdorff", "hdim_exact"),
    "hausdorff.spectrum": ("pstrata.hausdorff", "spectrum"),
    # the entry points that build instances; get_bundle reaches the other builders
    "catalog.get_bundle": ("pstrata.catalog", "get_bundle"),
    "catalog.build_Gm_lattice": ("pstrata.catalog", "build_Gm_lattice"),
    "catalog.random_block_action": ("pstrata.catalog", "random_block_action"),
}

# Per-layer metrics: name -> (unit, target key it needs, how it is derived).
LAYER_METRICS = {
    "padic.hermite_rows.calls": ("count", "padic.hermite_rows", "calls"),
    "padic.hermite_rows.cells": ("count", "padic.hermite_rows", "cells"),
    "padic.hermite_rows.s": ("s", "padic.hermite_rows", "total"),
    "padic.smith_rows.calls": ("count", "padic.smith_rows", "calls"),
    "padic.smith_rows.cells": ("count", "padic.smith_rows", "cells"),
    "padic.smith_rows.s": ("s", "padic.smith_rows", "total"),
    "lattice.from_rows.calls": ("count", "lattice.from_rows", "calls"),
    "lattice.from_rows.self_s": ("s", "lattice.from_rows", "self"),
    "lattice.lower_level.calls": ("count", "lattice.lower_level", "calls"),
    "lattice.solve.calls": ("count", "lattice.solve", "calls"),
    "gmodule.lower_p_series.s": ("s", "gmodule.lower_p_series", "total"),
    "gmodule.step_s": ("s", "gmodule.lower_p_series", "per_step"),
    "gmodule.check_invariance.calls": ("count", "gmodule.check_invariance", "calls"),
    "gmodule.check_invariance.s": ("s", "gmodule.check_invariance", "total"),
    "strata.detect_cycle.s": ("s", "strata.detect_cycle", "total"),
    "strata.fit_rational.calls": ("count", "strata.fit_rational", "calls"),
    "strata.fit_rational.s": ("s", "strata.fit_rational", "total"),
    "strata.run_stratification.self_s": ("s", "strata.run_stratification", "self"),
    "strata.extract_frame.calls": ("count", "strata.extract_frame", "calls"),
    "strata.extract_frame.rejected": ("count", "strata.extract_frame", "raised"),
    "strata.extract_frame.s": ("s", "strata.extract_frame", "total"),
    "strata.certify_equivalence.s": ("s", "strata.certify_equivalence", "total"),
    "hausdorff.hdim_numeric.calls": ("count", "hausdorff.hdim_numeric", "calls"),
    "hausdorff.hdim_numeric.s": ("s", "hausdorff.hdim_numeric", "total"),
    "hausdorff.hdim_exact.s": ("s", "hausdorff.hdim_exact", "total"),
    "hausdorff.spectrum.s": ("s", "hausdorff.spectrum", "total"),
    "hausdorff.spectrum.values": ("count", "hausdorff.spectrum", "values"),
    "catalog.build_s": ("s", "catalog", "layer"),
}


def _modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "pstrata" or n.startswith("pstrata."))]


def _find(home: str, name: str):
    """The object a target names, looked up at home first, then by name."""
    mods = _modules()
    owner_name, _, attr = name.rpartition(".")
    lookup = owner_name or attr
    for mod in [sys.modules.get(home)] + mods:
        obj = getattr(mod, lookup, None) if mod is not None else None
        if obj is None or not getattr(obj, "__module__", "").startswith("pstrata"):
            continue
        if not owner_name:
            return None, obj
        member = obj.__dict__.get(attr)
        if member is not None:
            return obj, member
    return None, None


class _Stat:
    __slots__ = ("calls", "total", "self", "cells", "steps", "raised", "values")

    def __init__(self):
        self.calls = self.cells = self.steps = self.raised = self.values = 0
        self.total = self.self = 0.0


class Recorder:
    """Installs timing wrappers; ``snapshot`` returns the raw sums so far."""

    def __init__(self, targets=TARGETS):
        self.targets = dict(targets)
        self.stats = {key: _Stat() for key in self.targets}
        self.layer_time = {}
        self.missing = []
        self._stack = []
        self._depth = {}
        self._undo = []

    # -- installation --------------------------------------------------

    def install(self):
        self.missing = []
        for key, (home, name) in self.targets.items():
            layer = key.partition(".")[0]
            owner, obj = _find(home, name)
            if obj is None:
                self.missing.append(key)
                continue
            if owner is None:
                self._patch_everywhere(obj, self._wrap(key, layer, obj))
            elif isinstance(obj, classmethod):
                wrapped = classmethod(self._wrap(key, layer, obj.__func__))
                self._set(owner, name.rpartition(".")[2], wrapped)
            elif isinstance(obj, cached_property):
                # the cache is per instance, so only computations are counted
                self._undo.append((obj, "func", obj.func))
                obj.func = self._wrap(key, layer, obj.func)
            else:
                self._set(owner, name.rpartition(".")[2], self._wrap(key, layer, obj))
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_everywhere(self, obj, wrapper):
        for mod in _modules():
            for attr, val in list(vars(mod).items()):
                if val is obj:
                    self._set(mod, attr, wrapper)

    def _wrap(self, key, layer, fn):
        stat = self.stats[key]
        stack = self._stack
        depth = self._depth
        layer_time = self.layer_time
        clock = time.perf_counter
        count_cells = key in ("padic.hermite_rows", "padic.smith_rows")
        count_steps = key == "gmodule.lower_p_series"
        count_values = key == "hausdorff.spectrum"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count_cells:
                rows = args[0]
                stat.cells += len(rows) * (len(rows[0]) if rows else 0)
            if count_steps:
                stat.steps += args[2] if len(args) > 2 else kwargs["i_max"]
            child = [0.0]
            stack.append(child)
            outer = depth.get(layer, 0) == 0
            depth[layer] = depth.get(layer, 0) + 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                stat.raised += 1
                raise
            finally:
                dt = clock() - t0
                depth[layer] -= 1
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                stat.calls += 1
                stat.total += dt
                stat.self += dt - child[0]
                if outer:
                    layer_time[layer] = layer_time.get(layer, 0.0) + dt
            if count_values:
                stat.values += len(out)
            return out

        return wrapper

    # -- results -------------------------------------------------------

    def snapshot(self) -> dict:
        """Raw sums: {"stats": {key: {field: n}}, "layers": {...}, "missing": [...]}."""
        return {
            "stats": {k: {f: getattr(s, f) for f in _Stat.__slots__}
                      for k, s in self.stats.items() if k not in self.missing},
            "layers": dict(self.layer_time),
            "missing": list(self.missing),
        }


def merge(snapshots) -> dict:
    """Sum raw snapshots, such as those of several traced child processes."""
    out = {"stats": {}, "layers": {}, "missing": []}
    for snap in snapshots:
        for key, fields in snap["stats"].items():
            acc = out["stats"].setdefault(key, dict.fromkeys(fields, 0))
            for f, v in fields.items():
                acc[f] += v
        for layer, t in snap["layers"].items():
            out["layers"][layer] = out["layers"].get(layer, 0.0) + t
        for key in snap["missing"]:
            if key not in out["missing"]:
                out["missing"].append(key)
    return out


def layer_metrics(snap: dict) -> dict:
    """Derive the named per-layer metrics; a missing target gives "missing"."""
    out = {}
    for name, (_, key, how) in LAYER_METRICS.items():
        if how == "layer":
            out[name] = snap["layers"].get(key, 0.0)
            continue
        if key in snap["missing"] or key not in snap["stats"]:
            out[name] = "missing"
            continue
        st = snap["stats"][key]
        if how == "per_step":
            out[name] = st["total"] / st["steps"] if st["steps"] else 0.0
        else:
            out[name] = st[how]
    return out
