"""Outside-in tracer: wraps public setmeans functions where they are looked up.

``setmeans.simulate`` and ``setmeans.cli`` import functions by name and
calls inside ``geometry`` (``hull`` in ``minkowski_sum``,
``point_distance`` in ``deviation``) resolve through the module globals,
so each traced function is replaced in every ``setmeans`` module
namespace that holds it.  Spans (id, parent, function, start, end) are
kept in memory; every original is restored on exit.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from contextlib import contextmanager

import numpy as np

TRACED = {
    "geometry": ("hull", "minkowski_sum", "scale", "support", "support_face",
                 "point_distance", "nearest_point", "hausdorff", "is_facet_at"),
    "randomsets": ("expectation", "expectation_face", "exposed_selection",
                   "nearest_point_selection", "tangent_variance", "facet_inheritance",
                   "sample_many"),
    "rng": ("uniforms",),
    "stats": ("ks_test_normal", "mean_and_covariance", "loglog_slope", "binomial_band"),
    "simulate": ("lln_experiment", "clt_exposed_experiment", "clt_tangent_experiment",
                 "clt_facet_experiment", "facet_frequency_experiment"),
    "cli": ("load_scene", "write_report"),
}

NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)


def _count_hull(args, kwargs, result):
    return {"points_in": len(np.asarray(args[0] if args else kwargs["points"]))}


def _count_minkowski(args, kwargs, result):
    a, b = args[:2]
    return {"candidates": a.vertex_count * b.vertex_count, "kept": result.vertex_count}


def _count_uniforms(args, kwargs, result):
    return {"draws": len(result)}


def _count_report(args, kwargs, result):
    return {"bytes": sum(os.path.getsize(p) for p in result.values())}


# per-call counters recorded next to the span: name -> f(args, kwargs, result)
COUNTERS = {
    "geometry.hull": _count_hull,
    "geometry.minkowski_sum": _count_minkowski,
    "rng.uniforms": _count_uniforms,
    "cli.write_report": _count_report,
}


class Tracer:
    """Collects spans from wrapped calls; one instance per traced pass."""

    def __init__(self):
        self.spans: list[tuple[int, int, int, int, int]] = []
        self.counts: dict[str, int] = {}
        self._stack = [0]           # span 0 is the root
        self._next_id = 1

    def _wrap(self, index: int, name: str, fn):
        clock = time.perf_counter_ns
        stack = self._stack
        spans = self.spans
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, index, start, end))
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    key = f"{name}.{key}"
                    self.counts[key] = self.counts.get(key, 0) + value
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every traced name in every loaded setmeans module; restore on exit."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "setmeans" or n.startswith("setmeans."))]
        patches = []
        try:
            for index, name in enumerate(NAMES):
                mod_name, fn_name = name.split(".")
                original = getattr(importlib.import_module(f"setmeans.{mod_name}"), fn_name)
                wrapper = self._wrap(index, name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            patches.append((mod, attr, original))
            yield self
        finally:
            for mod, attr, original in reversed(patches):
                setattr(mod, attr, original)

    def table(self) -> dict[str, np.ndarray]:
        """Spans as arrays, with each span's self time (duration minus children)."""
        if not self.spans:
            empty = np.zeros(0, dtype=np.int64)
            return {k: empty for k in ("id", "parent", "fn", "start", "end", "self")}
        arr = np.array(self.spans, dtype=np.int64)
        sid, parent, fn, start, end = arr.T
        duration = end - start
        child_time = np.zeros(int(sid.max()) + 1, dtype=np.int64)
        np.add.at(child_time, parent, duration)
        return {"id": sid, "parent": parent, "fn": fn, "start": start, "end": end,
                "self": duration - child_time[sid]}

    def dump(self, path: str):
        np.savez_compressed(path, names=np.array(NAMES), **self.table())


def layer_metrics(tracer: Tracer, tail_pct: float) -> dict[str, float]:
    """Per-layer totals of one traced pass: calls, busy and self seconds, counters,
    and the p50 and ``tail_pct`` percentile of a hausdorff call."""
    t = tracer.table()
    duration = (t["end"] - t["start"]) * 1e-9
    out: dict[str, float] = {}
    for index, name in enumerate(NAMES):
        mine = t["fn"] == index
        out[f"{name}.calls"] = int(mine.sum())
        out[f"{name}.busy_s"] = float(duration[mine].sum())
        out[f"{name}.self_s"] = float(t["self"][mine].sum() * 1e-9)
    counts = tracer.counts
    candidates = counts.get("geometry.minkowski_sum.candidates", 0)
    out["geometry.minkowski_sum.kept_frac"] = (
        counts.get("geometry.minkowski_sum.kept", 0) / candidates if candidates else 0.0)
    out["geometry.hull.points_in"] = counts.get("geometry.hull.points_in", 0)
    out["rng.uniforms.draws"] = counts.get("rng.uniforms.draws", 0)
    out["cli.write_report.bytes"] = counts.get("cli.write_report.bytes", 0)
    # point_distance calls made directly by hausdorff (through deviation)
    hausdorff_ids = t["id"][t["fn"] == NAMES.index("geometry.hausdorff")]
    under = np.isin(t["parent"][t["fn"] == NAMES.index("geometry.point_distance")],
                    hausdorff_ids)
    out["geometry.point_distance.per_hausdorff"] = (
        float(under.sum()) / len(hausdorff_ids) if len(hausdorff_ids) else 0.0)
    call_ms = duration[t["fn"] == NAMES.index("geometry.hausdorff")] * 1e3
    for key, pct in (("call_ms_p50", 50.0), ("call_ms_hi", tail_pct)):
        out[f"geometry.hausdorff.{key}"] = float(np.percentile(call_ms, pct)) if len(call_ms) else 0.0
    return out
