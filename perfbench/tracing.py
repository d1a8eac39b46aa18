"""Span tracing of framewave from outside the package.

``instrument`` replaces every public function and public method defined
in a ``framewave`` module with a wrapper that records a span (name, start,
end, parent) and, for the functions listed in ``HOOKS``, a few work
counters.  Wrappers are bound at every import site (``framewave.evolve``
holds its own reference to ``fields.d1_axis``, ``cli`` to
``evolve.run_experiment``, and so on), so the program itself is unchanged.

Spans stay in memory and are written once, when the job ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import time

import numpy as np

PACKAGE = "framewave"
BENCH_SPAN = "bench.record"  # work the benchmark does inside a job


class Tracer:
    """In-memory span recorder for one job process."""

    def __init__(self, job_id):
        self.job_id = job_id
        self.names = []
        self._name_ids = {}
        self.spans = []        # [name_id, start_ns, end_ns, parent_index]
        self._stack = []
        self.counters = {}
        self._bg_keys = set()
        self._bg_support = {}
        self._bench = self.wrap(BENCH_SPAN, lambda fn, *args: fn(*args))

    def name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def add(self, key, value):
        self.counters[key] = self.counters.get(key, 0) + value

    def maximum(self, key, value):
        self.counters[key] = max(self.counters.get(key, 0), value)

    def wrap(self, name, fn, hook=None):
        nid = self.name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [nid, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, result, rec[2] - rec[1])
            return result

        return traced

    def bench_call(self, fn, *args):
        """Run ``fn(*args)`` as benchmark work inside the traced region: a
        ``BENCH_SPAN`` span, which job.py takes out of the measured wall."""
        return self._bench(fn, *args)

    def bench_ns(self):
        """Time inside bench spans (they never nest in one another)."""
        nid = self.name_id(BENCH_SPAN)
        return sum(e - s for n, s, e, _ in self.spans if n == nid)

    def dump(self, path, t0_ns):
        """Write the spans with times relative to ``t0_ns``."""
        rows = [[n, s - t0_ns, e - t0_ns, p] for n, s, e, p in self.spans]
        with open(path, "w") as fh:
            json.dump({"job_id": self.job_id, "names": self.names,
                       "fields": ["name", "start_ns", "end_ns", "parent"],
                       "spans": rows, "counters": self.counters}, fh)


# ---------------------------------------------------------------------------
# Work counters recorded at span boundaries


def _poly_eval(tr, args, result, dur):
    poly, pts = args[0], np.asarray(args[1])
    npts = 1 if pts.ndim == 1 else pts.shape[0]
    tr.add("poly.monomial_points", len(poly.c) * npts)


def _stencil(tr, args, result, dur):
    arr = args[0]
    tr.add("fields.stencil_cells", result.size)
    tr.add("fields.stencil_ns", dur)
    tr.add("fields.stencil_bytes", arr.nbytes + result.nbytes)


def _bound_eval(tr, args, result, dur):
    tr.add("estimates.bound_points", len(np.atleast_2d(args[1])))


def _suite(tr, args, result, dur):
    tr.add("certify.checks", len(result))
    tr.add("certify.checks_passed", sum(bool(r.passed) for r in result))


def _is_static(bg):
    return not np.any(getattr(bg, "velocity", 0.0))


def _background(method):
    def hook(tr, args, result, dur):
        tr.bench_call(_count_background, tr, method, args)
    return hook


def _count_background(tr, method, args):
    bg, geom, t = args[0], args[1], float(args[2])
    tr.add("background.cells", geom.n_full ** 3)
    bg_key = (type(bg).__name__, bg.epsilon,
              tuple(np.ravel(getattr(bg, "center", ()))),
              getattr(bg, "radius", None),
              tuple(np.ravel(getattr(bg, "velocity", ()))))
    geom_key = (geom.N, geom.X)
    key = (method, bg_key, geom_key) + (() if _is_static(bg) else (t,))
    tr.add("background.repeat_calls", key in tr._bg_keys)
    tr._bg_keys.add(key)
    sup_key = (bg_key, geom_key, t)
    if sup_key not in tr._bg_support:
        tr._bg_support[sup_key] = _support_cells(bg, geom, t)
    tr.add("background.support_cells", tr._bg_support[sup_key])


def _support_cells(bg, geom, t):
    """Cells of the full cube inside the bump's support at time t."""
    if bg.is_flat() or not hasattr(bg, "radius"):
        return 0
    c = np.asarray(bg.center, float) + t * np.asarray(getattr(bg, "velocity", 0.0))
    a = geom.axis
    d2 = ((a - c[0]) ** 2)[:, None, None] + ((a - c[1]) ** 2)[None, :, None] \
        + ((a - c[2]) ** 2)[None, None, :]
    return int(np.count_nonzero(d2 < bg.radius ** 2))


def _step(tr, args, result, dur):
    ev, Phi = args[0], args[2]
    bg = ev.bg
    kind = "flat" if bg.is_flat() else ("static" if _is_static(bg) else "traveling")
    geom = ev.geom
    comps = Phi.size // geom.n_full ** 3
    tr.add(f"evolve.step_ns.{kind}", dur)
    tr.add(f"evolve.step_cells.{kind}", geom.N ** 3 * comps)


def _history(tr, args, result, dur):
    nbytes = sum(a.nbytes for a in result.fields) + sum(a.nbytes for a in result.dfields)
    tr.maximum("evolve.history_bytes", nbytes)


HOOKS = {
    "poly.Poly.eval_many": _poly_eval,
    "fields.d1_axis": _stencil,
    "fields.d2_axis": _stencil,
    "estimates.CommutatorBound.eval": _bound_eval,
    "certify.run_suite": _suite,
    "background.Background.H_full": _background("H"),
    "background.ZeroBackground.H_full": _background("H"),
    "background.Background.dH_full": _background("dH"),
    "background.ZeroBackground.dH_full": _background("dH"),
    "evolve.Evolver.step": _step,
    "evolve.evolve_run": _history,
}


# ---------------------------------------------------------------------------
# Instrumentation


def framewave_modules():
    pkg = importlib.import_module(PACKAGE)
    return [importlib.import_module(f"{PACKAGE}.{m.name}")
            for m in pkgutil.iter_modules(pkg.__path__)]


def instrument(wrap, hooks):
    """Wrap every public function and method of framewave.

    ``wrap(name, fn, hook)`` returns the replacement.
    """
    replaced = {}
    modules = framewave_modules()
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[-1]
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                name = f"{short}.{attr}"
                replaced[obj] = wrap(name, obj, hooks.get(name))
            elif inspect.isclass(obj):
                for mname, member in list(vars(obj).items()):
                    if mname.startswith("_"):
                        continue
                    name = f"{short}.{obj.__qualname__}.{mname}"
                    if inspect.isfunction(member):
                        setattr(obj, mname, wrap(name, member, hooks.get(name)))
                    elif isinstance(member, (staticmethod, classmethod)):
                        kind = type(member)
                        setattr(obj, mname, kind(wrap(name, member.__func__,
                                                      hooks.get(name))))
    rebind(modules, replaced)


def rebind(modules, replaced):
    """Point every module attribute that names a key of ``replaced`` at
    its replacement, so all import sites see the same wrapper."""
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in replaced:
                setattr(mod, attr, replaced[obj])
