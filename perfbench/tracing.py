"""Spans recorded from outside dwlab by wrapping its public functions.

`Tracer.install()` replaces every public function of the dwlab modules in
every dwlab namespace that binds it (``propagate`` is reached through both
``dwlab.linear`` and ``dwlab.semilinear``), patches ``h_eval`` and
``eval_neglog`` on their classes and the transform entry points of
``numpy.fft`` and ``scipy.fft`` on their modules.  `Tracer.restore()` puts
every original back.  No file of dwlab is changed.

A span is one call: name, start, end, parent, its self time (duration minus
the time its direct children cover), and two counters filled per layer
(points handed in, and a layer-specific count such as nonzero weights or a
rejected step).  Spans stay in memory; `write_spans` writes them out.

Forked worker processes (the CLI sweep pool) inherit the wrappers.  A
worker keeps no spans; it folds each one into per-name totals and rewrites
``<child_dir>/child-<pid>.json`` whenever a top-level call returns, and the
parent merges those files with `merge_child_totals`.
"""

from __future__ import annotations

import functools
import json
import os
import time
import types

LAYERS = ("grid", "linear", "modulus", "semilinear", "testfunction", "cli")
FFT_NAMES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
             "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")

# span fields
NAME, START, END, PARENT, CHILD, POINTS, EXTRA = range(7)


def _size(array):
    return int(getattr(array, "size", 1))


class Tracer:
    def __init__(self, child_dir=None):
        self.spans = []          # [name, start, end, parent, child_s, points, extra]
        self.stack = []          # indices of open spans
        self.child_dir = child_dir
        self.in_child = False
        self.child_totals = {}
        self._patches = []       # (owner, attribute, original)
        self._last_step = None   # (span index, state) of the previous step call
        os.register_at_fork(after_in_child=self._after_fork)

    # -- recording ----------------------------------------------------

    def _after_fork(self):
        if self._patches:
            self._enter_child()

    def _enter_child(self):
        self.in_child = True
        self.spans, self.stack, self.child_totals = [], [], {}
        self._last_step = None

    def _open(self, name, points=0):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, 0.0, points, 0])
        index = len(self.spans) - 1
        self.stack.append(index)
        return index

    def _close(self, index):
        span = self.spans[index]
        span[END] = time.perf_counter()
        self.stack.pop()
        if span[PARENT] >= 0:
            self.spans[span[PARENT]][CHILD] += span[END] - span[START]
        elif self.in_child:
            self._flush_child()

    def _flush_child(self):
        add_totals(self.child_totals, totals(self.spans))
        self.spans, self._last_step = [], None
        if self.child_dir is not None:
            path = os.path.join(self.child_dir, f"child-{os.getpid()}.json")
            with open(path, "w") as fh:
                json.dump(self.child_totals, fh)

    def _wrap(self, name, fn, on_call=None, on_return=None, on_error=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer._open(name)
            try:
                if on_call is not None:
                    on_call(tracer.spans[index], index, args)
                out = fn(*args, **kwargs)
                if on_return is not None:
                    on_return(tracer.spans[index], out)
                return out
            except BaseException:
                if on_error is not None:
                    on_error(tracer.spans[index])
                raise
            finally:
                tracer._close(index)

        return wrapper

    def _wrap_fft(self, fn):
        """Outermost transform calls only, so nested entry points count once."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            if tracer.stack and tracer.spans[tracer.stack[-1]][NAME] == "fft":
                return fn(a, *args, **kwargs)
            index = tracer._open("fft", _size(a))
            try:
                return fn(a, *args, **kwargs)
            finally:
                tracer._close(index)

        return wrapper

    # -- per-layer counters ------------------------------------------

    def _step_call(self, span, index, args):
        # evolve retries a rejected step from the very same state object;
        # EXTRA marks a step that was not accepted (retried, or raised)
        state = args[0]
        last = self._last_step
        if last is not None and last[1] is state:
            self.spans[last[0]][EXTRA] = 1
        self._last_step = (index, state)

    @staticmethod
    def _points_arg(position):
        def on_call(span, index, args):
            span[POINTS] = _size(args[position])
        return on_call

    @staticmethod
    def _mark_extra(span):
        span[EXTRA] = 1

    @staticmethod
    def _count_nonzero(span, out):
        import numpy as np
        span[EXTRA] = int(np.count_nonzero(out))

    # -- install / restore --------------------------------------------

    def _set(self, owner, attribute, value):
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def install(self):
        import importlib

        import dwlab
        modules = {layer: importlib.import_module(f"dwlab.{layer}") for layer in LAYERS}
        namespaces = [dwlab, *modules.values()]
        hooks = {
            "semilinear.step": (self._step_call, None, self._mark_extra),
            "testfunction.eta": (self._points_arg(0), self._count_nonzero, None),
        }
        for layer, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(fn, types.FunctionType) \
                        or fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapper = self._wrap(name, fn, *hooks.get(name, (None, None, None)))
                for ns in namespaces:
                    for bound, value in list(vars(ns).items()):
                        if value is fn:
                            self._set(ns, bound, wrapper)

        mod = modules["modulus"]
        for cls in (mod.Nonlinearity, mod.PowerForcing):
            self._set(cls, "h_eval",
                      self._wrap("modulus.h_eval", cls.__dict__["h_eval"],
                                 on_call=self._points_arg(1)))
        self._set(mod.Modulus, "eval_neglog",
                  self._wrap("modulus.integrand", mod.Modulus.__dict__["eval_neglog"]))

        import numpy.fft
        import scipy.fft
        for fft_module in (numpy.fft, scipy.fft):
            for attr in FFT_NAMES:
                if hasattr(fft_module, attr):
                    self._set(fft_module, attr, self._wrap_fft(getattr(fft_module, attr)))
        return self

    def restore(self):
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)
        self._last_step = None


# -- aggregation ------------------------------------------------------


def totals(spans):
    """Per span name: calls, total_s, self_s, points, extra."""
    out = {}
    for name, start, end, _parent, child, points, extra in spans:
        agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                    "points": 0, "extra": 0})
        agg["calls"] += 1
        agg["total_s"] += end - start
        agg["self_s"] += end - start - child
        agg["points"] += points
        agg["extra"] += extra
    return out


def add_totals(into, more):
    for name, agg in more.items():
        mine = into.setdefault(name, dict.fromkeys(agg, 0))
        for field, value in agg.items():
            mine[field] += value
    return into


def merge_child_totals(into, child_dir):
    """Add the totals written by forked workers to the parent's totals."""
    if child_dir is None or not os.path.isdir(child_dir):
        return into
    for entry in sorted(os.listdir(child_dir)):
        if not entry.startswith("child-"):
            continue
        with open(os.path.join(child_dir, entry)) as fh:
            add_totals(into, json.load(fh))
    return into


def uncovered_fraction(spans, window):
    """Share of the window that no top-level span covers."""
    lo, hi = window
    covered = sum(min(s[END], hi) - max(s[START], lo) for s in spans
                  if s[PARENT] < 0 and s[END] > lo and s[START] < hi)
    return max(hi - lo - covered, 0.0) / (hi - lo)


def write_spans(spans, path):
    """One line per span: id, parent, name, start, end, self time, counters."""
    with open(path, "w") as fh:
        fh.write("id,parent,name,start_s,end_s,self_s,points,extra\n")
        for i, (name, start, end, parent, child, points, extra) in enumerate(spans):
            fh.write(f"{i},{parent},{name},{start:.9f},{end:.9f},"
                     f"{end - start - child:.9f},{points},{extra}\n")
