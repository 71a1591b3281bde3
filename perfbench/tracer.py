"""In-memory span tracer that wraps maxdiss from the outside.

``Tracer.install`` replaces the public functions and methods of every
maxdiss layer module, and the 2D entry points of ``numpy.fft`` (and of
``scipy.fft`` when it is loaded), with wrappers that record one span per
call: name, start, end and the index of the enclosing span.  A function is
rebound under every name that refers to it, so a call through
``maxdiss.certificate.weight_value`` is seen as well as one through
``maxdiss.relenergy.weight_value``.  ``uninstall`` puts every original back
and ``leftover_wrappers`` proves that nothing stayed patched.

Spans stay in memory until ``save`` writes them out; ``aggregate`` turns
them into per-name call counts, inclusive and self times.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("fields", "solver", "relenergy", "certificate", "selector",
          "mv_euler", "scenarios", "cli")

#: non-public methods that carry real work and are wrapped anyway
DUNDERS = ("__post_init__", "__call__", "__add__", "__sub__", "__mul__",
           "__rmul__", "__neg__")

FFT_FUNCS = ("fft2", "ifft2", "rfft2", "irfft2")

MARK = "_perfbench_span"


# -- computed FFT cost ---------------------------------------------------------

def fft_cost(func: str, a: np.ndarray, out: np.ndarray, axes=None):
    """Computed (flops, bytes) of one FFT call, from shapes alone.

    5 N log2 N flops per complex transform of N points, half that for a
    real one; bytes are the input plus the output array.  Cache misses
    and library internals are ignored: the figures are labelled computed.
    """
    real = func.startswith(("rfft", "irfft"))
    logical = out.shape if func.startswith("irfft") else a.shape
    if axes is None:
        axes = (-2, -1)
    n_points = math.prod(logical[ax] for ax in axes)
    batch = math.prod(logical) // n_points if n_points else 0
    flops = 5.0 * n_points * math.log2(n_points) * batch if n_points > 1 else 0.0
    if real:
        flops *= 0.5
    return flops, a.nbytes + out.nbytes


# -- span arithmetic -----------------------------------------------------------

def self_times(start, end, parent) -> np.ndarray:
    """Span duration minus the time its direct children cover."""
    start = np.asarray(start, dtype=float)
    dur = np.asarray(end, dtype=float) - start
    parent = np.asarray(parent, dtype=np.int64)
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    return dur - child


def aggregate(names, name_id, start, end, parent) -> dict:
    """Per span name: calls, inclusive seconds, self seconds."""
    name_id = np.asarray(name_id, dtype=np.int64)
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    own = self_times(start, end, parent)
    k = len(names)
    calls = np.bincount(name_id, minlength=k)
    total = np.bincount(name_id, weights=dur, minlength=k)
    selfs = np.bincount(name_id, weights=own, minlength=k)
    return {nm: {"calls": int(calls[i]), "total_s": float(total[i]),
                 "self_s": float(selfs[i])}
            for i, nm in enumerate(names) if calls[i]}


# -- the tracer ----------------------------------------------------------------

def _file_size(counters, key):
    def hook(args, kwargs, result):
        path = kwargs.get("path", args[0] if args else None)
        if path is not None and os.path.exists(path):
            counters[key] += os.path.getsize(path)
    return hook


class Tracer:
    """Records spans around maxdiss calls; install, run, uninstall, save."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self._stack = [-1]
        self.counters = defaultdict(float)
        self._patched: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}
        self.hooks = {
            "fields.save_samples": _file_size(self.counters, "bytes_written"),
            "fields.load_samples": _file_size(self.counters, "bytes_read"),
            "selector.select": self._count("select_iterations",
                                           lambda r: r.iterations),
            "certificate.certify": self._count("certificate_entries",
                                               lambda r: len(r.entries)),
        }

    def _count(self, key, measure):
        def hook(args, kwargs, result):
            self.counters[key] += measure(result)
        return hook

    def wrap(self, fn, name: str, hook=None):
        """A wrapper of ``fn`` that records a span named ``name``."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        name_id, start, end, parent = (self.name_id, self.start, self.end,
                                       self.parent)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                start[i] = t0
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        setattr(traced, MARK, name)
        return traced

    def _fft_hook(self, func):
        counters = self.counters

        def hook(args, kwargs, result):
            a = np.asarray(args[0])
            axes = kwargs.get("axes", args[2] if len(args) > 2 else None)
            flops, nbytes = fft_cost(func, a, result, axes)
            counters["fft_flops"] += flops
            counters["fft_bytes"] += nbytes
        return hook

    def _patch(self, owner, attr, original, wrapper):
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every maxdiss layer and the FFT entry points."""
        modules = [importlib.import_module(f"maxdiss.{m}") for m in LAYERS]
        names: dict[int, str] = {}  # id(original function) -> span name
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    self._install_class(obj, layer)
                elif inspect.isfunction(obj) and not attr.startswith("_"):
                    names[id(obj)] = f"{layer}.{attr}"
        fft_mods = [np.fft] + ([sys.modules["scipy.fft"]]
                               if "scipy.fft" in sys.modules else [])
        for fmod in fft_mods:
            for func in FFT_FUNCS:
                obj = getattr(fmod, func, None)
                if obj is not None:
                    names[id(obj)] = f"fields.fft.{func}"
                    self._patch(fmod, func, obj, self._wrapper_for(
                        obj, names[id(obj)], self._fft_hook(func)))
        # rebind every module-level name that refers to a wrapped function,
        # so each caller's own binding is traced
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in names:
                    self._patch(mod, attr, obj,
                                self._wrapper_for(obj, names[id(obj)]))

    def _wrapper_for(self, fn, name, hook=None):
        w = self._wrappers.get(id(fn))
        if w is None:
            w = self.wrap(fn, name, hook or self.hooks.get(name))
            self._wrappers[id(fn)] = w
        return w

    def _install_class(self, cls, layer):
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr not in DUNDERS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(member, (classmethod, staticmethod)):
                wrapped = type(member)(self._wrapper_for(member.__func__, name))
            elif inspect.isfunction(member):
                wrapped = self._wrapper_for(member, name)
            else:
                continue
            self._patch(cls, attr, member, wrapped)

    def uninstall(self) -> None:
        """Put every patched attribute back, latest patch first."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)

    def leftover_wrappers(self) -> list[str]:
        """Attributes that still hold a wrapper or lost their original."""
        owners = {id(o): o for o, _, _ in self._patched}.values()
        left = {f"{owner.__name__}.{attr}"
                for owner, attr, original in self._patched
                if vars(owner).get(attr) is not original}
        for owner in owners:
            for attr, obj in vars(owner).items():
                inner = getattr(obj, "__func__", obj)
                if hasattr(inner, MARK):
                    left.add(f"{owner.__name__}.{attr}")
        return sorted(left)

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names),
                 name_id=np.array(self.name_id, dtype=np.int64),
                 start=np.array(self.start), end=np.array(self.end),
                 parent=np.array(self.parent, dtype=np.int64),
                 counter_keys=np.array(sorted(self.counters)),
                 counter_values=np.array([self.counters[k]
                                          for k in sorted(self.counters)]))

