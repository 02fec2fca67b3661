"""Wrappers that the benchmark installs around the program's public functions.

A :class:`Probe` replaces a function at the module or class attribute its
callers look up (``harness.fss_gen`` rather than ``privwrite.fss_gen``,
because the harness imported the name into its own namespace) and restores
every original on :meth:`Probe.restore`.

Each wrapper may carry a hook, called after the wrapped function returns
with ``(args, kwargs, result)``. Hooks record what the correctness checks and
the per-layer counts need. The time spent in hooks is summed in
``hook_s``; the benchmark subtracts it from the measured time, and a timed
probe also keeps it out of every span's self time.

With ``timed=True`` every wrapper also records its span's self time: the
wall time inside the call less the time of the wrapped calls it made.
Per layer, the first dot-separated part of a span name, it records the
busy time: the time during which at least one of the layer's functions was
running, hooks excluded.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

_clock = time.perf_counter


class Probe:
    def __init__(self, timed: bool):
        self.timed = timed
        self.self_s: defaultdict = defaultdict(float)
        self.layer_busy: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.hook_s = 0.0
        self._stack: list[list[float]] = []
        self._layer_depth: Counter = Counter()
        self._layer_start: dict[str, tuple[float, float]] = {}
        self._undo: list[tuple[object, str, object]] = []
        self._hooks: dict[tuple[int, str], list] = {}

    def wrap(self, owner, attr: str, name: str, hook=None) -> None:
        """Wrap ``owner.attr`` as span ``name``; wrapping it again only adds
        the hook."""
        hooks = self._hooks.get((id(owner), attr))
        if hooks is None:
            hooks = self._hooks[(id(owner), attr)] = []
            original = getattr(owner, attr)
            make = self._timed if self.timed else self._hooked
            self._undo.append((owner, attr, original))
            setattr(owner, attr, make(original, name, hooks))
        if hook is not None:
            hooks.append(hook)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        self._hooks.clear()

    def _run_hooks(self, hooks, args, kwargs, result) -> float:
        start = _clock()
        for hook in hooks:
            hook(args, kwargs, result)
        spent = _clock() - start
        self.hook_s += spent
        return spent

    def _hooked(self, fn, name, hooks):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if hooks:
                self._run_hooks(hooks, args, kwargs, result)
            return result

        return wrapper

    def _timed(self, fn, name, hooks):
        layer = name.split(".", 1)[0]
        stack = self._stack
        depth = self._layer_depth

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            if depth[layer] == 0:
                self._layer_start[layer] = (_clock(), self.hook_s)
            depth[layer] += 1
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                depth[layer] -= 1
                if depth[layer] == 0:
                    entered, hooks_before = self._layer_start[layer]
                    self.layer_busy[layer] += end - entered - (self.hook_s - hooks_before)
                elapsed = end - start
                self.self_s[name] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if hooks:
                spent = self._run_hooks(hooks, args, kwargs, result)
                if stack:
                    stack[-1][0] += spent
            return result

        return wrapper
