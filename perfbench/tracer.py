"""Per-function tracing installed from outside the program.

`Tracer.wrap` turns a function into one that aggregates, per name, the
number of calls, the inclusive time and the self time (inclusive time
minus the time spent in wrapped callees).  Hot leaves are called about a
million times per run, so they are aggregated, never stored per call;
only targets marked as spans (commands, suites) are also recorded as
spans with a parent id.

`install` puts the wrappers in place.  The package binds names with
``from .x import f``, so a function is replaced in every module of the
package that holds it, and a method is replaced on its class.
`Installation.undo` restores every replaced attribute.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {}  # name -> [calls, inclusive seconds, self seconds]
        self.counters = {}  # name -> number, from `observe` hooks
        self.spans = []  # {"id", "parent", "name", "start", "end"}
        self._frames = []  # seconds spent in wrapped callees, per active wrapped call
        self._open_spans = []

    def wrap(self, name, fn, span=False, observe=None):
        """Return a wrapper of `fn` that records its calls under `name`.

        `observe`, if given, maps the return value to counters to add.
        """
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        frames, clock = self._frames, self.clock
        active = [0]  # calls of `name` in progress; recursion adds inclusive time once

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            frames.append(0.0)
            active[0] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                child = frames.pop()
                active[0] -= 1
                stat[0] += 1
                stat[2] += elapsed - child
                if not active[0]:
                    stat[1] += elapsed
                if frames:
                    frames[-1] += elapsed

        wrapper = timed
        if span or observe is not None:
            # Coarse calls only: the extra layer's cost falls on the caller.
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                span_id = self._open_span(name) if span else None
                t0 = clock()
                try:
                    result = timed(*args, **kwargs)
                finally:
                    if span:
                        self._close_span(span_id, t0, clock())
                if observe is not None:
                    for key, value in observe(result).items():
                        self.counters[key] = self.counters.get(key, 0) + value
                return result

        wrapper.__perfbench_original__ = fn
        return wrapper

    def _open_span(self, name):
        span_id = len(self.spans)
        parent = self._open_spans[-1] if self._open_spans else None
        self.spans.append({"id": span_id, "parent": parent, "name": name})
        self._open_spans.append(span_id)
        return span_id

    def _close_span(self, span_id, start, end):
        self._open_spans.pop()
        self.spans[span_id].update(start=start, end=end)


class Installation:
    """The attributes replaced by `install`, in the order they were set."""

    def __init__(self):
        self.patches = []  # (owner, attribute, original)

    def set(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self.patches.append((owner, attr, original))

    def undo(self):
        while self.patches:
            owner, attr, original = self.patches.pop()
            setattr(owner, attr, original)


def package_modules(package):
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == package or name.startswith(package + "."))
    ]


def install(tracer, targets, package):
    """Wrap each target in every namespace of `package` that binds it.

    A target is ``(module, qualname, span, observe)``: ``qualname`` is
    ``f`` for a module-level function and ``Class.method`` for a method.
    The metric name is the module's last component followed by the
    qualname, as in ``models.ModelClass.ext``.
    """
    inst = Installation()
    try:
        for module_name, qualname, span, observe in targets:
            module = importlib.import_module(module_name)
            name = f"{module_name.rsplit('.', 1)[-1]}.{qualname}"
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                cls = getattr(module, owner_name)
                original = cls.__dict__[attr]
                inst.set(cls, attr, original, tracer.wrap(name, original, span, observe))
                continue
            original = getattr(module, attr)
            wrapper = tracer.wrap(name, original, span, observe)
            for mod in package_modules(package):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        inst.set(mod, key, original, wrapper)
    except BaseException:
        inst.undo()
        raise
    return inst
