"""Outside-in layer timing: wrap a program's functions, then restore them.

The benchmark measures layers without touching the program's sources.
:class:`LayerTracer` replaces chosen functions and methods with timing
wrappers, aggregates per-name call counts, total time and self time,
and puts every original back on :meth:`LayerTracer.restore`.

Self time is a call's duration minus the durations of the wrapped calls
made inside it. Total time counts only the outermost active call of a
name, so a recursive or re-entrant name is not counted twice. Calls are
aggregated rather than kept as spans: the DRAM layers make millions of
calls per pass.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class LayerTracer:
    """Aggregating wrapper-based tracer.

    ``clock`` is injectable so tests can drive time by hand.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stats: Dict[str, LayerStats] = {}
        self._child_time: List[float] = []
        self._depth: Dict[str, List[int]] = {}
        self._patches: List[Tuple[Any, str, Any, Any]] = []

    # ------------------------------------------------------------------
    # Timing
    # ------------------------------------------------------------------
    def wrap(
        self,
        fn: Callable,
        name: str,
        on_call: Optional[Callable[..., None]] = None,
        on_return: Optional[Callable[[Any], None]] = None,
        samples: Optional[List[float]] = None,
    ) -> Callable:
        """A timing wrapper around ``fn`` recorded under ``name``.

        ``on_call(*args, **kwargs)`` sees each call's arguments and
        ``on_return(result)`` its result; both run outside the timed
        interval. ``samples``, when given, receives every call's
        duration.
        """
        stats = self.stats.setdefault(name, LayerStats())
        depth = self._depth.setdefault(name, [0])
        clock = self.clock
        child_time = self._child_time

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            child_time.append(0.0)
            depth[0] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = child_time.pop()
                if child_time:
                    child_time[-1] += elapsed
                depth[0] -= 1
                stats.calls += 1
                stats.self_s += elapsed - children
                if not depth[0]:
                    stats.total_s += elapsed
                if samples is not None:
                    samples.append(elapsed)
            if on_return is not None:
                on_return(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def _patch(self, owner: Any, attr: str, new: Any, old: Any) -> None:
        self._patches.append((owner, attr, old, new))
        if isinstance(owner, dict):
            owner[attr] = new
        else:
            setattr(owner, attr, new)

    def install_method(self, cls: type, attr: str, name: str, **hooks) -> None:
        """Wrap ``cls.attr`` (a plain, static or class method) in place.

        Only the class that defines ``attr`` is patched, so subclasses
        that inherit it see the wrapper and subclasses that override it
        keep their own method.
        """
        raw = cls.__dict__[attr]
        if isinstance(raw, (staticmethod, classmethod)):
            new = type(raw)(self.wrap(raw.__func__, name, **hooks))
        else:
            new = self.wrap(raw, name, **hooks)
        self._patch(cls, attr, new, raw)

    def install_function(
        self, fn: Callable, name: str, prefix: str, **hooks
    ) -> int:
        """Wrap a module-level function everywhere it is bound.

        ``from m import f`` copies the binding, so every loaded module
        under ``prefix`` whose attribute *is* ``fn`` gets the wrapper.
        Returns the number of bindings replaced; modules imported later
        see the original. Import everything first.
        """
        wrapper = self.wrap(fn, name, **hooks)
        replaced = 0
        for mod_name, module in sorted(sys.modules.items()):
            if module is None or not (
                mod_name == prefix or mod_name.startswith(prefix + ".")
            ):
                continue
            for attr, value in sorted(vars(module).items()):
                if value is fn:
                    self._patch(module, attr, wrapper, fn)
                    replaced += 1
        return replaced

    def install_dict_values(
        self, table: Dict[str, Callable], name_of: Callable[[str], str]
    ) -> None:
        """Wrap every value of a name -> callable registry."""
        for key, fn in sorted(table.items()):
            self._patch(table, key, self.wrap(fn, name_of(key)), fn)

    def restore(self) -> bool:
        """Put every original back; True when all were restored intact."""
        ok = True
        while self._patches:
            owner, attr, old, new = self._patches.pop()
            if isinstance(owner, dict):
                ok &= owner.get(attr) is new
                owner[attr] = old
                ok &= owner[attr] is old
            else:
                current = (
                    owner.__dict__.get(attr)
                    if isinstance(owner, type)
                    else getattr(owner, attr, None)
                )
                ok &= current is new
                setattr(owner, attr, old)
                restored = (
                    owner.__dict__.get(attr)
                    if isinstance(owner, type)
                    else getattr(owner, attr, None)
                )
                ok &= restored is old
        return ok
