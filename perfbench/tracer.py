"""In-memory spans around calls into crnlump's public functions.

A span is (name, tag, start, end, parent, root).  ``root`` is the index
of the outermost span on the stack when the span opened, which is the
benchmark operation that caused it, so all spans of one operation share
it.

:meth:`Tracer.install` wraps the functions in :data:`TRACED` in every
loaded ``crnlump`` module namespace that refers to them.  A call the
library makes internally, such as the bisimulation re-check inside
``forward_reduce`` or the two integrations inside ``verify_forward``,
then nests under its caller, and a layer's self time excludes the time
its callees spent in other layers.  Untraced runs never install, so
they execute the library unchanged.
"""

from __future__ import annotations

import functools
import sys
import time

# Layer (module of crnlump) -> public functions that get a span.  A name
# missing from the library is skipped, so a later API change drops spans
# instead of breaking the run.
TRACED = {
    "models": ("multisite", "random_crn"),
    "io": (
        "parse_crn",
        "parse_partition",
        "serialize_crn",
        "partition_from_initial_conditions",
    ),
    "bisim": ("refine", "is_bisimulation", "find_counterexample"),
    "reduce": ("forward_reduce", "backward_reduce"),
    "odes": ("vector_field", "is_exactly_lumpable", "is_ordinarily_lumpable"),
    "sim": ("integrate", "verify_forward", "verify_backward"),
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _tag(fname: str, args, kwargs):
    """Distinguishes calls of one function: the bisimulation mode, or the
    species count of the network an integration or verification runs on."""
    if fname in ("refine", "is_bisimulation", "find_counterexample"):
        return str(_arg(args, kwargs, 2, "mode"))
    if fname == "integrate":
        return len(_arg(args, kwargs, 0, "vf").species)
    if fname in ("verify_forward", "verify_backward"):
        return _arg(args, kwargs, 0, "crn").n_species
    return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def open(self, name: str, tag=None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        root = self.spans[self._stack[0]][5] if self._stack else idx
        self.spans.append([name, tag, time.perf_counter(), None, parent, root])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fname: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name, _tag(fname, args, kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return traced

    def install(self) -> None:
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == "crnlump" or key.startswith("crnlump."))
        ]
        for layer, fnames in TRACED.items():
            home = sys.modules.get(f"crnlump.{layer}")
            for fname in fnames:
                original = getattr(home, fname, None)
                if original is None:
                    continue
                wrapper = self._wrap(f"{layer}.{fname}", fname, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time covered by its children."""
        own = [end - start for _, _, start, end, _, _ in self.spans]
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def as_records(self) -> list[dict]:
        return [
            {"name": n, "tag": t, "start": s, "end": e, "parent": p, "op": r}
            for n, t, s, e, p, r in self.spans
        ]
