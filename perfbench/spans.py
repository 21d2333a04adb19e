"""Span recording around calls into fracgcl, and the per-layer numbers they give.

A span is one call into a public function of a fracgcl module: its name
(``<module>.<function>``), start, end, parent span and run id.  Spans are
kept in memory and written out once, when the run ends.

Wrappers are installed from outside the package.  Every function named in
a module's ``__all__`` is wrapped, and the wrapper replaces the original in
every ``fracgcl`` module (and the package namespace) that holds it.  A public
function added later is therefore traced without editing this file.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import pkgutil
import sys
from time import perf_counter

PACKAGE = "fracgcl"

# Private names that are traced besides ``__all__``: the integral path of
# the Mittag-Leffler kernel is counted through the ``quad`` that ``special``
# imports from scipy.
EXTRA_NAMES = {"special": ("quad",)}

# Fields of one span record.
NAME, START, END, PARENT, NBYTES = range(5)


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack = [-1]

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1], 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = perf_counter()
        self._stack.pop()

    def span(self, name: str):
        return _Span(self, name)

    def wrap(self, name: str, fn, count_bytes: bool = False):
        """Return ``fn`` wrapped so that each call records one span.

        With ``count_bytes`` the span also records the total size of the
        files named by its string arguments after the call, which is how
        the data layer's bytes read and written are measured from outside.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)
                if count_bytes:
                    rec[NBYTES] = _file_bytes(args, kwargs)

        return traced

    def records(self) -> list[dict]:
        return [
            {
                "id": i,
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                "run": self.run_id,
                "bytes": nbytes,
            }
            for i, (name, start, end, parent, nbytes) in enumerate(self.spans)
        ]


class _Span:
    """Context manager for one span; ``as`` gives the span's id."""

    def __init__(self, tracer: Tracer, name: str):
        self._tracer = tracer
        self._name = name
        self._record = None

    def __enter__(self) -> int:
        self._record = self._tracer._open(self._name)
        return len(self._tracer.spans) - 1

    def __exit__(self, *exc):
        self._tracer._close(self._record)
        return False


def _file_bytes(args, kwargs) -> int:
    total = 0
    for value in (*args, *kwargs.values()):
        if isinstance(value, str) and os.path.isfile(value):
            total += os.path.getsize(value)
    return total


def layer_modules() -> dict:
    """Every fracgcl submodule with an ``__all__``, keyed by its short name."""
    pkg = importlib.import_module(PACKAGE)
    found = {}
    for info in pkgutil.iter_modules(pkg.__path__):
        mod = importlib.import_module(f"{PACKAGE}.{info.name}")
        if hasattr(mod, "__all__"):
            found[info.name] = mod
    return found


def install(tracer: Tracer):
    """Wrap every public function of every layer; return a function that undoes it."""
    replacements = {}
    for layer, mod in layer_modules().items():
        # a re-exported function is named after the module that defines it
        own = [
            a for a in mod.__all__ if getattr(getattr(mod, a), "__module__", None) == mod.__name__
        ]
        for attr in (*own, *EXTRA_NAMES.get(layer, ())):
            fn = getattr(mod, attr)
            if callable(fn) and not inspect.isclass(fn):
                replacements[id(fn)] = (
                    fn,
                    tracer.wrap(f"{layer}.{attr}", fn, count_bytes=layer == "data"),
                )
    holders = [
        m
        for name, m in sys.modules.items()
        if name == PACKAGE or name.startswith(PACKAGE + ".")
    ]
    patched = []
    for mod in holders:
        for attr, value in list(vars(mod).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
                patched.append((mod, attr, value))

    def uninstall() -> None:
        for mod, attr, value in patched:
            setattr(mod, attr, value)

    return uninstall


def write(spans: list[dict], path: str) -> None:
    """Write spans as JSON lines."""
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps(s) + "\n")


def read(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def graft(spans: list[dict], children: list[dict], parent_id: int) -> None:
    """Append a child process's spans, hanging its roots under ``parent_id``."""
    offset = len(spans)
    for s in children:
        s = dict(s)
        s["id"] += offset
        s["parent"] = parent_id if s["parent"] < 0 else s["parent"] + offset
        spans.append(s)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def analyse(spans: list[dict]) -> dict:
    """Calls, busy time and self time per span name, and self time per layer.

    Busy time counts a call only where no call of the same name encloses
    it, so recursion is not counted twice.  Self time is a span's duration
    minus the part its child spans cover.  Spans of one process nest and
    never overlap, so that part is the sum of the children's durations.
    """
    by_id = {s["id"]: s for s in spans}
    child_time = {s["id"]: 0.0 for s in spans}
    for s in spans:
        if s["parent"] >= 0:
            child_time[s["parent"]] += s["end"] - s["start"]
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    self_by_name: dict[str, float] = {}
    layer_busy: dict[str, float] = {}
    layer_self: dict[str, float] = {}
    nbytes: dict[str, int] = {}
    for s in spans:
        name = s["name"]
        dur = s["end"] - s["start"]
        self_t = dur - child_time[s["id"]]
        calls[name] = calls.get(name, 0) + 1
        self_by_name[name] = self_by_name.get(name, 0.0) + self_t
        layer = layer_of(name)
        layer_self[layer] = layer_self.get(layer, 0.0) + self_t
        same_name = same_layer = False
        p = s["parent"]
        while p >= 0:
            anc = by_id[p]
            same_name = same_name or anc["name"] == name
            same_layer = same_layer or layer_of(anc["name"]) == layer
            p = anc["parent"]
        if not same_name:
            busy[name] = busy.get(name, 0.0) + dur
        if not same_layer:
            layer_busy[layer] = layer_busy.get(layer, 0.0) + dur
        if not same_layer and s["bytes"]:
            nbytes[name] = nbytes.get(name, 0) + s["bytes"]
    return {
        "calls": calls,
        "busy": busy,
        "self": self_by_name,
        "layer_busy": layer_busy,
        "layer_self": layer_self,
        "bytes": nbytes,
    }
