"""Spans around dopwave's public functions, installed from outside the package.

The tracer replaces, for the duration of a `with tracer.installed(...)`
block, every function listed in a layer module's ``__all__`` wherever a
dopwave module binds it (so ``doppler._acf`` and ``stagger.code_acfs`` are
caught as well as ``codes.acf``), plus the ``from_json_dict`` classmethods
and ``AmbiguitySurface.write_csv``.  Nothing under ``src/`` changes.

``digit_sum_mod`` stays unwrapped: it runs once per train slot, and a span
per call would cost more than the call itself.

Spans live in memory as ``[id, parent, name, layer, start, end, codes]`` and
are written out by the caller when the run ends.
"""

import contextlib
import functools
import inspect
import sys
import time

LAYERS = ("numtheory", "codes", "doppler", "stagger")
ROOT_LAYER = "cli"
SKIP = {"numtheory.digit_sum_mod"}
# Functions whose result is a code set; their spans note how many codes came in.
CODE_SOURCES = {"codes.Ccm.from_json_dict", "codes.gen_golay_pair", "codes.gen_dft_set"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, fn, name: str, layer: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        note = name in CODE_SOURCES

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else -1, name, layer, clock(), 0.0, None]
            spans.append(rec)
            stack.append(rec[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[5] = clock()
                stack.pop()
            if note:
                rec[6] = result.count
            return result

        return traced

    @contextlib.contextmanager
    def root(self, name: str):
        """A top-level span, one per replayed command."""
        rec = [len(self.spans), -1, name, ROOT_LAYER, time.perf_counter(), 0.0, None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        try:
            yield rec
        finally:
            rec[5] = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def installed(self, package: str = "dopwave"):
        """Wrap the package's public functions; restore the originals on exit."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == package or n.startswith(package + ".")]
        wrappers = {}  # id(original) -> wrapper
        undo = []
        seen = set()
        for layer in LAYERS:
            module = sys.modules[f"{package}.{layer}"]
            for attr in module.__all__:
                obj = getattr(module, attr)
                name = f"{layer}.{attr}"
                if inspect.isfunction(obj) and name not in SKIP:
                    wrappers[id(obj)] = self._wrap(obj, name, layer)
                elif inspect.isclass(obj):
                    for meth in ("from_json_dict", "write_csv"):
                        raw = obj.__dict__.get(meth)
                        if raw is None or (obj, meth) in seen:
                            continue
                        seen.add((obj, meth))
                        label = f"{layer}.{attr}.{meth}"
                        if isinstance(raw, classmethod):
                            new = classmethod(self._wrap(raw.__func__, label, layer))
                        else:
                            new = self._wrap(raw, label, layer)
                        setattr(obj, meth, new)
                        undo.append((obj, meth, raw))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and inspect.isfunction(value):
                    setattr(module, attr, wrappers[id(value)])
                    undo.append((module, attr, value))
        try:
            yield self
        finally:
            for target, attr, value in reversed(undo):
                setattr(target, attr, value)


def summarize(spans) -> dict:
    """Per-name calls/inclusive seconds and per-layer self seconds.

    Inclusive seconds count only the outermost span of a name, so a
    function that re-enters itself is not counted twice.  A span's self
    time is its duration minus its children's durations; because spans nest
    strictly, the self times of all layers add up to the root spans' total.
    """
    child_time = [0.0] * len(spans)
    for rec in spans:
        if rec[1] >= 0:
            child_time[rec[1]] += rec[5] - rec[4]
    by_name: dict[str, dict] = {}
    self_by_layer = {layer: 0.0 for layer in (ROOT_LAYER, *LAYERS)}
    codes = 0
    for rec in spans:
        dur = rec[5] - rec[4]
        self_by_layer[rec[3]] += dur - child_time[rec[0]]
        entry = by_name.setdefault(rec[2], {"calls": 0, "s": 0.0})
        entry["calls"] += 1
        parent = rec[1]
        while parent >= 0 and spans[parent][2] != rec[2]:
            parent = spans[parent][1]
        if parent < 0:
            entry["s"] += dur
        if rec[6] is not None:
            codes += rec[6]
    roots = sum(r[5] - r[4] for r in spans if r[1] < 0)
    return {"by_name": by_name, "self_s": self_by_layer, "root_s": roots, "codes_loaded": codes}
