"""Spans at the program's layer boundaries, recorded from outside it.

`Tracer.install` replaces every public function of each layer module (and
the public methods and `__post_init__` of its classes) with a wrapper, in
the defining module and wherever another module imported it by name.  A
wrapped call opens a span; its self time is its duration minus the time
of the spans it opened.  Spans are kept in memory up to a cap and written
out when the run ends; totals per function cover every call.

Times are folded into calibrated totals step by step (`flush`), with the
same reference factor the untraced figures use.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import tracemalloc
import types

LAYERS = (
    "optics",
    "strategies",
    "codes",
    "kernels",
    "protocol",
    "operator_model",
    "counterfactual",
    "cli",
)

PACKAGE = "mzqbc"
#: spans kept in memory; totals per function still cover every call
SPAN_CAP = 200_000
#: Concealing-kernel arguments: (codewords, parities, cw_idx, intercept, ...)
CONCEALING = "kernels.concealing_stats"
BINDING = "kernels.binding_counts"
CODE_NAMES = {8: "extended_hamming", 24: "golay"}
#: fields of a total: calls, calls from outside the layer, inclusive s, self s
CALLS, ENTRIES, INCLUSIVE_S, SELF_S = range(4)


class Tracer:
    def __init__(self):
        self.enabled = False
        self._stack: list[list] = []
        self._next_id = 0
        self._raw: dict[str, list[float]] = {}
        #: name -> [calls, entries, inclusive s, self s]; times calibrated
        self.totals: dict[str, list[float]] = {}
        self.setup: dict[str, list[float]] = {}
        self.counters: dict[str, float] = {}
        self.spans: list[tuple] = []
        self.dropped = 0
        #: (trials, 2^k, n) -> (kernel, arguments) of the first concealing call
        self._memory_calls: dict[tuple, tuple] = {}
        self._patches: list[tuple] = []

    # --- installation -----------------------------------------------------

    def install(self) -> None:
        self.enabled = True
        modules = {
            layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS
        }
        everyone = list(modules.values())
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
                    wrapped = self._wrap(layer, name, obj)
                    for holder in everyone:
                        if vars(holder).get(name) is obj:
                            self._patch(holder, name, wrapped)
                elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                    for attr, fn in list(vars(obj).items()):
                        public = not attr.startswith("_") or attr == "__post_init__"
                        if public and isinstance(fn, types.FunctionType):
                            self._patch(obj, attr, self._wrap(layer, f"{name}.{attr}", fn))

    def uninstall(self) -> None:
        self.enabled = False
        for holder, name, original in reversed(self._patches):
            setattr(holder, name, original)
        self._patches.clear()

    def _patch(self, holder, name: str, wrapped) -> None:
        self._patches.append((holder, name, vars(holder)[name]))
        setattr(holder, name, wrapped)

    def _wrap(self, layer: str, qualname: str, fn):
        key = f"{layer}.{qualname}"
        raw = self._raw.setdefault(key, [0, 0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            span_id = self._next_id
            self._next_id += 1
            frame = [layer, 0.0, span_id]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                raw[0] += 1
                if parent is None or parent[0] != layer:
                    raw[1] += 1
                raw[2] += dur
                raw[3] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((span_id, parent[2] if parent else None, key, t0, t1))
                else:
                    self.dropped += 1
                if key == BINDING or key == CONCEALING:
                    self._count_kernel(key, fn, args, dur)

        return wrapper

    def _count_kernel(self, key: str, fn, args, dur: float) -> None:
        if key == BINDING:
            self._add(f"{key}.trials", args[0].shape[0])
            return
        words, intercept = args[0], args[3]
        trials, n_words, n = intercept.shape[0], words.shape[0], words.shape[1]
        code = CODE_NAMES.get(n, f"n{n}")
        self._add(f"{key}.trials@{code}", trials)
        per_code = self._raw.setdefault(f"{key}@{code}", [0, 0, 0.0, 0.0])
        per_code[0] += 1
        per_code[2] += dur
        per_code[3] += dur
        # the (trials, 2^k, n) boolean comparison tensor the kernel builds
        self.counters["kernels.concealing_bytes"] = max(
            self.counters.get("kernels.concealing_bytes", 0), trials * n_words * n
        )
        self._memory_calls.setdefault((trials, n_words, n), (fn, args))

    def measure_memory(self) -> None:
        """Repeat the first concealing call of each shape under tracemalloc,
        untimed and outside every span, once the rounds are over.  The
        kernel is pure, so the kept arguments reproduce the call."""
        for fn, args in self._memory_calls.values():
            tracemalloc.start()
            try:
                fn(*args)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            self.counters["kernels.concealing_peak_mb"] = max(
                self.counters.get("kernels.concealing_peak_mb", 0.0), peak / 2**20
            )

    def _add(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    # --- accounting -------------------------------------------------------

    def flush(self, factor: float) -> None:
        """Fold the raw totals since the last flush into the calibrated
        totals, scaling times by the reference factor of that step."""
        for key, raw in self._raw.items():
            if raw[0] == 0:
                continue
            acc = self.totals.setdefault(key, [0, 0, 0.0, 0.0])
            acc[0] += raw[0]
            acc[1] += raw[1]
            acc[2] += raw[2] * factor
            acc[3] += raw[3] * factor
            raw[:] = [0, 0, 0.0, 0.0]

    def end_setup(self) -> None:
        """Set aside what was traced so far: the set-up counts once, not
        once per round."""
        self.setup, self.totals = self.totals, {}

    def per_round(self, key: str, field: int, rounds: int) -> float:
        """A calibrated total per traced round, the set-up's added once;
        `field` is one of CALLS, ENTRIES, INCLUSIVE_S, SELF_S."""
        zero = [0, 0, 0.0, 0.0]
        return self.setup.get(key, zero)[field] + self.totals.get(key, zero)[field] / rounds

    def layer(self, layer: str, field: int, rounds: int) -> float:
        """`per_round` summed over the functions of one layer."""
        keys = {k for k in (*self.setup, *self.totals) if k.startswith(layer + ".") and "@" not in k}
        return sum(self.per_round(k, field, rounds) for k in keys)

    def inclusive_s(self, key: str) -> float:
        """Calibrated inclusive seconds over all traced rounds."""
        return self.totals.get(key, [0, 0, 0.0, 0.0])[INCLUSIVE_S]

    def write(self, path) -> None:
        """Spans as JSON lines: id, parent id, name, start and end in s."""
        with open(path, "w") as fh:
            for span_id, parent, key, t0, t1 in self.spans:
                fh.write(json.dumps([span_id, parent, key, t0, t1]) + "\n")
