"""In-memory span tracer that wraps the codec's module boundaries from outside.

`installed(tracer, modules)` replaces every function a module imported from
another `nbv` module (e.g. `nbv.encoder.motion_search`) with a wrapper that
records a span named `<layer>.<function>`, and puts the originals back on
exit. The package itself is not edited. A span's self time is its duration
minus the time its child spans cover, so the self times of all spans under
one root add up to the root's duration exactly.
"""

from __future__ import annotations

import inspect
import json
import time
from contextlib import contextmanager

_clock = time.perf_counter_ns


def _train_counts(args, kwargs):
    cfg = args[3] if len(args) > 3 else kwargs.get("cfg")
    if cfg is None:
        from nbv.gnn import TrainConfig
        cfg = TrainConfig()
    return {"gnn.train_samples": len(args[1]), "gnn.train_steps": cfg.steps}


# Counts taken from a call's arguments at the boundary where the work happens.
COUNTERS = {
    "gnn.train": _train_counts,
    "bitstream.write_frame": lambda args, kwargs: {
        "bitstream.blocks_written": len(args[1].blocks)},
}


class Tracer:
    """Records spans as (id, parent, root, name, start_ns, end_ns, self_ns)."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = {}
        self._stack: list[list] = []  # [id, root, name, start_ns, child_ns]
        self._next_id = 0

    def _push(self, name: str) -> None:
        sid = self._next_id
        self._next_id += 1
        root = self._stack[0][0] if self._stack else sid
        self._stack.append([sid, root, name, _clock(), 0])

    def _pop(self) -> None:
        end = _clock()
        sid, root, name, start, child = self._stack.pop()
        dur = end - start
        parent = None
        if self._stack:
            self._stack[-1][4] += dur
            parent = self._stack[-1][0]
        self.spans.append((sid, parent, root, name, start, end, dur - child))

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        counts = self.counts

        def traced(*args, **kwargs):
            if counter is not None:
                for key, n in counter(args, kwargs).items():
                    counts[key] = counts.get(key, 0) + n
            self._push(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._pop()

        return traced

    def units(self, name: str, gen):
        """Re-yield a generator, timing each step as a span."""
        while True:
            self._push(name)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._pop()
            yield item

    def traced_parse_stream(self, fn):
        """parse_stream returns (header, unit generator); time both parts."""
        wrapped = self.wrap("bitstream.parse_stream", fn)

        def traced(data):
            header, units = wrapped(data)
            return header, self.units("bitstream.parse_stream.units", units)

        return traced

    def self_by_root(self) -> dict[tuple[str, str], list[int]]:
        """(root span name, span name) -> [self ns, calls]."""
        names = {s[0]: s[3] for s in self.spans if s[1] is None}
        out: dict[tuple[str, str], list[int]] = {}
        for s in self.spans:
            acc = out.setdefault((names[s[2]], s[3]), [0, 0])
            acc[0] += s[6]
            acc[1] += 1
        return out

    def root_durations(self, name: str) -> list[int]:
        return [s[5] - s[4] for s in self.spans if s[1] is None and s[3] == name]

    def write_jsonl(self, path) -> None:
        t0 = min((s[4] for s in self.spans), default=0)
        with open(path, "w") as f:
            for sid, parent, root, name, start, end, self_ns in self.spans:
                f.write(json.dumps({
                    "id": sid, "parent": parent, "root": root, "name": name,
                    "start_ns": start - t0, "end_ns": end - t0, "self_ns": self_ns,
                }) + "\n")


def boundary_names(module) -> list[tuple[str, object]]:
    """Functions a codec module imported from another codec module."""
    return [
        (attr, obj) for attr, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__.startswith("nbv.")
        and obj.__module__ != module.__name__
    ]


@contextmanager
def installed(tracer: Tracer, modules):
    saved = []
    try:
        for mod in modules:
            for attr, fn in boundary_names(mod):
                layer = fn.__module__.split(".", 1)[1]
                if attr == "parse_stream":
                    wrapper = tracer.traced_parse_stream(fn)
                else:
                    wrapper = tracer.wrap(f"{layer}.{fn.__name__}", fn)
                saved.append((mod, attr, fn))
                setattr(mod, attr, wrapper)
        yield tracer
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)
