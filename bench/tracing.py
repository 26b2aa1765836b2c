"""Spans and field-operation counters recorded from outside the program.

Nothing under src/ is changed. While tracing is on, the benchmark rebinds
the names the lrc5 modules import from one another (and the few calls that
stay inside one module) to thin wrappers that record a span per call. The
rebinding is undone between traced operations, so the same process can time
an operation with and without tracing and report the difference.

A span is (name, start, end, parent index, operation id). Spans stay in
memory until the run ends.
"""

import contextlib
import time
from collections import defaultdict

from lrc5 import cli, codec, construct, simulate, verify
from lrc5.field import Field

# (owner, attribute, span name). The span is named after the callee, so one
# function called from several modules aggregates under one name; the parent
# span tells the call sites apart.
BOUNDARIES = [
    (Field, "__init__", "field.build"),
    (construct, "build_generator_matrix", "construct.generator"),
    (construct, "build_parity_check", "construct.parity"),
    (construct, "local_parity_vector", "construct.local_parity"),
    (construct, "nullspace", "linalg.nullspace"),
    (construct, "rref", "linalg.rref"),
    (codec, "encode", "codec.encode"),
    (codec, "local_repair", "codec.local_repair"),
    (codec, "hybrid_decode", "codec.hybrid_decode"),
    (codec, "erasure_decode", "codec.erasure_decode"),
    (codec, "solve", "linalg.solve"),
    (simulate, "encode", "codec.encode"),
    (simulate, "_local_pass", "codec.local_pass"),
    (simulate, "erasure_decode", "codec.erasure_decode"),
    (verify, "encode", "codec.encode"),
    (verify, "local_repair", "codec.local_repair"),
    (cli, "load_artifacts", "formats.load_artifacts"),
    (cli, "write_artifacts", "formats.write_artifacts"),
    (cli, "encode", "codec.encode"),
    (cli, "local_repair", "codec.local_repair"),
    (cli, "hybrid_decode", "codec.hybrid_decode"),
    (cli, "erasure_decode", "codec.erasure_decode"),
]

COUNTED_OPS = ("add", "sub", "mul", "dot")


class NullTracer:
    """Tracing off: spans cost one attribute lookup and a no-op context."""

    def span(self, name):
        return contextlib.nullcontext()


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self._stack: list[int] = []
        self.op = 0

    def _open(self, name) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(idx)
        return idx

    def _close(self, idx) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def operation(self, name="bench.op"):
        """Trace one operation: boundaries rebound, a root span, a new id."""
        self.op += 1
        undo = self.install()
        try:
            with self.span(name):
                yield
        finally:
            undo()

    def install(self):
        """Rebind every boundary; returns the undo function."""
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in BOUNDARIES]
        for owner, attr, name in BOUNDARIES:
            setattr(owner, attr, self.wrap(name, getattr(owner, attr)))

        def undo():
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

        return undo

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, inclusive ms, self ms (duration minus children)."""
        child_ms = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ms[parent] += (end - start) * 1000
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = out[name]
            dur = (end - start) * 1000
            row["calls"] += 1
            row["ms"] += dur
            row["self_ms"] += dur - child_ms[i]
        return dict(out)

    def by_ancestor(self) -> dict[tuple[str, str], float]:
        """Inclusive ms per (span name, name of any enclosing span)."""
        out: dict[tuple[str, str], float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            seen = set()
            while parent >= 0:
                pname = self.spans[parent][0]
                if pname not in seen:
                    seen.add(pname)
                    out[(name, pname)] += (end - start) * 1000
                parent = self.spans[parent][3]
        return dict(out)


def layer_self_ms(summary: dict[str, dict]) -> dict[str, float]:
    """Self time per layer; a span's layer is its name up to the first dot."""
    out: dict[str, float] = defaultdict(float)
    for name, row in summary.items():
        out[name.split(".", 1)[0]] += row["self_ms"]
    return dict(out)


@contextlib.contextmanager
def counting_field_ops(counts: dict[str, int]):
    """Count calls to the Field arithmetic methods named in COUNTED_OPS.

    Kept apart from the traced run: wrapping per-element calls costs far more
    than the calls themselves, so counted runs are never timed.
    """
    saved = {op: getattr(Field, op) for op in COUNTED_OPS}

    def counter(op, fn):
        def counted(self, *args):
            counts[op] += 1
            return fn(self, *args)

        return counted

    for op, fn in saved.items():
        counts.setdefault(op, 0)
        setattr(Field, op, counter(op, fn))
    try:
        yield counts
    finally:
        for op, fn in saved.items():
            setattr(Field, op, fn)
