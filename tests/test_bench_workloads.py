"""One checked operation of every benchmark workload.

Each workload runs as the benchmark runs it: setup, prepare (the sha256 pins
of G and H), one operation, and the workload's own output check. Any failure
here is a failure the benchmark would count.

The bench modules are read and executed here without importing them from
bench/, so no bytecode is written next to them.
"""

import random
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def exec_bench_module(monkeypatch, name: str) -> types.ModuleType:
    """bench/<name>.py as a module registered under its own name for the test,
    so the bench modules' imports of one another resolve to these copies."""
    path = BENCH / f"{name}.py"
    module = types.ModuleType(name)
    module.__file__ = str(path)
    monkeypatch.setitem(sys.modules, name, module)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


@pytest.mark.parametrize("name", ["store-gf16", "certify-gf13", "sim-gf9", "cli-gf13"])
def test_workload_runs_one_checked_operation(tmp_path, capsys, monkeypatch, name):
    exec_bench_module(monkeypatch, "stats")
    null = exec_bench_module(monkeypatch, "tracing").NullTracer()
    workloads = exec_bench_module(monkeypatch, "workloads").WORKLOADS
    assert list(workloads) == ["store-gf16", "certify-gf13", "sim-gf9", "cli-gf13"]
    wl = workloads[name](tmp_path)
    state = wl.setup(null)
    ref, checked = wl.prepare(state)
    assert checked.failures == []
    inp = wl.make_input(random.Random(1))
    out = wl.run(state, inp, null)
    checked = wl.check(ref, inp, out)
    assert checked.attempted > 0 and checked.failures == []
    assert capsys.readouterr().err == ""
