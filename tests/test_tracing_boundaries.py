"""The benchmark's tracing rebinds lrc5 names; every one of them must exist.

bench/tracing.py is read and executed here without importing it as a module,
so no bytecode is written next to it.
"""

from pathlib import Path

from lrc5 import Code, construct, field_new

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing() -> dict:
    ns = {"__name__": "bench_tracing"}
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), ns)
    return ns


def test_every_boundary_exists():
    missing = [
        (getattr(owner, "__name__", owner), attr)
        for owner, attr, _ in load_tracing()["BOUNDARIES"]
        if not callable(getattr(owner, attr, None))
    ]
    assert missing == []


def test_construct_boundaries_record_spans():
    tracer = load_tracing()["Tracer"]()
    with tracer.operation():
        code = Code.build(field_new(7), 5)
        code.parity_check_matrix
        code.local_parity(0)
        code.local_parity(1)
    names = [span[0] for span in tracer.spans]
    assert names.count("construct.parity") == 1
    assert names.count("construct.local_parity") == 1
    assert names.count("linalg.rref") >= 1
    assert not hasattr(construct.build_parity_check, "__wrapped__")  # undone
