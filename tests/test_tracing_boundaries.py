"""The benchmark's tracing rebinds lrc5 names; every one of them must exist.

Its field-operation counter also rebinds the Field arithmetic methods on the
class, so those must stay class attributes that every call goes through.

bench/tracing.py is read and executed here without importing it as a module,
so no bytecode is written next to it.
"""

from pathlib import Path

from lrc5 import Code, Field, cli, construct, simulate
from lrc5.codec import encode, hybrid_decode, local_repair

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
        code = Code.build(Field(7), 5)
        code.parity_check_matrix
        code.local_parity(0)
        code.local_parity(1)
    names = [span[0] for span in tracer.spans]
    assert names.count("construct.parity") == 1
    assert names.count("construct.local_parity") == 1
    assert names.count("linalg.rref") >= 1
    assert not hasattr(construct.build_parity_check, "__wrapped__")  # undone


def test_hybrid_decode_of_loaded_code_builds_no_matrix(tmp_path, capsys):
    """Loading builds neither H nor G: parity.csv is compared with text
    rendered from the one RREF of the 3 dense dual rows, and generator.csv
    with text joined from log-indexed block texts. Decoding then constructs
    neither."""
    d = tmp_path / "code"
    assert cli.main(["gen", "--q", "7", "--r", "5", "--out", str(d)]) == 0
    code = Code.build(Field(7), 5)
    word = encode(code.field, code.generator_matrix, [i % 7 for i in range(1, 28)])
    word[0] = word[1] = None  # one cell, two erasures: needs the global solve
    holey = tmp_path / "h.txt"
    holey.write_text(",".join("?" if s is None else str(s) for s in word) + "\n")
    tracer = load_tracing()["Tracer"]()
    with tracer.operation():
        rc = cli.main(["decode", "--code", str(d), "--word", str(holey),
                       "--policy", "hybrid"])
    capsys.readouterr()
    assert rc == 0
    names = [span[0] for span in tracer.spans]
    assert names.count("formats.load_artifacts") == 1
    assert names.count("codec.erasure_decode") == 1
    assert names.count("construct.generator") == 0
    assert names.count("construct.parity") == 0
    assert names.count("linalg.rref") == 1
    parent = tracer.spans[tracer.spans[names.index("linalg.rref")][3]]
    assert parent[0] == "formats.load_artifacts"


def test_field_op_counter_sees_repair_and_decode():
    """Counted over a local repair and a hybrid decode that needs the global
    solve. The counter wraps Field.add/mul/dot on the class: were they made
    per-instance attributes, it would miss them or find nothing to wrap."""
    code = Code.build(Field(7), 5)
    word = encode(code.field, code.generator_matrix, [i % 7 for i in range(1, 28)])
    counts: dict[str, int] = {}
    with load_tracing()["counting_field_ops"](counts):
        received = list(word)
        received[3] = None
        assert local_repair(code, received, 3) == word[3]
        received[0] = received[1] = None  # two erasures in one cell
        assert hybrid_decode(code, received).codeword == word
    assert all(counts[op] > 0 for op in ("add", "mul", "dot")), counts


def test_simulate_spans_see_every_local_pass_and_the_global_solve():
    """The benchmark's simulate.local_pass_ms and simulate.erasure_decode_ms
    views read these spans inside a simulate.run span: one local pass per
    trial, and the global solve of each trial that local repair leaves
    unfinished. Were either call no longer made through simulate's globals,
    its view would read 0."""
    code = Code.build(Field(7), 5)
    config = simulate.SimulationConfig(model="fixed", t=3, trials=20, seed=0, policy="hybrid")
    tracer = load_tracing()["Tracer"]()
    with tracer.operation(), tracer.span("simulate.run"):
        result = simulate.run_simulation(code, config)
    names = [span[0] for span in tracer.spans]
    assert names.count("codec.local_pass") == 20
    assert names.count("codec.erasure_decode") >= 1
    assert result.globally_repaired > 0
    run = names.index("simulate.run")
    for name in ("codec.local_pass", "codec.erasure_decode"):
        assert {span[3] for span in tracer.spans if span[0] == name} == {run}
