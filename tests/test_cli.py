import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from lrc5 import Code, Field, cli, verify
from lrc5 import field as field_module
from lrc5.cli import main
from lrc5.codec import encode
from lrc5.formats import load_artifacts
from lrc5.linalg import transpose

from .oracles import oracle_dual_rows

README = Path(__file__).resolve().parent.parent / "README.md"

# 1-based frozen minimum-weight support of the (7,5) code
BAD_SUPPORT_1BASED = [1, 2, 34, 36]


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def gen_code(tmp_path, capsys, q="7", r="5"):
    d = tmp_path / f"code{q}{r}"
    rc, out, err = run(capsys, "gen", "--q", q, "--r", r, "--out", str(d))
    assert rc == 0 and err == ""
    return d


def edit_manifest(d, edit):
    """Apply edit to the parsed manifest.json of gen directory d."""
    mpath = d / "manifest.json"
    manifest = json.loads(mpath.read_text())
    edit(manifest)
    mpath.write_text(json.dumps(manifest))


def encode_argv(d, tmp_path):
    """An encode of a valid message for d, so that only loading can fail."""
    k = json.loads((d / "manifest.json").read_text())["code"]["k"]
    msg = tmp_path / "msg.txt"
    msg.write_text(",".join(["1"] * k) + "\n")
    return ["encode", "--code", str(d), "--message", str(msg), "--out", str(tmp_path / "w.txt")]


def write_word(path, symbols):
    path.write_text(",".join("?" if s is None else str(s) for s in symbols) + "\n")


def read_word(path):
    return [
        None if tok == "?" else int(tok)
        for tok in path.read_text().strip().split(",")
    ]


def test_params_output(capsys):
    rc, out, err = run(capsys, "params", "--q", "7", "--r", "5")
    assert rc == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "q=7 p=7 m=1 modulus=[0, 1]"
    assert lines[1] == "r=5 n=36 k=27 d_target=5"
    assert "singleton_like_bound=5" in lines
    assert "optimal_regime=yes" in lines
    assert "optimality_equivalence=holds" in lines


@pytest.mark.parametrize("r", ["0", "-1"])
def test_params_refuses_locality_below_one(capsys, r):
    err = "ERR Validation: locality must be at least 1\n"
    assert run(capsys, "params", "--q", "7", "--r", r) == (2, "", err)


@pytest.mark.parametrize("q,n,k", [("4096", 16769025, 11179347), ("65521", 4292870400, 2861913597)])
def test_params_computes_arithmetic_only(capsys, monkeypatch, q, n, k):
    """params builds no grid, basis or field table, so it answers at once at
    any q up to 2^16; building the code at q = 4096 needs gigabytes."""
    def no_build(*args):
        raise AssertionError("params built part of the code")

    monkeypatch.setattr("lrc5.construct.build_domain", no_build)
    monkeypatch.setattr("lrc5.construct.build_monomial_basis", no_build)
    built = []
    monkeypatch.setattr(Field, "_add", property(lambda f: built.append(f)))
    monkeypatch.setattr(Field, "_mul", property(lambda f: built.append(f)))
    rc, out, err = run(capsys, "params", "--q", q, "--r", "2")
    assert rc == 0 and err == "" and built == []
    assert f"r=2 n={n} k={k} d_target=5" in out.splitlines()


@pytest.mark.parametrize(
    "argv",
    [("verify", "--q", "4099", "--r", "2"),
     ("verify", "--q", "4099", "--r", "2", "--suite", "bounds"),
     ("simulate", "--q", "8192", "--r", "8190", "--model", "fixed", "--t", "1")],
)
def test_verify_and_simulate_refuse_orders_above_the_tables(tmp_path, capsys, monkeypatch, argv):
    """verify and simulate read the q x q tables, which stop at GF(4096):
    above it the code is refused before its grid or basis is built (at
    q = 4099 they would hold 16.8M and 11.2M entries), with Field's line."""
    def no_build(*args):
        raise AssertionError("built part of the code")

    monkeypatch.setattr("lrc5.construct.build_domain", no_build)
    monkeypatch.setattr("lrc5.construct.build_monomial_basis", no_build)
    rc, out, err = run(capsys, *argv, "--out", str(tmp_path / "out"))
    q = argv[2]
    assert rc == 2 and out == ""
    assert err == (f"ERR TooLarge: GF({q}) is above GF(4096), the largest order "
                   "that builds q x q addition and multiplication tables\n")
    assert not (tmp_path / "out").exists()


def test_params_reports_equivalence_side_condition(capsys):
    rc, out, _ = run(capsys, "params", "--q", "5", "--r", "3")
    assert rc == 0
    assert "optimality_equivalence=inapplicable" in out
    assert "singleton_like_bound=6" in out


def test_params_extension_field(capsys):
    rc, out, _ = run(capsys, "params", "--q", "8", "--r", "6")
    assert rc == 0
    assert "q=8 p=2 m=3 modulus=[1, 1, 0, 1]" in out
    assert "r=6 n=49 k=39 d_target=5" in out


def test_usage_errors_exit_1(capsys):
    rc, _, err = run(capsys, "params", "--q", "7")
    assert rc == 1
    assert err.startswith("ERR Usage:")
    assert err.count("ERR") == 1

    rc, _, err = run(capsys, "conjure")
    assert rc == 1
    assert err.startswith("ERR Usage:")

    rc, _, err = run(capsys)
    assert rc == 1

    for command in ("params", "gen", "simulate"):
        argv = [a for a in VALID_ARGV[command] if a not in ("--q", "7")]
        rc, out, err = run(capsys, command, *argv)
        assert rc == 1 and out == ""
        assert err.startswith("ERR Usage:") and err.count("\n") == 1
        assert "--q" in err


def test_validation_errors_exit_2(capsys):
    rc, _, err = run(capsys, "params", "--q", "6", "--r", "5")
    assert rc == 2 and err.startswith("ERR Validation:")
    assert "prime power" in err

    rc, _, err = run(capsys, "params", "--q", "7", "--r", "4")
    assert rc == 2 and err.startswith("ERR DivisibilityViolation:")

    rc, _, err = run(capsys, "params", "--q", "5", "--r", "1")
    assert rc == 2 and err.startswith("ERR DegenerateCode:")


@pytest.mark.parametrize("source", ["--q", "manifest"])
@pytest.mark.parametrize("order", ["2305843009213693951", "65538"])
def test_orders_above_cap_rejected_before_factoring(tmp_path, capsys, source, order):
    # 2^61 - 1 is prime: trial division up to its square root takes hours
    if source == "--q":
        argv = ["params", "--q", order, "--r", "5"]
    else:
        d = gen_code(tmp_path, capsys)
        edit_manifest(d, lambda doc: doc["field"].update(p=int(order), m=1))
        argv = encode_argv(d, tmp_path)
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == ""
    assert err.startswith("ERR TooLarge:") and err.count("ERR") == 1


@pytest.mark.parametrize("p,m", [(-300, 2), (6, 1), (4, 2)])
def test_non_prime_characteristic_reports_not_prime(tmp_path, capsys, p, m):
    d = gen_code(tmp_path, capsys)
    edit_manifest(d, lambda doc: doc["field"].update(p=p, m=m))
    rc, out, err = run(capsys, *encode_argv(d, tmp_path))
    assert rc == 2 and out == ""
    assert err.startswith("ERR NotPrime:") and err.count("ERR") == 1
    assert not (tmp_path / "w.txt").exists()


@pytest.mark.parametrize(
    "q,r,field",
    [("8", "6", {"modulus": [1, 0, 1, 1]}), ("9", "3", {"modulus": [0, 0, 1]}),
     ("9", "3", {"modulus": [1, 2, 1]}), ("7", "5", {"q": 49}),
     ("7", "5", {"p": 2305843009213693951, "m": 0}), ("7", "5", {"p": float("inf")})],
    ids=["gf8-other-irreducible", "gf9-reducible", "gf9-square", "q-not-p^m",
         "degree-0", "p-infinite"],
)
def test_load_refuses_non_canonical_field(tmp_path, capsys, monkeypatch, q, r, field):
    """A manifest names its field by p and m. x^3 + x^2 + 1 is irreducible
    and has primitive element 2 too, but encoding under it would write a
    word of another code than the one gen built. No number above the order
    cap is factored: trial division of the prime 2^61 - 1 takes hours."""
    d = gen_code(tmp_path, capsys, q=q, r=r)
    edit_manifest(d, lambda doc: doc["field"].update(field))
    factor = field_module._prime_factors

    def capped(n):
        assert n <= field_module.MAX_ORDER, f"factored {n}"
        return factor(n)

    monkeypatch.setattr(field_module, "_prime_factors", capped)
    rc, out, err = run(capsys, *encode_argv(d, tmp_path))
    assert rc == 2 and out == ""
    assert err.startswith("ERR Format:") and err.count("\n") == 1
    assert "manifest.json" in err
    assert not (tmp_path / "w.txt").exists()


@pytest.mark.parametrize("ordering", [[], "x", 5, None], ids=["list", "str", "int", "null"])
def test_load_refuses_ordering_that_is_not_an_object(tmp_path, capsys, ordering):
    d = gen_code(tmp_path, capsys)
    edit_manifest(d, lambda doc: doc.update(ordering=ordering))
    rc, out, err = run(capsys, *encode_argv(d, tmp_path))
    assert rc == 2 and out == ""
    assert err.startswith("ERR Format:") and err.count("\n") == 1
    assert not (tmp_path / "w.txt").exists()


def test_load_refuses_manifest_integer_past_digit_limit(tmp_path, capsys):
    """json.loads raises a plain ValueError for an integer of more than
    4,300 digits; it is a malformed manifest like any other."""
    d = gen_code(tmp_path, capsys)
    argv = encode_argv(d, tmp_path)
    mpath = d / "manifest.json"
    text = mpath.read_text()
    assert '"r": 5\n' in text
    mpath.write_text(text.replace('"r": 5\n', '"r": ' + "5" * 5000 + "\n"))
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == ""
    assert err.startswith("ERR Format: ") and err.count("\n") == 1
    assert "manifest.json: invalid JSON (" in err


#: the usage line of each command's --help on a line wide enough for it;
#: the flags keep their order
HELP_USAGE = {
    (): "lrc5 [-h] {params,gen,encode,repair,decode,verify,simulate} ...",
    ("params",): "lrc5 params [-h] --q Q --r R",
    ("gen",): "lrc5 gen [-h] --q Q --r R [--out OUT]",
    ("encode",): "lrc5 encode [-h] --code CODE --message MESSAGE --out OUT",
    ("repair",): "lrc5 repair [-h] --code CODE --word WORD --position POSITION",
    ("decode",): "lrc5 decode [-h] --code CODE --word WORD [--policy {hybrid,global}] [--out OUT]",
    ("verify",): "lrc5 verify [-h] [--seed SEED] [--out OUT] [--q Q] [--r R] [--load LOAD] "
                 "[--suite {distance,lemma,locality,bounds,all}] "
                 "[--mode {auto,exhaustive,sampled}] [--trials TRIALS]",
    ("simulate",): "lrc5 simulate [-h] [--seed SEED] [--out OUT] --q Q --r R "
                   "--model {fixed,bernoulli} [--t T] [--rho RHO] [--trials TRIALS] "
                   "[--policy {local-only,hybrid}]",
}


def test_help_exits_zero(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")
    for command, usage in HELP_USAGE.items():
        rc, out, err = run(capsys, *command, "--help")
        assert (rc, err) == (0, "")
        assert out.splitlines()[0] == f"usage: {usage}"


def test_main_builds_one_parser_per_process_and_none_at_import(tmp_path):
    """Building the parser costs many parses, so main builds it on its first
    call; importing lrc5.cli, as every benchmark process does, builds none."""
    script = """
import argparse, contextlib, io
built = []
init = argparse.ArgumentParser.__init__
def counted(self, *args, **kwargs):
    init(self, *args, **kwargs)
    built.append(self.prog)
argparse.ArgumentParser.__init__ = counted
from lrc5 import cli
print(len(built))
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["params", "--q", "7", "--r", "5"]) for _ in range(2)]
print(codes, built.count("lrc5"))
"""
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(src)})
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "0\n[0, 0] 1\n"


def test_gen_writes_artifacts(tmp_path, capsys):
    d = gen_code(tmp_path, capsys)
    names = {p.name for p in d.iterdir()}
    assert names == {"manifest.json", "generator.csv", "parity.csv", "basis.txt"}
    manifest = json.loads((d / "manifest.json").read_text())
    assert manifest["code"]["n"] == 36


def test_gen_is_byte_deterministic(tmp_path, capsys):
    a = gen_code(tmp_path / "a", capsys)
    b = gen_code(tmp_path / "b", capsys)
    for name in ("manifest.json", "generator.csv", "parity.csv", "basis.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_encode_repair_decode_roundtrip(tmp_path, capsys):
    d = gen_code(tmp_path, capsys)
    msg = tmp_path / "msg.txt"
    msg.write_text(",".join(str(i % 7) for i in range(1, 28)) + "\n")
    word_path = tmp_path / "word.txt"

    rc, out, _ = run(capsys, "encode", "--code", str(d), "--message", str(msg),
                     "--out", str(word_path))
    assert rc == 0 and f"wrote {word_path}" in out
    word = read_word(word_path)
    assert len(word) == 36

    holey = tmp_path / "holey.txt"
    symbols = list(word)
    symbols[2] = None
    write_word(holey, symbols)
    rc, out, _ = run(capsys, "repair", "--code", str(d), "--word", str(holey),
                     "--position", "3")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "position: 3"
    assert lines[1] == f"symbol: {word[2]}"
    assert lines[2] == "read_positions: 1,2,4,5,6"

    symbols = list(word)
    for p in (2, 9, 20):
        symbols[p] = None
    write_word(holey, symbols)
    rc, out, _ = run(capsys, "decode", "--code", str(d), "--word", str(holey))
    assert rc == 0
    assert out.splitlines()[0] == ",".join(str(s) for s in word)
    assert "locally_repaired: 3" in out

    fixed = tmp_path / "fixed.txt"
    rc, out, _ = run(capsys, "decode", "--code", str(d), "--word", str(holey),
                     "--policy", "global", "--out", str(fixed))
    assert rc == 0
    assert "erasures_filled: 3" in out
    assert read_word(fixed) == word


def test_encode_validates_message_length(tmp_path, capsys):
    d = gen_code(tmp_path, capsys)
    msg = tmp_path / "short.txt"
    msg.write_text("1,2,3\n")
    rc, _, err = run(capsys, "encode", "--code", str(d), "--message", str(msg),
                     "--out", str(tmp_path / "w.txt"))
    assert rc == 2 and err.startswith("ERR Format:")


def test_missing_artifacts_exit_4(tmp_path, capsys):
    msg = tmp_path / "msg.txt"
    msg.write_text("1\n")
    rc, _, err = run(capsys, "encode", "--code", str(tmp_path / "absent"),
                     "--message", str(msg), "--out", str(tmp_path / "w.txt"))
    assert rc == 4 and err.startswith("ERR IO:")


def test_repair_position_bounds(tmp_path, capsys):
    d = gen_code(tmp_path, capsys)
    holey = tmp_path / "h.txt"
    write_word(holey, [None] + [0] * 35)
    rc, _, err = run(capsys, "repair", "--code", str(d), "--word", str(holey),
                     "--position", "0")
    assert rc == 2
    rc, _, err = run(capsys, "repair", "--code", str(d), "--word", str(holey),
                     "--position", "37")
    assert rc == 2
    rc, _, err = run(capsys, "repair", "--code", str(d), "--word", str(holey),
                     "--position", "2")
    assert rc == 2 and err.startswith("ERR NotErased:")


def test_decode_ambiguous_pattern_exits_2(tmp_path, capsys):
    d = gen_code(tmp_path, capsys)
    word = [0] * 36
    for pos in BAD_SUPPORT_1BASED:
        word[pos - 1] = None
    holey = tmp_path / "h.txt"
    write_word(holey, word)
    for policy in ("hybrid", "global"):
        rc, _, err = run(capsys, "decode", "--code", str(d), "--word", str(holey),
                         "--policy", policy)
        assert rc == 2
        assert err.startswith("ERR AmbiguousErasures:")
        assert err.count("ERR") == 1


def test_decode_refuses_a_corrupt_survivor_with_nothing_left_to_solve(tmp_path, capsys):
    """Position 1 erased, and a corrupt symbol in its cell (5) or in another
    (21): hybrid repairs position 1 locally, then must still refuse the
    word. With no erasure at all, both policies refuse. Each used to exit 0."""
    d = gen_code(tmp_path, capsys)
    word = encode(Field(7), load_artifacts(d).generator_matrix, [i % 7 for i in range(1, 28)])
    holey = tmp_path / "h.txt"
    for holes, corrupt in (([1], 5), ([1], 21), ([], 21)):
        symbols = list(word)
        for pos in holes:
            symbols[pos - 1] = None
        symbols[corrupt - 1] = (symbols[corrupt - 1] + 1) % 7
        write_word(holey, symbols)
        for policy in ("hybrid", "global"):
            rc, out, err = run(capsys, "decode", "--code", str(d), "--word", str(holey),
                               "--policy", policy)
            assert (rc, out) == (2, ""), (holes, corrupt, policy)
            assert err == "ERR Undecodable: kept symbols are not consistent with any codeword\n"


def test_decode_policies_use_stored_parity(tmp_path, capsys):
    """A tampered parity.csv is refused at load under both policies."""
    d = gen_code(tmp_path, capsys)
    code = load_artifacts(d)
    word = encode(code.field, code.generator_matrix, [i % 7 for i in range(1, 28)])
    ppath = d / "parity.csv"
    rows = [line.split(",") for line in ppath.read_text().strip().split("\n")]
    rows[-1][10] = str((int(rows[-1][10]) + 1) % 7)
    ppath.write_text("\n".join(",".join(r) for r in rows) + "\n")
    for p in (1, 2, 21):
        word[p - 1] = None
    holey = tmp_path / "h.txt"
    write_word(holey, word)
    for policy in ("hybrid", "global"):
        rc, out, err = run(capsys, "decode", "--code", str(d), "--word", str(holey),
                           "--policy", policy)
        assert rc == 2 and out == "", policy
        assert err.startswith("ERR Format: parity.csv:") and err.count("ERR") == 1


def test_verify_distance_failure_exits_3(tmp_path, capsys):
    out_dir = tmp_path / "v"
    rc, out, err = run(capsys, "verify", "--q", "7", "--r", "5",
                       "--out", str(out_dir))
    assert rc == 3
    assert err == "ERR VerificationFailed: distance>=5,constraint-matrix-rank\n"
    assert "FAIL  distance>=5  mode=exhaustive trials=560 " in out
    assert str(BAD_SUPPORT_1BASED) in out

    doc = json.loads((out_dir / "report.json").read_text())
    assert set(doc) == {
        "format_version", "rng", "field", "code", "suite",
        "mode_requested", "seed", "all_pass", "reports",
    }
    assert doc["all_pass"] is False
    assert doc["rng"] == "splitmix64"
    claims = [r["claim"] for r in doc["reports"]]
    assert claims == [
        "distance>=5", "min-weight-search", "constraint-matrix-rank",
        "locality", "singleton-like-bound", "optimality-equivalence",
        "length-regime",
    ]
    assert all(r["millis"] is None for r in doc["reports"])

    text = (out_dir / "report.txt").read_text()
    assert text.startswith(
        "code: q=7 r=5 n=36 k=27 suite=all mode=auto seed=0 rng=splitmix64\n"
    )


def test_verify_passing_suites_exit_0(tmp_path, capsys):
    rc, out, err = run(capsys, "verify", "--q", "5", "--r", "3",
                       "--suite", "locality", "--out", str(tmp_path / "vloc"))
    assert rc == 0 and err == ""
    assert "pass  locality" in out

    rc, out, err = run(capsys, "verify", "--q", "7", "--r", "5",
                       "--suite", "bounds", "--out", str(tmp_path / "vb"))
    assert rc == 0 and err == ""


def test_verify_is_byte_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        rc, _, _ = run(capsys, "verify", "--q", "5", "--r", "3",
                       "--out", str(d))
        assert rc == 3
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
    assert (a / "report.txt").read_bytes() == (b / "report.txt").read_bytes()


@pytest.mark.parametrize("flag", ["--trials"])
@pytest.mark.parametrize("value", ["0", "-5"])
def test_verify_rejects_counts_below_one(tmp_path, capsys, flag, value):
    out_dir = tmp_path / "v"
    rc, out, err = run(capsys, "verify", "--q", "7", "--r", "5", "--suite", "lemma",
                       "--mode", "sampled", flag, value, "--out", str(out_dir))
    assert rc == 2
    assert err.startswith("ERR Validation:") and err.count("ERR") == 1
    assert flag in err
    assert out == "" and not out_dir.exists()


# argv per subcommand, valid except for the flag under test; "@" is tmp_path
VALID_ARGV = {
    "params": ["--q", "7", "--r", "5"],
    "gen": ["--q", "7", "--r", "5", "--out", "@/g"],
    "encode": ["--code", "@/c", "--message", "@/m.txt", "--out", "@/w.txt"],
    "repair": ["--code", "@/c", "--word", "@/w.txt", "--position", "1"],
    "decode": ["--code", "@/c", "--word", "@/w.txt", "--out", "@/d.txt"],
    "verify": ["--q", "7", "--r", "5", "--out", "@/v"],
    "simulate": ["--q", "7", "--r", "5", "--model", "fixed", "--t", "3", "--out", "@/s"],
}


@pytest.mark.parametrize(
    "command,flag",
    [(c, "--threads 2") for c in VALID_ARGV]
    + [(c, "--seed 0") for c in ("params", "gen", "encode", "repair", "decode")]
    + [(c, f"{f} 2") for c in VALID_ARGV for f in ("--p", "--m")],
)
def test_unread_flags_are_usage_errors(tmp_path, capsys, command, flag):
    """Scans run in one process, only verify and simulate draw random
    numbers, and a field is named by --q alone, so no other command takes
    --threads or --seed, and none takes --p or --m, not even as an
    abbreviation of --position, --policy, --message, --mode or --model."""
    argv = [a.replace("@", str(tmp_path)) for a in VALID_ARGV[command]]
    rc, out, err = run(capsys, command, *argv, *flag.split())
    assert rc == 1
    assert err.startswith("ERR Usage:") and err.count("\n") == 1
    assert flag.split()[0] in err
    assert out == "" and list(tmp_path.iterdir()) == []


INTEGER_FLAGS = [
    ("params", "--q"), ("params", "--r"), ("gen", "--q"), ("gen", "--r"),
    ("repair", "--position"), ("verify", "--q"), ("verify", "--r"), ("verify", "--seed"),
    ("verify", "--trials"), ("simulate", "--q"), ("simulate", "--r"),
    ("simulate", "--seed"), ("simulate", "--t"), ("simulate", "--trials"),
]


def with_flag(tmp_path, command, flag, value):
    """VALID_ARGV of command, with flag set to value."""
    argv = [a.replace("@", str(tmp_path)) for a in VALID_ARGV[command]]
    if flag in argv:
        argv[argv.index(flag) + 1] = value
        return argv
    return argv + [flag, value]


@pytest.mark.parametrize("command,flag", INTEGER_FLAGS)
@pytest.mark.parametrize("value", ["\u0667", "\uff17", "+7", "0_7", " 7", "7 ", "abc"])
def test_integer_flags_take_ascii_decimal_only(tmp_path, capsys, command, flag, value):
    """Every integer flag reads ASCII -?[0-9]+ only, as word files read
    ASCII digits: int() alone reads every value here but abc as 7. Each is
    refused with the usage error of abc."""
    rc, out, err = run(capsys, command, *with_flag(tmp_path, command, flag, value))
    assert (rc, out) == (1, "")
    assert err == f"ERR Usage: argument {flag}: invalid int value: {value!r}\n"
    assert list(tmp_path.iterdir()) == []


def test_integer_flags_keep_leading_zeros_signs_and_the_digit_limit(tmp_path, capsys):
    rc, out, err = run(capsys, "params", "--q", "007", "--r", "05")
    assert rc == 0 and err == "" and "r=5 n=36 k=27" in out
    rc, out, err = run(capsys, *["simulate"] + with_flag(tmp_path, "simulate", "--t", "-1"))
    assert (rc, out) == (2, "")
    assert err == "ERR Validation: fixed model needs an erasure count t in [0, 36]\n"
    past_limit = "7" * 5_000
    rc, out, err = run(capsys, "params", "--q", past_limit, "--r", "5")
    assert (rc, out) == (1, "")
    assert err == f"ERR Usage: argument --q: invalid int value: {past_limit!r}\n"


BERNOULLI = ["simulate", "--q", "7", "--r", "5", "--model", "bernoulli", "--trials", "5"]


@pytest.mark.parametrize("value", ["0.0_5", " 0.05", "0.05 ", "+0.05", "\u0660.\u0660\u0665"])
def test_rho_refuses_the_spellings_integer_flags_refuse(tmp_path, capsys, value):
    """--rho refuses other scripts' digits, underscores, surrounding
    whitespace and a leading +, which float() alone reads as 0.05, with the
    usage error that 0x1p-4 gets."""
    rc, out, err = run(capsys, *BERNOULLI, "--rho", value, "--out", str(tmp_path / "s"))
    assert (rc, out) == (1, "")
    assert err == f"ERR Usage: argument --rho: invalid float value: {value!r}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value,code", [
    ("0.05", 0), ("5e-2", 0), ("1", 0), ("0", 0), ("-0.05", 2), ("nan", 2), ("1.5", 2), ("0x1p-4", 1),
])
def test_rho_reads_every_other_spelling_as_float_does(tmp_path, capsys, value, code):
    rc, out, err = run(capsys, *BERNOULLI, "--rho", value, "--out", str(tmp_path / "s"))
    assert rc == code
    expected = {
        0: "",
        1: f"ERR Usage: argument --rho: invalid float value: {value!r}\n",
        2: "ERR Validation: bernoulli model needs a probability rho in [0, 1]\n",
    }
    assert err == expected[code]


def test_rho_reads_a_negative_zero_as_zero(tmp_path, capsys):
    """-0 and -0.0 pass the [0, 1] check as 0 does, and write its file."""
    texts = set()
    for value in ("0", "-0", "-0.0"):
        out = tmp_path / value
        assert run(capsys, *BERNOULLI, "--rho", value, "--out", str(out))[0] == 0
        texts.add((out / "simulation.json").read_text())
    (text,) = texts
    assert '"rho": 0.0,' in text


def test_python_m_lrc5_runs_the_cli(tmp_path, capsys):
    """The package's entry point is cli.main: same stdout, same exit codes."""
    src = Path(__file__).resolve().parent.parent / "src"

    def python_m(*argv):
        return subprocess.run([sys.executable, "-m", "lrc5", *argv], capture_output=True,
                              text=True, cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(src)})

    proc = python_m("params", "--q", "7", "--r", "5")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert (0, proc.stdout, "") == run(capsys, "params", "--q", "7", "--r", "5")
    proc = python_m("verify", "--q")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("ERR Usage:") and proc.stderr.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def cli_reports(tmp_path, capsys, monkeypatch, argv):
    """The in-memory reports of one verify run, and the ones its
    report.json holds."""
    seen = []
    run_suites = cli._run_suites
    monkeypatch.setattr(cli, "_run_suites", lambda args, code: seen.extend(run_suites(args, code)) or seen)
    run(capsys, "verify", *argv, "--out", str(tmp_path))
    return seen, json.loads((tmp_path / "report.json").read_text())["reports"]


def dual_of(code):
    return code.field, oracle_dual_rows(code.field.q, code.r)


REPORT_SOURCES = {
    "cli-all-q5-r3": ["--q", "5", "--r", "3", "--suite", "all"],
    "cli-distance-sampled-q29-r6": ["--q", "29", "--r", "6", "--suite", "distance",
                                    "--mode", "sampled", "--trials", "2000"],
    "distance-exhaustive": lambda c: [verify.verify_distance_at_least(*dual_of(c), 5)],
    "distance-sampled": lambda c: [verify.verify_distance_at_least(*dual_of(c), 5, "sampled", 300, 7)],
    "min-weight-below-d": lambda c: [verify.find_min_weight_codeword(*dual_of(c), 3)],
    "min-weight-at-d": lambda c: [verify.find_min_weight_codeword(*dual_of(c), 5)],
    "distance-suite": lambda c: verify.distance_reports(c, "auto", 100, 3),
    "lemma-exhaustive": lambda c: [verify.verify_constraint_matrix(c.field)],
    "lemma-sampled": lambda c: [verify.verify_constraint_matrix(c.field, "sampled", 500, 4)],
    "locality": lambda c: [verify.verify_locality(c, 3, 5)],
    "bounds": lambda c: verify.bounds_reports(c.params),
    "length-regime": lambda c: [verify.length_regime_report(c.params)],
}


@pytest.mark.parametrize("source", sorted(REPORT_SOURCES))
def test_every_report_follows_the_report_rules(tmp_path, capsys, monkeypatch, source):
    """A seed is kept exactly on a sampled run, a claim passes exactly when
    it has no witness (min-weight-search passes with what it found), and
    millis is measured but written as null."""
    make = REPORT_SOURCES[source]
    if callable(make):
        reports = make(Code.build(Field(5), 3))
        written = [report.to_json_dict() for report in reports]
    else:
        reports, written = cli_reports(tmp_path, capsys, monkeypatch, make)
    assert reports
    for report, doc in zip(reports, written, strict=True):
        assert (report.seed is not None) == (report.mode == "sampled")
        if report.claim == "min-weight-search":
            assert report.result
        else:
            assert report.result == (report.witness is None)
        assert isinstance(report.millis, float) and report.millis >= 0
        assert doc == report.to_json_dict() and doc["millis"] is None


@pytest.mark.parametrize("q,r", [("5", "3"), ("7", "5")])
def test_verify_distance_scans_the_sparse_dual_without_building_h(
    tmp_path, capsys, monkeypatch, q, r
):
    """The distance suite writes the reports that scanning H gives, from
    the local parity and dense_dual alone: row operations keep every column
    dependence."""
    h = Code.build(Field(int(q)), int(r)).parity_check_matrix

    argv = ["verify", "--q", q, "--r", r, "--suite", "distance", "--out"]
    with monkeypatch.context() as m:
        m.setattr(verify, "_dual_columns", lambda domain: transpose(h))
        rc_h, _, err_h = run(capsys, *argv, str(tmp_path / "h"))

    def no_h(code):
        raise AssertionError("built H")

    monkeypatch.setattr(Code, "parity_check_matrix", property(no_h))
    rc, _, err = run(capsys, *argv, str(tmp_path / "dual"))
    assert (rc, err) == (rc_h, err_h) == (3, "ERR VerificationFailed: distance>=5\n")
    for name in ("report.json", "report.txt"):
        assert (tmp_path / "dual" / name).read_bytes() == (tmp_path / "h" / name).read_bytes()


def test_verify_load_conflicts_with_build_flags(tmp_path, capsys):
    d = gen_code(tmp_path, capsys)
    for flag in ("--q", "--r"):
        rc, _, err = run(capsys, "verify", "--load", str(d), flag, "7",
                         "--out", str(tmp_path / "x"))
        assert rc == 2 and err == "ERR Validation: --load replaces --q/--r\n"
    rc, _, err = run(capsys, "verify", "--out", str(tmp_path / "x"))
    assert rc == 2 and err.startswith("ERR Validation:")
    rc, _, err = run(capsys, "verify", "--r", "5", "--out", str(tmp_path / "x"))
    assert rc == 2 and err == "ERR Validation: --q is required without --load\n"
    assert not (tmp_path / "x").exists()


def test_verify_load_refuses_extension_degree(tmp_path, capsys):
    """The stored code fixes its field, and no command takes --m: it is not
    read as an abbreviation of --mode either."""
    d = gen_code(tmp_path, capsys)
    out_dir = tmp_path / "v"
    rc, out, err = run(capsys, "verify", "--load", str(d), "--m", "2", "--suite",
                       "locality", "--out", str(out_dir))
    assert rc == 1 and out == ""
    assert err == "ERR Usage: unrecognized arguments: --m 2\n"
    assert not out_dir.exists()


def test_verify_auto_refutes_distance_five_over_gf16(tmp_path, capsys):
    """GF(16) r=4 (n=225): a complete d>=5 scan makes 1,897,952 reductions,
    so auto runs it exhaustively and meets the first weight-4 support.
    The min-weight search would not fit the budget, so it is left out."""
    fail = ("FAIL  distance>=5  mode=exhaustive trials=22340 "
            "witness={'columns': [1, 2, 156, 158]}")
    d = tmp_path / "code16"
    assert run(capsys, "gen", "--q", "16", "--r", "4", "--out", str(d))[0] == 0
    for source in (["--q", "16", "--r", "4"], ["--load", str(d)]):
        out_dir = tmp_path / source[0].strip("-")
        rc, out, err = run(capsys, "verify", *source, "--suite", "distance",
                           "--out", str(out_dir))
        assert rc == 3 and err == "ERR VerificationFailed: distance>=5\n"
        lines = (out_dir / "report.txt").read_text().splitlines()
        assert lines[-1] == fail
        assert "min-weight-search" not in out
    for name in ("report.json", "report.txt"):  # a loaded code is the built code
        assert (tmp_path / "load" / name).read_bytes() == (tmp_path / "q" / name).read_bytes()


def test_verify_load_matches_rebuild(tmp_path, capsys):
    """A loaded code is the built code, so its reports are byte-identical."""
    d = gen_code(tmp_path, capsys)
    for source in (["--q", "7", "--r", "5"], ["--load", str(d)]):
        out_dir = tmp_path / source[0].strip("-")
        rc, out, _ = run(capsys, "verify", *source, "--out", str(out_dir))
        assert rc == 3  # distance still honestly fails
        assert str(BAD_SUPPORT_1BASED) in out
    for name in ("report.json", "report.txt"):
        assert (tmp_path / "load" / name).read_bytes() == (tmp_path / "q" / name).read_bytes()


def tamper_generator_entry(d):
    gpath = d / "generator.csv"
    rows = [line.split(",") for line in gpath.read_text().strip().split("\n")]
    rows[0][0] = str((int(rows[0][0]) + 1) % 7)
    gpath.write_text("\n".join(",".join(r) for r in rows) + "\n")


def test_verify_load_catches_tampered_generator(tmp_path, capsys):
    """Every suite is refused at load: none runs on a tampered G."""
    d = gen_code(tmp_path, capsys)
    tamper_generator_entry(d)
    for suite in ("distance", "locality"):
        out_dir = tmp_path / suite
        rc, out, err = run(capsys, "verify", "--load", str(d), "--suite", suite,
                           "--out", str(out_dir))
        assert rc == 2 and out == ""
        assert err.startswith("ERR Format: generator.csv:") and err.count("ERR") == 1
        assert not out_dir.exists()


def test_verify_load_catches_generator_rank_deficit(tmp_path, capsys):
    # a repeated row is still a codeword, so H G^T = 0 alone would miss it
    d = gen_code(tmp_path, capsys)
    gpath = d / "generator.csv"
    lines = gpath.read_text().strip().split("\n")
    lines[1] = lines[0]
    gpath.write_text("\n".join(lines) + "\n")

    rc, out, err = run(capsys, "verify", "--load", str(d), "--suite", "distance",
                       "--out", str(tmp_path / "v"))
    assert rc == 2 and out == ""
    assert err.startswith("ERR Format: generator.csv:") and err.count("ERR") == 1
    assert not (tmp_path / "v").exists()


def swap_parity_rows(d):
    ppath = d / "parity.csv"
    lines = ppath.read_text().splitlines()
    lines[0], lines[1] = lines[1], lines[0]
    ppath.write_text("\n".join(lines) + "\n")


def add_parity_row(d):
    """Row 0 += row 1: another basis of the same dual space."""
    ppath = d / "parity.csv"
    rows = [[int(x) for x in line.split(",")] for line in ppath.read_text().splitlines()]
    rows[0] = [(a + b) % 7 for a, b in zip(rows[0], rows[1])]
    ppath.write_text("".join(",".join(map(str, row)) + "\n" for row in rows))


def convert_generator_to_crlf(d):
    gpath = d / "generator.csv"
    gpath.write_bytes(gpath.read_bytes().replace(b"\n", b"\r\n"))


def truncate_parity(d):
    ppath = d / "parity.csv"
    ppath.write_text("".join(ppath.read_text().splitlines(keepends=True)[:-1]))


@pytest.mark.parametrize(
    "tamper,name",
    [(tamper_generator_entry, "generator.csv"), (swap_parity_rows, "parity.csv"),
     (add_parity_row, "parity.csv"), (convert_generator_to_crlf, "generator.csv"),
     (truncate_parity, "parity.csv")],
    ids=["generator-entry", "parity-swapped-rows", "parity-other-basis", "crlf",
         "parity-truncated"],
)
def test_load_refuses_non_canonical_matrix(tmp_path, capsys, tamper, name):
    """All but the truncated file used to load: encode then wrote a wrong
    word, or decode solved with a stored H that is not the canonical one."""
    d = gen_code(tmp_path, capsys)
    code = Code.build(Field(7), 5)
    word = encode(code.field, code.generator_matrix, [1] * code.k)
    word[0] = word[1] = None
    holey = tmp_path / "h.txt"
    write_word(holey, word)
    tamper(d)
    for argv in (encode_argv(d, tmp_path),
                 ["decode", "--code", str(d), "--word", str(holey), "--policy", "global"]):
        rc, out, err = run(capsys, *argv)
        assert rc == 2 and out == "", argv
        assert err.startswith(f"ERR Format: {name}:") and err.count("\n") == 1
    assert not (tmp_path / "w.txt").exists()


def rewrite_manifest(d, edit):
    """Apply edit to the manifest of d and write it back as gen formats it."""
    mpath = d / "manifest.json"
    manifest = json.loads(mpath.read_text())
    edit(manifest)
    mpath.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def claim_distance_7(d):
    rewrite_manifest(d, lambda doc: doc["code"].update(d_claimed=7))


def flip_optimal_regime(d):
    rewrite_manifest(d, lambda doc: doc["code"].update(optimal_regime=False))


def redump_manifest_compactly(d):
    edit_manifest(d, lambda doc: None)


def add_blank_line_to_basis(d):
    bpath = d / "basis.txt"
    bpath.write_text(bpath.read_text() + "\n")


@pytest.mark.parametrize(
    "tamper,name",
    [(claim_distance_7, "manifest.json"), (flip_optimal_regime, "manifest.json"),
     (redump_manifest_compactly, "manifest.json"), (add_blank_line_to_basis, "basis.txt")],
    ids=["d-claimed", "optimal-regime", "compact-manifest", "basis-blank-line"],
)
def test_load_refuses_a_file_gen_would_not_write(tmp_path, capsys, tamper, name):
    """Each of these directories used to load: the loader checked the
    manifest field by field, never read d_claimed or optimal_regime, and
    skipped blank basis lines."""
    d = gen_code(tmp_path, capsys)
    argv = encode_argv(d, tmp_path)
    tamper(d)
    rc, out, err = run(capsys, *argv)
    assert rc == 2 and out == ""
    assert err.startswith(f"ERR Format: {name}:") and err.count("\n") == 1
    assert not (tmp_path / "w.txt").exists()


def test_gen_and_load_refuse_a_generator_above_the_budget(tmp_path, capsys, monkeypatch):
    """GF(128) r=126 has k*n = 258,047,871 entries in G: gen and a load
    refuse it from k and n alone, building no domain and writing no file."""
    d = gen_code(tmp_path, capsys)
    edit_manifest(d, lambda doc: (doc["field"].update(p=2, m=7), doc["code"].update(r=126)))

    def no_build(*args):
        raise AssertionError("built the domain")

    monkeypatch.setattr("lrc5.construct.build_domain", no_build)
    out_dir = tmp_path / "big"
    for argv in (["gen", "--q", "128", "--r", "126", "--out", str(out_dir)],
                 encode_argv(d, tmp_path)):
        rc, out, err = run(capsys, *argv)
        assert rc == 2 and out == "", argv
        assert err.startswith("ERR TooLarge:") and err.count("\n") == 1
        assert "258,047,871" in err
    assert not out_dir.exists() and not (tmp_path / "w.txt").exists()


def swap_in_removed_monomial(basis_text):
    lines = basis_text.splitlines()
    assert "0 0" not in lines  # the constant monomial is one the code removes
    return "\n".join(["0 0"] + lines[1:]) + "\n"


@pytest.mark.parametrize(
    "tamper,code,kind",
    [(lambda _: "not a basis\n", 2, "Format"), (swap_in_removed_monomial, 2, "Format"),
     (None, 4, "IO")],
    ids=["garbage", "removed-monomial", "missing"],
)
def test_verify_load_checks_basis_file(tmp_path, capsys, tamper, code, kind):
    d = gen_code(tmp_path, capsys)
    bpath = d / "basis.txt"
    if tamper is None:
        bpath.unlink()
    else:
        bpath.write_text(tamper(bpath.read_text()))
    out_dir = tmp_path / "v"
    rc, out, err = run(capsys, "verify", "--load", str(d), "--suite", "locality",
                       "--out", str(out_dir))
    assert rc == code
    assert err.startswith(f"ERR {kind}:") and err.count("ERR") == 1
    assert "basis.txt" in err
    assert out == "" and not out_dir.exists()


def move_generator_outside(d, tmp_path, files):
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    (d / "generator.csv").rename(elsewhere / "generator.csv")
    files["generator"] = str(elsewhere / "generator.csv")


def read_parity_from_sibling(d, tmp_path, files):
    sibling = tmp_path / "sibling"
    sibling.mkdir()
    (d / "parity.csv").rename(sibling / "parity.csv")
    files["parity"] = "../sibling/parity.csv"


@pytest.mark.parametrize("tamper", [move_generator_outside, read_parity_from_sibling],
                         ids=["absolute", "parent-relative"])
def test_verify_load_refuses_manifest_file_names(tmp_path, capsys, tamper):
    """The files section must name the fixed file names: a manifest may not
    send the loader outside its directory."""
    d = gen_code(tmp_path, capsys)
    edit_manifest(d, lambda doc: tamper(d, tmp_path, doc["files"]))
    out_dir = tmp_path / "v"
    rc, out, err = run(capsys, "verify", "--load", str(d), "--suite", "locality",
                       "--out", str(out_dir))
    assert rc == 2
    assert err.startswith("ERR Format:") and err.count("ERR") == 1
    assert "manifest.json" in err
    assert out == "" and not out_dir.exists()


def test_verify_budget_stops_exhaustive_and_sampled_scans(tmp_path, capsys, monkeypatch):
    """GF(7) r=2 passes d>=5 after all 58,905 subsets and 7,700 reductions."""
    monkeypatch.setattr("lrc5.verify.SUBSET_BUDGET", 7_699)
    for extra in (["--mode", "exhaustive"], ["--mode", "sampled", "--trials", "7700"]):
        out_dir = tmp_path / extra[1]
        rc, out, err = run(capsys, "verify", "--q", "7", "--r", "2", "--suite",
                           "distance", *extra, "--out", str(out_dir))
        assert rc == 2
        assert err.startswith("ERR BudgetExceeded:") and err.count("ERR") == 1
        assert "7699" in err
        assert not out_dir.exists()


def test_verify_refuses_an_exhaustive_scan_over_the_budget_before_it_starts(
    tmp_path, capsys, monkeypatch
):
    """A complete d>=5 scan at GF(25) r=2 makes 31,849,250 reductions, so
    --mode exhaustive is refused from exhaustive_cost without scanning."""

    def no_scan(*args, **kwargs):
        raise AssertionError("the exhaustive scan started")

    monkeypatch.setattr("lrc5.verify._scan_exhaustive", no_scan)
    out_dir = tmp_path / "out"
    rc, out, err = run(capsys, "verify", "--q", "25", "--r", "2", "--mode", "exhaustive",
                       "--suite", "distance", "--out", str(out_dir))
    assert rc == 2
    assert err.startswith("ERR BudgetExceeded:") and err.count("ERR") == 1
    assert "31849250 reductions" in err and "10000000 reduction budget" in err
    assert not out_dir.exists()


def test_simulate_writes_deterministic_json(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        rc, out, err = run(capsys, "simulate", "--q", "7", "--r", "5",
                           "--model", "fixed", "--t", "2", "--trials", "40",
                           "--out", str(d))
        assert rc == 0 and err == ""
        assert "trials: 40" in out
    assert (a / "simulation.json").read_bytes() == (b / "simulation.json").read_bytes()
    doc = json.loads((a / "simulation.json").read_text())
    assert doc["format_version"] == 1
    assert doc["results"]["trials"] == 40


def test_simulate_validates_model_arguments(tmp_path, capsys):
    rc, _, err = run(capsys, "simulate", "--q", "7", "--r", "5",
                     "--model", "fixed", "--out", str(tmp_path))
    assert rc == 2 and err.startswith("ERR Validation:")
    rc, _, err = run(capsys, "simulate", "--q", "7", "--r", "5",
                     "--model", "bernoulli", "--rho", "1.5", "--out", str(tmp_path))
    assert rc == 2 and err.startswith("ERR Validation:")


@pytest.mark.parametrize(
    "model_args",
    [["--model", "fixed", "--t", "3", "--rho", "0.9"],
     ["--model", "bernoulli", "--rho", "0.1", "--t", "3"]],
    ids=["rho-under-fixed", "t-under-bernoulli"],
)
def test_simulate_refuses_the_other_models_parameter(tmp_path, capsys, model_args):
    out_dir = tmp_path / "sim"
    rc, out, err = run(capsys, "simulate", "--q", "7", "--r", "5", *model_args,
                       "--out", str(out_dir))
    assert rc == 2 and out == ""
    assert err.startswith("ERR Validation:") and err.count("ERR") == 1
    assert not out_dir.exists()


def test_simulate_refuses_trials_above_the_budget(tmp_path, capsys, monkeypatch):
    def no_trials(*args):
        raise AssertionError("a trial ran")

    # every run draws from SplitMix64 before its first trial
    monkeypatch.setattr("lrc5.simulate.SplitMix64", no_trials)
    out_dir = tmp_path / "sim"
    rc, out, err = run(capsys, "simulate", "--q", "7", "--r", "5", "--model", "fixed",
                       "--t", "1", "--trials", "10000001", "--out", str(out_dir))
    assert rc == 2 and out == ""
    assert err.startswith("ERR BudgetExceeded:") and err.count("ERR") == 1
    assert not (out_dir / "simulation.json").exists()


@pytest.mark.parametrize("command", ["verify", "simulate"])
@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_seeds_outside_64_bits_are_refused_before_any_work(tmp_path, capsys, monkeypatch,
                                                          command, seed):
    """SplitMix64 reduces its seed mod 2^64, so -1 would rerun seed 2^64 - 1
    and 2^64 seed 0, each under another name in the report."""
    def no_work(q):
        raise AssertionError("a field was built")

    monkeypatch.setattr("lrc5.cli.field_of_order", no_work)
    rc, out, err = run(capsys, command, *with_flag(tmp_path, command, "--seed", seed))
    assert (rc, out) == (2, "")
    assert err == f"ERR Validation: --seed must lie in [0, 2^64), got {seed}\n"
    assert list(tmp_path.iterdir()) == []


def test_the_largest_seed_is_kept_as_given(tmp_path, capsys):
    seed = str(2**64 - 1)
    rc, _, err = run(capsys, "verify", "--q", "7", "--r", "5", "--suite", "lemma",
                     "--mode", "sampled", "--trials", "10", "--seed", seed,
                     "--out", str(tmp_path))
    assert (rc, err) == (0, "")
    assert f"seed={seed} rng=splitmix64" in (tmp_path / "report.txt").read_text()


def test_verify_q7_r2_distance_suite_passes(tmp_path, capsys):
    """d = 5 exactly at GF(7) r = 2, though the Singleton-like bound is 6."""
    rc, out, err = run(capsys, "verify", "--q", "7", "--r", "2", "--suite", "distance",
                       "--out", str(tmp_path))
    assert rc == 0 and err == ""
    assert "pass  distance>=5  mode=exhaustive trials=58905" in out
    assert "'weight': 5, 'support': [1, 2, 3, 22, 23]" in out
    rc, out, _ = run(capsys, "params", "--q", "7", "--r", "2")
    assert rc == 0
    assert "singleton_like_bound=6" in out and "optimal_regime=no" in out


def test_word_file_format_errors_exit_2(tmp_path, capsys):
    d = gen_code(tmp_path, capsys)
    bad = tmp_path / "bad.txt"
    bad.write_text("9,9,9\n")
    rc, _, err = run(capsys, "decode", "--code", str(d), "--word", str(bad))
    assert rc == 2 and err.startswith("ERR Format:")


def test_repair_and_decode_refuse_a_word_of_another_length(tmp_path, capsys):
    d = gen_code(tmp_path, capsys)
    short = tmp_path / "short.txt"
    write_word(short, [1] * 30)
    for command in (["repair", "--position", "1"], ["decode"]):
        rc, out, err = run(capsys, *command, "--code", str(d), "--word", str(short))
        assert (rc, out) == (2, "")
        assert err == "ERR Validation: word has 30 symbols, expected n = 36\n"


@pytest.mark.parametrize("token,value", [("1_2", 12), ("+3", 3), ("-0", 0), ("\u0661\u0662", 12)])
def test_word_and_message_files_refuse_non_canonical_symbols(tmp_path, capsys, token, value):
    """Each token spells a symbol of GF(13) to int(); a file that holds it in
    place of that symbol is refused, not read as the symbol."""
    d = gen_code(tmp_path, capsys, q="13", r="5")
    argv = encode_argv(d, tmp_path)
    msg = Path(argv[4])
    msg.write_text(f"{token}," + msg.read_text(encoding="utf-8")[2:], encoding="utf-8")
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (2, "")
    assert err == f"ERR Format: {msg}: token {token!r} is not an integer or '?'\n"
    assert not (tmp_path / "w.txt").exists()
    tokens = [str(s) for s in Code.build(Field(13), 5).encode([1] * 117)]
    tokens[tokens.index(str(value))] = token  # still a codeword to int()
    path = tmp_path / "word.txt"
    path.write_text(",".join(tokens) + "\n", encoding="utf-8")
    for cmd in (["repair", "--position", "1"], ["decode"]):
        rc, out, err = run(capsys, cmd[0], "--code", str(d), "--word", str(path), *cmd[1:])
        assert (rc, out) == (2, "")
        assert err == f"ERR Format: {path}: token {token!r} is not an integer or '?'\n"


#: sha256 over each gen file's name, a NUL, its bytes and a NUL, in the order
#: manifest.json, generator.csv, parity.csv, basis.txt: the directories gen
#: wrote when each symbol of G was printed from its built rows
GEN_DIRECTORY_PINS = {
    (7, 5): "20abaf78253bc816ac6ffb3800e0a5277d90d38c7a3d615b62a747622d4c01a8",
    (8, 6): "df61110ce861debae3a0b2fab81cb0e59cba3c901f08664b0b2e23ea8e5c2123",
    (9, 3): "079beeecf3ea9a633f1bc8c0027010d6f6b8d2a38bde67257c88502ca60be85d",
    (13, 5): "78d9940d0d7d62bed8cf36bdf2f74d51e681b7228224f8247c96c9ef60e5f6af",
    (16, 4): "c20aceb3ff94ce9786538a5299b85930a2b4999d5f74b2b33ed9bb00ca765bb0",
    (29, 6): "2bed417bc02cb31c9fffb92004ecbe48c38fe4fbe5fa75aac0aa58625b799dd2",
}


@pytest.mark.parametrize("q,r", sorted(GEN_DIRECTORY_PINS))
def test_gen_directories_keep_their_bytes(tmp_path, capsys, q, r):
    d = tmp_path / "code"
    rc, out, err = run(capsys, "gen", "--q", str(q), "--r", str(r), "--out", str(d))
    names = ["manifest.json", "generator.csv", "parity.csv", "basis.txt"]
    assert (rc, err) == (0, "")
    assert out == "".join(f"wrote {d / name}\n" for name in names)
    digest = hashlib.sha256()
    for name in names:
        digest.update(name.encode() + b"\0" + (d / name).read_bytes() + b"\0")
    assert digest.hexdigest() == GEN_DIRECTORY_PINS[q, r]
    assert sorted(os.listdir(d)) == sorted(names)


def readme_cli_lines():
    """The command lines of the fenced block under the README's CLI heading."""
    text = README.read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```", 2)[1]
    return [shlex.split(line) for line in block.strip().splitlines()]


def test_readme_cli_examples_run(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    lines = readme_cli_lines()
    assert [argv[:2] for argv in lines] == [
        ["lrc5", cmd]
        for cmd in ("params", "gen", "encode", "repair", "decode", "verify", "simulate")
    ]
    for argv in lines:
        cmd, flags = argv[1], dict(zip(argv[2::2], argv[3::2]))
        assert all(f.startswith("--") for f in flags) and len(argv) % 2 == 0, argv
        if "--code" in flags:
            code = load_artifacts(flags["--code"])
            q, k = code.field.q, code.k
            message = [i % q for i in range(1, k + 1)]
            codeword = encode(code.field, code.generator_matrix, message)
            if "--message" in flags:
                write_word(Path(flags["--message"]), message)
            if "--word" in flags and not Path(flags["--word"]).exists():
                received = list(codeword)
                received[int(flags.get("--position", "1")) - 1] = None
                write_word(Path(flags["--word"]), received)
        rc, _, err = run(capsys, *argv[1:])
        assert rc == (3 if cmd == "verify" else 0), (argv, err)
        if cmd in ("encode", "decode"):
            assert read_word(Path(flags["--out"])) == codeword


def test_readme_report_example_lines_are_real(tmp_path, capsys, monkeypatch):
    """The report example under the CLI block is what its verify line writes."""
    text = README.read_text(encoding="utf-8")
    example = text.split("`verify` writes `report.json`", 1)[1].split("```", 2)[1]
    argv = next(line for line in readme_cli_lines() if line[1] == "verify")
    monkeypatch.chdir(tmp_path)
    assert run(capsys, *argv[1:])[0] == 3
    out_dir = Path(argv[argv.index("--out") + 1])
    report = (out_dir / "report.txt").read_text(encoding="utf-8").splitlines()
    lines = example.strip().splitlines()
    assert lines and all(line in report for line in lines), (lines, report)
