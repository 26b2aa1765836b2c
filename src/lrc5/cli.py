"""Command-line front end.

Subcommands: params, gen, encode, repair, decode, verify, simulate. All
positions printed or accepted here are 1-based; the library is 0-based.

Exit codes:
    0  success (for verify: every claim passed)
    1  usage error (unknown flags, missing arguments)
    2  validation or data error (bad parameters, malformed files, undecodable input)
    3  a verification suite reported a failing claim
    4  I/O failure

Every error path prints exactly one machine-parsable stderr line of the
form ``ERR <code>: <detail>``. Persisted reports never contain timings, so
reruns with the same flags and seed are byte-identical; live timings go to
stdout only. Documents and directories are written through formats; main
builds the parser on its first call and reuses it.
"""

import argparse
import contextlib
import functools
import sys
from pathlib import Path

from .codec import erasure_decode, hybrid_decode, local_repair
# encode is unused here but stays bound: the benchmark's tracing rebinds it
from .codec import encode
from .construct import Code, build_within_budget, validate_params
from .errors import LrcError, ValidationError
from .field import field_of_order
from .formats import (
    document_head,
    dumps_json,
    load_artifacts,
    parse_message,
    parse_word,
    word_to_text,
    write_artifacts,
    write_text_atomic,
    write_texts,
)
from .rng import RNG_NAME
from .simulate import MODELS, POLICIES, SimulationConfig, run_simulation
from .verify import (
    SUBSET_BUDGET,
    VerificationReport,
    bounds_reports,
    distance_reports,
    verify_constraint_matrix,
    verify_locality,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_VERIFY_FAIL = 3
EXIT_IO = 4

SUITES = ("distance", "lemma", "locality", "bounds")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Refuses abbreviated long options, so that --p or --m cannot stand in
    for --position, --policy, --message, --mode or --model."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise _UsageError(message)


def _integer(text: str) -> int:
    """The type of every integer flag: ASCII -?[0-9]+ only, where int()
    alone also reads signs, underscores, spaces and other scripts' digits."""
    digits = text.removeprefix("-")
    if digits.isascii() and digits.isdigit():
        with contextlib.suppress(ValueError):  # past int's digit limit
            return int(text)
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _real(text: str) -> float:
    """The type of --rho: what float() reads, less the spellings _integer
    refuses too: other scripts' digits, underscores, surrounding whitespace
    and a leading +. A negative zero reads as 0.0, so -0 and 0 write one file."""
    if text.isascii() and "_" not in text and text == text.strip() and text[:1] != "+":
        with contextlib.suppress(ValueError):
            return float(text) + 0.0
    raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")


def _check_seed(seed: int) -> None:
    """Refuse a seed outside [0, 2^64): SplitMix64 reduces its seed mod
    2^64, so such a seed would rerun another seed's stream under its own
    name in the report."""
    if not 0 <= seed < 1 << 64:
        raise ValidationError(f"--seed must lie in [0, 2^64), got {seed}")


def cmd_params(args) -> int:
    field = field_of_order(args.q)
    p = validate_params(field, args.r)
    bound, equivalence, regime = (report.details for report in bounds_reports(p))
    status = equivalence["status"]
    if status == "inapplicable":
        status += " (d-2 congruent to r mod r+1)"
    print(f"q={field.q} p={field.p} m={field.m} modulus={list(field.modulus)}")
    print(f"r={p.r} n={p.n} k={p.k} d_target={p.d_target}")
    print(f"singleton_like_bound={bound['value']}")
    print(f"optimal_regime={'yes' if p.optimal_regime else 'no'}")
    print(f"optimality_equivalence={'FAILS' if status == 'fails' else status}")
    blocks = regime["block_count_inequality"]
    cosets = regime["coset_count_condition"]
    print(
        f"length_regime_blocks: lhs={blocks['lhs']} rhs={blocks['rhs']} "
        f"holds={'yes' if blocks['holds'] else 'no'}"
    )
    print(
        f"length_regime_cosets: value={cosets['value']} threshold={cosets['threshold']} "
        f"holds={'yes' if cosets['holds'] else 'no'}"
    )
    return EXIT_OK


def cmd_gen(args) -> int:
    code = build_within_budget(field_of_order(args.q), args.r)
    for path in write_artifacts(code, args.out).values():
        print(f"wrote {path}")
    return EXIT_OK


def cmd_encode(args) -> int:
    code = load_artifacts(args.code)
    message = parse_message(
        Path(args.message).read_text(encoding="utf-8"), code.field.q, code.k, args.message
    )
    codeword = code.encode(message)
    write_text_atomic(args.out, word_to_text(codeword))
    print(f"wrote {args.out}")
    return EXIT_OK


def _load_word(code: Code, path: str) -> list[int | None]:
    word = parse_word(Path(path).read_text(encoding="utf-8"), code.field.q, path)
    if len(word) != code.n:
        raise ValidationError(f"word has {len(word)} symbols, expected n = {code.n}")
    return word


def cmd_repair(args) -> int:
    code = load_artifacts(args.code)
    word = _load_word(code, args.word)
    if not 1 <= args.position <= code.n:
        raise ValidationError(f"--position must lie in [1, {code.n}]")
    pos = args.position - 1
    symbol = local_repair(code, word, pos)
    reads = [p + 1 for p in code.domain.cell_of(pos) if p != pos]
    print(f"position: {args.position}")
    print(f"symbol: {symbol}")
    print(f"read_positions: {','.join(str(p) for p in reads)}")
    return EXIT_OK


def cmd_decode(args) -> int:
    code = load_artifacts(args.code)
    word = _load_word(code, args.word)
    stats = None if args.policy == "global" else hybrid_decode(code, word)
    text = word_to_text(erasure_decode(code, word) if stats is None else stats.codeword)
    if args.out is not None:
        write_text_atomic(args.out, text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    if stats is not None:
        print(f"locally_repaired: {len(stats.locally_repaired)}")
        print(f"globally_repaired: {len(stats.globally_repaired)}")
        print(f"symbols_read: {stats.symbols_read}")
    else:
        print(f"erasures_filled: {sum(1 for s in word if s is None)}")
    return EXIT_OK


def _run_suites(args, code: Code) -> list[VerificationReport]:
    scan = (args.mode, args.trials, args.seed)
    run = {
        "distance": lambda: distance_reports(code, *scan),
        "lemma": lambda: [verify_constraint_matrix(code.field, *scan)],
        "locality": lambda: [verify_locality(code, trials=25, seed=args.seed)],
        "bounds": lambda: bounds_reports(code.params),
    }
    suites = SUITES if args.suite == "all" else (args.suite,)
    return [report for suite in suites for report in run[suite]()]


def cmd_verify(args) -> int:
    _check_seed(args.seed)
    if args.trials < 1:
        raise ValidationError("--trials must be at least 1")
    if args.load is not None:
        if args.q is not None or args.r is not None:
            raise ValidationError("--load replaces --q/--r")
        code = load_artifacts(args.load)
    else:
        if args.r is None:
            raise ValidationError("--r is required without --load")
        if args.q is None:
            raise ValidationError("--q is required without --load")
        code = Code.build(field_of_order(args.q), args.r)
    reports = _run_suites(args, code)
    all_pass = all(r.result for r in reports)
    doc = document_head(code, d_claimed=code.params.d_target) | {
        "rng": RNG_NAME,
        "suite": args.suite,
        "mode_requested": args.mode,
        "seed": args.seed,
        "all_pass": all_pass,
        "reports": [r.to_json_dict() for r in reports],
    }
    header = (
        f"code: q={code.field.q} r={code.r} n={code.n} k={code.k} "
        f"suite={args.suite} mode={args.mode} seed={args.seed} rng={RNG_NAME}\n"
    )
    text = header + "".join(r.text_line() + "\n" for r in reports)
    paths = write_texts(args.out, [("report.json", dumps_json(doc)), ("report.txt", text)])
    for r in reports:
        print(f"{r.text_line()} ({r.millis:.0f} ms)")
    for path in paths.values():
        print(f"wrote {path}")
    if not all_pass:
        failing = [r.claim for r in reports if not r.result]
        print(f"ERR VerificationFailed: {','.join(failing)}", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    return EXIT_OK


def cmd_simulate(args) -> int:
    _check_seed(args.seed)
    code = Code.build(field_of_order(args.q), args.r)
    config = SimulationConfig(
        model=args.model,
        trials=args.trials,
        seed=args.seed,
        policy=args.policy,
        t=args.t,
        rho=args.rho,
    )
    result = run_simulation(code, config)
    doc = document_head(code) | result.to_json_dict()
    paths = write_texts(args.out, [("simulation.json", dumps_json(doc))])
    res = doc["results"]
    print(f"trials: {res['trials']}")
    print(f"erased_symbols: {res['erased_symbols']}")
    print(f"locally_repaired: {res['locally_repaired']}")
    print(f"globally_repaired: {res['globally_repaired']}")
    print(f"local_repair_success_rate: {res['local_repair_success_rate']}")
    print(f"overall_recovery_rate: {res['overall_recovery_rate']}")
    print(f"mean_reads_per_repaired_symbol: {res['mean_reads_per_repaired_symbol']}")
    print(f"wrote {paths['simulation.json']}")
    return EXIT_OK


@functools.cache
def build_parser() -> _Parser:
    """The root parser, built on the first call only: building costs about
    25 times what one parse does."""
    parser = _Parser(prog="lrc5", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)

    # options of verify and simulate, the only commands that draw random numbers
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=_integer, default=0, help="PRNG seed, in [0, 2^64)")
    seeded.add_argument("--out", default=".", help="output directory")

    # the required code parameters of params, gen and simulate
    sized = argparse.ArgumentParser(add_help=False)
    sized.add_argument("--q", type=_integer, required=True, help="field order (prime power)")
    sized.add_argument("--r", type=_integer, required=True, help="locality")

    sp = subs.add_parser("params", parents=[sized],
                         help="validate parameters and print code facts")
    sp.set_defaults(func=cmd_params)

    sg = subs.add_parser("gen", parents=[sized], help="construct a code and write its artifacts")
    sg.add_argument("--out", default=".", help="output directory")
    sg.set_defaults(func=cmd_gen)

    se = subs.add_parser("encode", help="encode a message file")
    se.add_argument("--code", required=True, help="artifact directory from gen")
    se.add_argument("--message", required=True, help="k comma-separated symbols")
    se.add_argument("--out", required=True, help="codeword file to write")
    se.set_defaults(func=cmd_encode)

    sr = subs.add_parser("repair", help="repair one erased position locally")
    sr.add_argument("--code", required=True, help="artifact directory from gen")
    sr.add_argument("--word", required=True, help="codeword file with '?' erasures")
    sr.add_argument("--position", type=_integer, required=True, help="1-based position")
    sr.set_defaults(func=cmd_repair)

    sd = subs.add_parser("decode", help="fill erasures in a word")
    sd.add_argument("--code", required=True, help="artifact directory from gen")
    sd.add_argument("--word", required=True, help="codeword file with '?' erasures")
    sd.add_argument("--policy", choices=("hybrid", "global"), default="hybrid")
    sd.add_argument("--out", default=None, help="output word file (default stdout)")
    sd.set_defaults(func=cmd_decode)

    sv = subs.add_parser("verify", parents=[seeded], help="run verification suites")
    sv.add_argument("--q", type=_integer, help="field order (prime power)")
    sv.add_argument("--r", type=_integer, help="locality")
    sv.add_argument("--load", help="verify the code of a gen directory; its files "
                    "must be exactly what gen writes")
    sv.add_argument("--suite", choices=SUITES + ("all",), default="all")
    sv.add_argument("--mode", choices=("auto", "exhaustive", "sampled"), default="auto",
                    help=f"auto: exhaustive when a complete scan fits the "
                         f"{SUBSET_BUDGET:,}-reduction budget, else sampled")
    sv.add_argument("--trials", type=_integer, default=100_000,
                    help="subset count for sampled mode")
    sv.set_defaults(func=cmd_verify)

    ss = subs.add_parser("simulate", parents=[seeded, sized],
                         help="Monte Carlo erasure and repair simulation")
    ss.add_argument("--model", choices=MODELS, required=True)
    ss.add_argument("--t", type=_integer, help="erasures per trial (fixed model)")
    ss.add_argument("--rho", type=_real, help="per-symbol erasure probability")
    ss.add_argument("--trials", type=_integer, default=1000)
    ss.add_argument("--policy", choices=POLICIES, default="hybrid")
    ss.set_defaults(func=cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(f"ERR Usage: {e}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as e:  # --help
        return int(e.code or 0)
    try:
        return args.func(args)
    except LrcError as e:
        print(f"ERR {e.code}: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except ZeroDivisionError as e:
        print(f"ERR DivisionByZero: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as e:
        print(f"ERR Validation: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as e:
        name = getattr(e, "filename", None)
        detail = f"{name}: {e.strerror}" if name else str(e)
        print(f"ERR IO: {detail}", file=sys.stderr)
        return EXIT_IO
