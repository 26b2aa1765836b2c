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
stdout only.
"""

import argparse
import sys
import time
from pathlib import Path

from .codec import erasure_decode, encode, hybrid_decode, local_repair
from .construct import Code
from .errors import LrcError, TooLargeError, ValidationError
from .field import MAX_ORDER, Field, _prime_factors
from .formats import (
    FORMAT_VERSION,
    dumps_json,
    load_artifacts,
    parse_message,
    parse_word,
    word_to_text,
    write_artifacts,
    write_text_atomic,
)
from .rng import RNG_NAME
from .simulate import SimulationConfig, run_simulation
from .verify import (
    SUBSET_BUDGET,
    VerificationReport,
    exhaustive_cost,
    find_min_weight_codeword,
    length_regime_report,
    optimality_equivalence_holds,
    singleton_like_bound,
    verify_constraint_matrix,
    verify_distance_at_least,
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


def _field_of_order(q: int) -> Field:
    if q > MAX_ORDER:  # before factoring, which trial-divides up to sqrt(q)
        raise TooLargeError(f"field order {q} exceeds 2^16")
    factors = _prime_factors(q)
    if len(factors) != 1:
        raise ValidationError(f"q = {q} is not a prime power")
    p, m = factors[0], 1
    while p**m < q:
        m += 1
    return Field(p, m)


def cmd_params(args) -> int:
    field = _field_of_order(args.q)
    code = Code.build(field, args.r)
    p = code.params
    bound = singleton_like_bound(p.n, p.k, p.r)
    print(f"q={field.q} p={field.p} m={field.m} modulus={list(field.modulus)}")
    print(f"r={p.r} n={p.n} k={p.k} d_target={p.d_target}")
    print(f"singleton_like_bound={bound}")
    print(f"optimal_regime={'yes' if p.optimal_regime else 'no'}")
    if p.equiv_applicable:
        holds = optimality_equivalence_holds(p, p.d_target)
        print(f"optimality_equivalence={'holds' if holds else 'FAILS'}")
    else:
        print("optimality_equivalence=inapplicable (d-2 congruent to r mod r+1)")
    reg = length_regime_report(p).details
    blocks = reg["block_count_inequality"]
    cosets = reg["coset_count_condition"]
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
    field = _field_of_order(args.q)
    code = Code.build(field, args.r)
    paths = write_artifacts(code, args.out)
    for name in ("manifest", "generator", "parity", "basis"):
        print(f"wrote {paths[name]}")
    return EXIT_OK


def cmd_encode(args) -> int:
    code = load_artifacts(args.code)
    field = code.field
    message = parse_message(
        Path(args.message).read_text(encoding="utf-8"), field.q, code.k, args.message
    )
    codeword = encode(field, code.generator_matrix, message)
    write_text_atomic(args.out, word_to_text(codeword))
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_repair(args) -> int:
    code = load_artifacts(args.code)
    word = parse_word(Path(args.word).read_text(encoding="utf-8"), code.field.q, args.word)
    if len(word) != code.n:
        raise ValidationError(f"word has {len(word)} symbols, expected n = {code.n}")
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
    field = code.field
    word = parse_word(Path(args.word).read_text(encoding="utf-8"), field.q, args.word)
    if len(word) != code.n:
        raise ValidationError(f"word has {len(word)} symbols, expected n = {code.n}")
    if args.policy == "global":
        decoded = erasure_decode(field, code.parity_check_matrix, word)
        stats = None
    else:
        res = hybrid_decode(code, word)
        decoded = res.codeword
        stats = res
    text = word_to_text(decoded)
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
    field, p = code.field, code.params
    suites = SUITES if args.suite == "all" else (args.suite,)
    reports: list[VerificationReport] = []
    for suite in suites:
        if suite == "distance":
            h_rows = code.parity_check_matrix
            d5 = verify_distance_at_least(
                field, h_rows, 5, mode=args.mode, trials=args.trials, seed=args.seed
            )
            reports.append(d5)
            cost = sum(exhaustive_cost(p.n, w) for w in range(1, 6))
            if d5.mode == "exhaustive" and cost <= SUBSET_BUDGET:
                mw = find_min_weight_codeword(field, h_rows, 5)
                if mw.witness is not None:
                    bound = singleton_like_bound(p.n, p.k, p.r)
                    mw.details["distance"] = mw.witness["weight"]
                    mw.details["meets_singleton_like_bound"] = (
                        mw.witness["weight"] == bound
                    )
                reports.append(mw)
        elif suite == "lemma":
            reports.append(
                verify_constraint_matrix(
                    field, mode=args.mode, trials=args.trials, seed=args.seed
                )
            )
        elif suite == "locality":
            reports.append(verify_locality(code, trials=25, seed=args.seed))
        elif suite == "bounds":
            bound = singleton_like_bound(p.n, p.k, p.r)
            reports.append(
                VerificationReport(
                    claim="singleton-like-bound",
                    mode="exhaustive",
                    trials=0,
                    result=True,
                    witness=None,
                    seed=None,
                    millis=0.0,
                    details={"value": bound, "d_target": p.d_target,
                             "meets_bound": bound == p.d_target},
                )
            )
            t0 = time.perf_counter()
            try:
                holds = optimality_equivalence_holds(p, p.d_target)
                witness = None if holds else {"n_minus_k": p.n - p.k}
                details = {"status": "holds" if holds else "fails"}
            except LrcError as e:
                holds, witness = True, None
                details = {"status": "inapplicable", "reason": str(e)}
            reports.append(
                VerificationReport(
                    claim="optimality-equivalence",
                    mode="exhaustive",
                    trials=0,
                    result=holds,
                    witness=witness,
                    seed=None,
                    millis=(time.perf_counter() - t0) * 1000,
                    details=details,
                )
            )
            reports.append(length_regime_report(p))
    return reports


def cmd_verify(args) -> int:
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
        code = Code.build(_field_of_order(args.q), args.r)
    reports = _run_suites(args, code)
    all_pass = all(r.result for r in reports)
    doc = {
        "format_version": FORMAT_VERSION,
        "rng": RNG_NAME,
        "field": code.field.spec_dict(),
        "code": {"r": code.r, "n": code.n, "k": code.k, "d_claimed": code.params.d_target},
        "suite": args.suite,
        "mode_requested": args.mode,
        "seed": args.seed,
        "all_pass": all_pass,
        "reports": [r.to_json_dict(include_timing=False) for r in reports],
    }
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    write_text_atomic(outdir / "report.json", dumps_json(doc))
    header = (
        f"code: q={code.field.q} r={code.r} n={code.n} k={code.k} "
        f"suite={args.suite} mode={args.mode} seed={args.seed} rng={RNG_NAME}\n"
    )
    text = header + "".join(r.text_line() + "\n" for r in reports)
    write_text_atomic(outdir / "report.txt", text)
    for r in reports:
        print(f"{r.text_line()} ({r.millis:.0f} ms)")
    print(f"wrote {outdir / 'report.json'}")
    print(f"wrote {outdir / 'report.txt'}")
    if not all_pass:
        failing = [r.claim for r in reports if not r.result]
        print(f"ERR VerificationFailed: {','.join(failing)}", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    return EXIT_OK


def cmd_simulate(args) -> int:
    field = _field_of_order(args.q)
    code = Code.build(field, args.r)
    config = SimulationConfig(
        model=args.model,
        trials=args.trials,
        seed=args.seed,
        policy=args.policy,
        t=args.t,
        rho=args.rho,
    )
    result = run_simulation(code, config)
    doc = {
        "format_version": FORMAT_VERSION,
        "field": field.spec_dict(),
        "code": {"r": code.r, "n": code.n, "k": code.k},
        **result.to_json_dict(),
    }
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    write_text_atomic(outdir / "simulation.json", dumps_json(doc))
    res = doc["results"]
    print(f"trials: {res['trials']}")
    print(f"erased_symbols: {res['erased_symbols']}")
    print(f"locally_repaired: {res['locally_repaired']}")
    print(f"globally_repaired: {res['globally_repaired']}")
    print(f"local_repair_success_rate: {res['local_repair_success_rate']}")
    print(f"overall_recovery_rate: {res['overall_recovery_rate']}")
    print(f"mean_reads_per_repaired_symbol: {res['mean_reads_per_repaired_symbol']}")
    print(f"wrote {outdir / 'simulation.json'}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="lrc5", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)

    # options of verify and simulate, the only commands that draw random numbers
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0, help="PRNG seed")
    seeded.add_argument("--out", default=".", help="output directory")

    sp = subs.add_parser("params", help="validate parameters and print code facts")
    sp.add_argument("--q", type=int, required=True, help="field order (prime power)")
    sp.add_argument("--r", type=int, required=True, help="locality")
    sp.set_defaults(func=cmd_params)

    sg = subs.add_parser("gen", help="construct a code and write its artifacts")
    sg.add_argument("--out", default=".", help="output directory")
    sg.add_argument("--q", type=int, required=True, help="field order (prime power)")
    sg.add_argument("--r", type=int, required=True, help="locality")
    sg.set_defaults(func=cmd_gen)

    se = subs.add_parser("encode", help="encode a message file")
    se.add_argument("--code", required=True, help="artifact directory from gen")
    se.add_argument("--message", required=True, help="k comma-separated symbols")
    se.add_argument("--out", required=True, help="codeword file to write")
    se.set_defaults(func=cmd_encode)

    sr = subs.add_parser("repair", help="repair one erased position locally")
    sr.add_argument("--code", required=True, help="artifact directory from gen")
    sr.add_argument("--word", required=True, help="codeword file with '?' erasures")
    sr.add_argument("--position", type=int, required=True, help="1-based position")
    sr.set_defaults(func=cmd_repair)

    sd = subs.add_parser("decode", help="fill erasures in a word")
    sd.add_argument("--code", required=True, help="artifact directory from gen")
    sd.add_argument("--word", required=True, help="codeword file with '?' erasures")
    sd.add_argument("--policy", choices=("hybrid", "global"), default="hybrid")
    sd.add_argument("--out", default=None, help="output word file (default stdout)")
    sd.set_defaults(func=cmd_decode)

    sv = subs.add_parser("verify", parents=[seeded], help="run verification suites")
    sv.add_argument("--q", type=int, help="field order (prime power)")
    sv.add_argument("--r", type=int, help="locality")
    sv.add_argument("--load", help="verify the code of a gen directory; its files "
                    "must be exactly what gen writes")
    sv.add_argument("--suite", choices=SUITES + ("all",), default="all")
    sv.add_argument("--mode", choices=("auto", "exhaustive", "sampled"), default="auto",
                    help=f"auto: exhaustive when a complete scan fits the "
                         f"{SUBSET_BUDGET:,}-reduction budget, else sampled")
    sv.add_argument("--trials", type=int, default=100_000,
                    help="subset count for sampled mode")
    sv.set_defaults(func=cmd_verify)

    ss = subs.add_parser("simulate", parents=[seeded],
                         help="Monte Carlo erasure and repair simulation")
    ss.add_argument("--q", type=int, required=True, help="field order (prime power)")
    ss.add_argument("--r", type=int, required=True, help="locality")
    ss.add_argument("--model", choices=("fixed", "bernoulli"), required=True)
    ss.add_argument("--t", type=int, help="erasures per trial (fixed model)")
    ss.add_argument("--rho", type=float, help="per-symbol erasure probability")
    ss.add_argument("--trials", type=int, default=1000)
    ss.add_argument("--policy", choices=("local-only", "hybrid"), default="hybrid")
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
