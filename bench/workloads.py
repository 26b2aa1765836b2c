"""The four lrc5 benchmark workloads.

Every workload is a closed loop with one client in one process: the next
operation is generated from the seeded stream only after the previous one
has returned and been checked. Scans run with threads=1 because the
reference machine has two shared cores; a multi-process scan there would
measure the scheduler.

Why each workload exists is in its class docstring. Deliberately not
measured here:

- ``--threads`` scans (see above).
- GF(27) and GF(29): building H takes 469 s and 22.5 s at the time of
  writing. They belong in their own benchmark change once the closed-form
  parity check and a single field kernel have landed.
- Spans emitted by the program itself (a ``--trace`` option): the traced
  run records spans from this directory only, by rebinding module names
  (see tracing.py).

Each workload reports only what the program did: the phases it times are
calls into lrc5, and input generation and output checks stay outside them.
Output checks use artifact hashes pinned when the benchmark was defined and
a small field arithmetic of their own, so a change to lrc5.field cannot
make a wrong codeword look right.
"""

import contextlib
import hashlib
import io
import random
import time
from dataclasses import dataclass, field as dc_field
from pathlib import Path

from lrc5 import cli, codec, linalg, verify
from lrc5.construct import Code
from lrc5.field import Field
from lrc5.formats import matrix_to_csv, word_to_text
from lrc5.simulate import SimulationConfig, run_simulation
from stats import percentile

# sha256 of generator.csv and parity.csv text, taken when the benchmark was
# defined; artifacts must stay byte-identical.
PINS = {
    (16, 4): (
        "c6cf4b384c0fda7888ab48e21b72498743b0f0686eedce0ac3a0677603640c31",
        "bfef11f6e806892fddad2bfa0cf683ece84989d258c6f23142e607a2629c0e4a",
    ),
    (13, 5): (
        "db763f74da093646d68dd5929f41fa00d166d1c1eeeaafba6f80a75bcd5c7ebd",
        "b24a9915abc20560dddbbc5ebedd8c604ceeb12aee24dc48fca33b78f024755e",
    ),
    (9, 3): (
        "d63e99230b70dffd573001c30004b78ea0ffac0466bfaccb35d8bcbe2c076075",
        "ed98b5da8ad3904a0aacc438176957d3c955835b6defbacb0ee6462ca3eeb469",
    ),
}

# Canonical reducing polynomials, constant term first.
MODULI = {(2, 4): (1, 1, 0, 0, 1), (3, 2): (1, 0, 1), (13, 1): (0, 1)}


def ref_tables(p: int, m: int) -> tuple[list[list[int]], list[list[int]]]:
    """Addition and multiplication tables of GF(p^m), schoolbook style.

    Independent of lrc5.field: element index digits are polynomial
    coefficients (constant first), reduced by the pinned modulus.
    """
    q = p**m
    modulus = MODULI[(p, m)]
    digits = [[(v // p**i) % p for i in range(m)] for v in range(q)]

    def undigits(ds):
        return sum((c % p) * p**i for i, c in enumerate(ds))

    def mul(a, b):
        prod = [0] * (2 * m - 1)
        for i, x in enumerate(digits[a]):
            for j, y in enumerate(digits[b]):
                prod[i + j] += x * y
        for i in range(2 * m - 2, m - 1, -1):
            c = prod[i] % p
            for t in range(m + 1):
                prod[i - m + t] -= c * modulus[t]
        return undigits(prod[:m])

    add = [[undigits([x + y for x, y in zip(digits[a], digits[b])]) for b in range(q)]
           for a in range(q)]
    return add, [[mul(a, b) for b in range(q)] for a in range(q)]


@dataclass
class Ref:
    """Checker state: pinned matrices and independent arithmetic."""

    add: list[list[int]]
    mul: list[list[int]]
    inv: list[int]
    g_rows: list[list[int]]
    h_rows: list[list[int]]

    @classmethod
    def build(cls, p, m, g_rows, h_rows):
        add, mul = ref_tables(p, m)
        q = len(add)
        inv = [0] + [next(b for b in range(1, q) if mul[a][b] == 1) for a in range(1, q)]
        return cls(add, mul, inv, g_rows, h_rows)

    def dot(self, xs, ys) -> int:
        add, mul = self.add, self.mul
        acc = 0
        for x, y in zip(xs, ys):
            if x and y:
                acc = add[acc][mul[x][y]]
        return acc

    def is_codeword(self, word) -> bool:
        return all(self.dot(row, word) == 0 for row in self.h_rows)

    def symbol(self, message, position) -> int:
        """Codeword symbol at one position, straight from the pinned G."""
        return self.dot(message, [row[position] for row in self.g_rows])

    def two_pairs(self, points) -> bool:
        """The README's rank-drop condition: two y-values with two points each,
        x1+x2 = x3+x4 and x1*x2 = x3*x4*(y3/y1)."""
        by_y: dict[int, list[int]] = {}
        for x, y in points:
            by_y.setdefault(y, []).append(x)
        if sorted(len(xs) for xs in by_y.values()) != [2, 2]:
            return False
        (y1, (x1, x2)), (y3, (x3, x4)) = by_y.items()
        add, mul = self.add, self.mul
        return add[x1][x2] == add[x3][x4] and mul[x1][x2] == mul[mul[x3][x4]][
            mul[y3][self.inv[y1]]
        ]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def pin_failures(q, r, generator_text, parity_text) -> list[str]:
    g_pin, h_pin = PINS[(q, r)]
    out = []
    if sha256(generator_text) != g_pin:
        out.append(f"GF({q}) r={r}: generator.csv differs from the pinned artifact")
    if sha256(parity_text) != h_pin:
        out.append(f"GF({q}) r={r}: parity.csv differs from the pinned artifact")
    return out


@dataclass
class Outcome:
    """One operation: its timed phases (seconds), work units and outputs."""

    phases: dict[str, float]
    work: int
    data: dict
    work_s: float | None = None  # seconds the work rate is taken over

    @property
    def latency(self) -> float:
        return sum(self.phases.values())


@dataclass
class Checked:
    attempted: int
    failures: list[str] = dc_field(default_factory=list)


def phase_ms(outs: list[Outcome], phase: str) -> list[float]:
    return [o.phases[phase] * 1000 for o in outs]


def _timed(phases, key, fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    phases[key] = time.perf_counter() - t0
    return out


class Workload:
    name = ""
    p = m = r = 0
    unit = "op"  # what one unit of work_per_s is
    op_desc = ""  # what op_ms times
    checks = ""  # what the attempted operations are
    count_ops = 3  # operations in the field-operation counting pass

    def __init__(self, scratch: Path):
        self.scratch = scratch

    @property
    def q(self):
        return self.p**self.m

    @property
    def n(self):
        return (self.q - 1) ** 2

    @property
    def k(self):
        return self.n - self.n // (self.r + 1) - 3

    def setup(self, tracer):
        """From nothing to a ready code: field, basis, G, H, local parities."""
        code = Code.build(Field(self.p, self.m), self.r)
        code.generator_matrix
        code.parity_check_matrix
        for ci in range(len(code.domain.cells)):
            code.local_parity(ci)
        return code

    def prepare(self, state) -> tuple[Ref, Checked]:
        """Pin checks and checker state for a freshly set-up code."""
        g, h = state.generator_matrix, state.parity_check_matrix
        failures = pin_failures(self.q, self.r, matrix_to_csv(g), matrix_to_csv(h))
        if tuple(state.field.modulus) != MODULI[(self.p, self.m)]:
            failures.append(f"GF({self.q}) modulus is not the canonical one")
        return Ref.build(self.p, self.m, g, h), Checked(2, failures)

    def message(self, rng) -> list[int]:
        return [rng.randrange(self.q) for _ in range(self.k)]

    def make_input(self, rng):
        raise NotImplementedError

    def run(self, state, inp, tracer) -> Outcome:
        raise NotImplementedError

    def check(self, ref: Ref, inp, out: Outcome) -> Checked:
        raise NotImplementedError

    def counts(self, outs: list[Outcome]) -> dict[str, float]:
        """Input properties of the counting pass, as per-layer metrics."""
        return {}

    def named_metrics(self, outs: list[Outcome]) -> list[tuple[str, float | None, str, int]]:
        """(name, value, unit, sample count) rows of the workload's own metrics."""
        return []


class StoreGF16(Workload):
    """Storage-node traffic in characteristic 2, the field kind storage
    systems use. Each cycle writes (encodes) a random message, rebuilds one
    erased position in every cell (45 local repairs, batched because one
    repair sits at timer-noise level) and recovers from three uniformly random
    erasures with the hybrid decoder. codec and char-2 arithmetic do nearly
    all the work; construct runs only in setup."""

    name = "store-gf16"
    p, m, r = 2, 4, 4
    unit = "cycle"
    op_desc = "one write + rebuild + recovery cycle"
    checks = "pin checks, writes, rebuilds and decodes"
    count_ops = 20

    def make_input(self, rng):
        cell = self.r + 1
        rebuild = [c * cell + rng.randrange(cell) for c in range(self.n // cell)]
        return self.message(rng), rebuild, rng.sample(range(self.n), 3)

    def run(self, code, inp, tracer):
        msg, rebuild, erasures = inp
        ph: dict[str, float] = {}
        cw = _timed(ph, "write", codec.encode, code.field, code.generator_matrix, msg)
        work = list(cw)
        for pos in rebuild:
            work[pos] = None
        with tracer.span("bench.rebuild"):
            t0 = time.perf_counter()
            rebuilt = [codec.local_repair(code, work, pos) for pos in rebuild]
            ph["rebuild"] = time.perf_counter() - t0
        recv = list(cw)
        for pos in erasures:
            recv[pos] = None
        res = _timed(ph, "decode", codec.hybrid_decode, code, recv)
        return Outcome(ph, 1, {"cw": cw, "rebuilt": rebuilt, "decoded": res})

    def check(self, ref, inp, out):
        msg, rebuild, erasures = inp
        cw, res = out.data["cw"], out.data["decoded"]
        c = Checked(2 + len(rebuild))
        if not ref.is_codeword(cw) or any(ref.symbol(msg, j) != cw[j] for j in erasures):
            c.failures.append("write: not the encoding of the message")
        c.failures += [f"rebuild: wrong symbol at position {pos}"
                       for pos, v in zip(rebuild, out.data["rebuilt"]) if v != cw[pos]]
        if res.codeword != cw:
            c.failures.append(f"decode: wrong codeword for erasures {erasures}")
        return c

    def counts(self, outs):
        decodes = [o.data["decoded"] for o in outs]
        return {
            "codec.global_share": sum(1 for d in decodes if d.globally_repaired) / len(decodes),
            "codec.symbols_read_per_decode": sum(d.symbols_read for d in decodes) / len(decodes),
        }

    def named_metrics(self, outs):
        rows = [("store_ops_per_s", len(outs) / sum(o.latency for o in outs), "1/s", len(outs))]
        for phase in ("write", "rebuild", "decode"):
            ms = phase_ms(outs, phase)
            rows += [(f"{phase}_ms_p{pct}", percentile(ms, pct), "ms", len(ms)) for pct in (50, 99)]
        return rows


#: subsets scanned by the sampled lemma calls of one certification pass
LEMMA_TOTAL = 50_000
D4_SUBSETS = 487_344  # C(144, 3): every 3-subset of parity columns
D5_SUBSETS = 9_272
D5_WITNESS = [1, 2, 106, 108]


class CertifyGF13(Workload):
    """The verifier's job on GF(13), r=5 (n=144): the exhaustive d>=4
    certificate over all 3-subsets of parity columns, the exhaustive d>=5
    refutation up to its frozen witness, seeded sampled rank-lemma scans
    repeated on derived seeds until a fixed subset total (so the work does not
    depend on where the first witness falls) and the locality check. The scan
    engine and prime-field reduction do the work; codec and simulate barely
    run."""

    name = "certify-gf13"
    p, m, r = 13, 1, 5
    unit = "subset"
    op_desc = "one certification pass of four verifier calls"
    checks = "pin checks and verifier calls"
    count_ops = 1

    def make_input(self, rng):
        return rng.getrandbits(63)

    def run(self, code, base_seed, tracer):
        field, h = code.field, code.parity_check_matrix
        ph: dict[str, float] = {}
        with tracer.span("verify.d4_scan"):
            d4 = _timed(ph, "d4", verify.verify_distance_at_least, field, h, 4)
        with tracer.span("verify.d5_scan"):
            d5 = _timed(ph, "d5", verify.verify_distance_at_least, field, h, 5)
        seeds = random.Random(base_seed)
        lemma = []
        done = 0
        with tracer.span("verify.lemma"):
            t0 = time.perf_counter()
            while done < LEMMA_TOTAL:
                rep = verify.verify_constraint_matrix(
                    field, mode="sampled", trials=LEMMA_TOTAL - done,
                    seed=seeds.getrandbits(63),
                )
                lemma.append(rep)
                done += rep.trials
            ph["lemma"] = time.perf_counter() - t0
        with tracer.span("verify.locality"):
            loc = _timed(ph, "locality", verify.verify_locality, code, 25, base_seed)
        subsets = d4.trials + d5.trials + done
        data = {"field": field, "d4": d4, "d5": d5, "lemma": lemma, "locality": loc}
        return Outcome(ph, subsets, data,
                       work_s=ph["d4"] + ph["d5"] + ph["lemma"])

    def check(self, ref, inp, out):
        d = out.data
        c = Checked(3 + len(d["lemma"]))
        d4, d5 = d["d4"], d["d5"]
        if not d4.result or d4.trials != D4_SUBSETS:
            c.failures.append(f"d>=4: result={d4.result} subsets={d4.trials}")
        if d5.result or d5.trials != D5_SUBSETS or d5.witness != {"columns": D5_WITNESS}:
            c.failures.append(f"d>=5: result={d5.result} subsets={d5.trials} witness={d5.witness}")
        if sum(rep.trials for rep in d["lemma"]) != LEMMA_TOTAL:
            c.failures.append("lemma: subset total differs from the requested one")
        field = d["field"]
        for rep in d["lemma"]:
            if rep.witness is None:
                continue
            pts = [tuple(pt) for pt in rep.witness["points"]]
            if linalg.rank(field, verify.constraint_matrix(field, pts)) >= 4 or not ref.two_pairs(pts):
                c.failures.append(f"lemma: witness {pts} is not a two-pairs rank drop")
        if not d["locality"].result:
            c.failures.append(f"locality: {d['locality'].witness}")
        return c

    def counts(self, outs):
        d = outs[0].data
        return {"verify.d4_subsets": d["d4"].trials, "verify.d5_subsets_to_witness": d["d5"].trials}

    def named_metrics(self, outs):
        n = len(outs)
        return [
            ("certify_s", percentile([o.latency for o in outs], 50), "s", n),
            ("subsets_per_s", sum(o.work for o in outs) / sum(o.work_s for o in outs), "1/s", n),
            ("verify.lemma_subsets_per_s", LEMMA_TOTAL * n / sum(o.phases["lemma"] for o in outs), "1/s", n),
        ]


SIM_TRIALS = 20  # trials per run_simulation call


class SimGF9(Workload):
    """run_simulation on GF(9), r=3 (n=64) with fixed t=3 erasures and the
    hybrid policy. The only odd-characteristic extension field whose setup
    fits today, so the only workload on the digit-by-digit addition kernel and
    on simulate; the other three bypass both. Any three erasures are
    recoverable because d=4, so every trial must recover."""

    name = "sim-gf9"
    p, m, r = 3, 2, 3
    unit = "trial"
    op_desc = f"one run_simulation call of {SIM_TRIALS} trials"
    checks = "pin checks and simulated trials"
    count_ops = 3

    def make_input(self, rng):
        return rng.getrandbits(63)

    def run(self, code, seed, tracer):
        cfg = SimulationConfig(model="fixed", trials=SIM_TRIALS, seed=seed, policy="hybrid", t=3)
        ph: dict[str, float] = {}
        with tracer.span("simulate.run"):
            res = _timed(ph, "run", run_simulation, code, cfg)
        return Outcome(ph, SIM_TRIALS, {"result": res})

    def check(self, ref, inp, out):
        res = out.data["result"]
        c = Checked(SIM_TRIALS)
        c.failures += ["trial not recovered"] * (SIM_TRIALS - res.fully_recovered_trials)
        if res.trials != SIM_TRIALS:
            c.failures.append(f"{res.trials} trials run, not {SIM_TRIALS}")
        if res.erased_symbols != 3 * SIM_TRIALS or res.locally_repaired + res.globally_repaired != res.erased_symbols:
            c.failures.append("erased and repaired symbol counts disagree")
        return c

    def counts(self, outs):
        res = [o.data["result"] for o in outs]
        return {"simulate.global_share": sum(r.globally_repaired for r in res) / sum(r.erased_symbols for r in res)}

    def named_metrics(self, outs):
        return [("trials_per_s", SIM_TRIALS * len(outs) / sum(o.latency for o in outs), "1/s", len(outs))]


class CliGF13(Workload):
    """GF(13), r=5 driven in-process through cli.main on files. Setup is one
    `gen`. Each round runs `encode`, `repair` of one erased symbol, `decode
    --policy hybrid` of a pattern that needs the global step (two erasures in
    one cell, one elsewhere) and `decode --policy global` of three uniformly
    random erasures. The only workload that reads and writes artifacts
    (formats) and pays per-command load cost; hybrid decode rebuilds H from G
    instead of using the stored parity.csv."""

    name = "cli-gf13"
    p, m, r = 13, 1, 5
    unit = "round"
    op_desc = "one encode + repair + hybrid decode + global decode round"
    checks = "gen and its pin checks, and CLI commands"
    count_ops = 3

    def __init__(self, scratch):
        super().__init__(scratch)
        self.dir = scratch / self.name
        self.code_dir = self.dir / "code"

    def _cli(self, tracer, span, argv) -> tuple[int, str, float]:
        out = io.StringIO()
        with tracer.span(span), contextlib.redirect_stdout(out):
            t0 = time.perf_counter()
            rc = cli.main([str(a) for a in argv])
            dt = time.perf_counter() - t0
        return rc, out.getvalue(), dt

    def setup(self, tracer):
        self.code_dir.mkdir(parents=True, exist_ok=True)
        rc, _, _ = self._cli(tracer, "cli.gen", ["gen", "--q", self.q, "--r", self.r, "--out", self.code_dir])
        return rc

    def prepare(self, rc):
        g_text = (self.code_dir / "generator.csv").read_text(encoding="utf-8")
        h_text = (self.code_dir / "parity.csv").read_text(encoding="utf-8")
        c = Checked(3, pin_failures(self.q, self.r, g_text, h_text))
        if rc != 0:
            c.failures.append(f"gen exited {rc}")

        def rows(text):
            return [[int(x) for x in line.split(",")] for line in text.splitlines()]

        return Ref.build(self.p, self.m, rows(g_text), rows(h_text)), c

    def make_input(self, rng):
        cell = self.r + 1
        c0 = rng.randrange(self.n // cell)
        pair = [c0 * cell + off for off in rng.sample(range(cell), 2)]
        other = rng.choice([pos for pos in range(self.n) if pos // cell != c0])
        return self.message(rng), rng.randrange(self.n), pair + [other], rng.sample(range(self.n), 3)

    def _erase(self, name, cw, positions) -> Path:
        word = list(cw)
        for pos in positions:
            word[pos] = None
        path = self.dir / name
        path.write_text(word_to_text(word), encoding="utf-8")
        return path

    def _read_word(self, name) -> list[int]:
        return [int(x) for x in (self.dir / name).read_text(encoding="utf-8").strip().split(",")]

    def run(self, rc, inp, tracer):
        msg, repair_pos, hybrid_pat, global_pat = inp
        d, code = self.dir, self.code_dir
        ph: dict[str, float] = {}
        rcs = {}
        for name in ("cw.txt", "dech.txt", "decg.txt"):
            (d / name).unlink(missing_ok=True)  # a failed command must not leave the last round's
        (d / "msg.txt").write_text(word_to_text(msg), encoding="utf-8")
        rcs["encode"], _, ph["encode"] = self._cli(
            tracer, "cli.encode", ["encode", "--code", code, "--message", d / "msg.txt", "--out", d / "cw.txt"])
        cw = self._read_word("cw.txt")
        recv = self._erase("recv1.txt", cw, [repair_pos])
        rcs["repair"], text, ph["repair"] = self._cli(
            tracer, "cli.repair", ["repair", "--code", code, "--word", recv, "--position", repair_pos + 1])
        symbol = int(text.split("symbol:")[1].split()[0])
        recv = self._erase("recvh.txt", cw, hybrid_pat)
        rcs["decode_hybrid"], _, ph["decode_hybrid"] = self._cli(
            tracer, "cli.decode_hybrid",
            ["decode", "--code", code, "--word", recv, "--policy", "hybrid", "--out", d / "dech.txt"])
        recv = self._erase("recvg.txt", cw, global_pat)
        rcs["decode_global"], _, ph["decode_global"] = self._cli(
            tracer, "cli.decode_global",
            ["decode", "--code", code, "--word", recv, "--policy", "global", "--out", d / "decg.txt"])
        data = {"rcs": rcs, "cw": cw, "symbol": symbol,
                "dech": self._read_word("dech.txt"), "decg": self._read_word("decg.txt"),
                "bytes": self._bytes()}
        return Outcome(ph, 1, data)

    def _bytes(self) -> dict[str, int]:
        """Bytes the round's commands read and wrote, computed from file sizes."""
        size = {p.name: p.stat().st_size for p in list(self.dir.iterdir()) + list(self.code_dir.iterdir()) if p.is_file()}
        artifacts = size["manifest.json"] + size["generator.csv"] + size["parity.csv"]
        read = 4 * artifacts + size["msg.txt"] + size["recv1.txt"] + size["recvh.txt"] + size["recvg.txt"]
        return {"read": read, "written": size["cw.txt"] + size["dech.txt"] + size["decg.txt"]}

    def check(self, ref, inp, out):
        msg, repair_pos, _, _ = inp
        d = out.data
        c = Checked(len(d["rcs"]))
        c.failures += [f"{cmd} exited {rc}" for cmd, rc in d["rcs"].items() if rc != 0]
        cw = d["cw"]
        if not ref.is_codeword(cw) or ref.symbol(msg, repair_pos) != cw[repair_pos]:
            c.failures.append("encode: not the encoding of the message")
        if d["symbol"] != cw[repair_pos]:
            c.failures.append(f"repair: symbol {d['symbol']} != {cw[repair_pos]}")
        for key in ("dech", "decg"):
            if d[key] != cw:
                c.failures.append(f"{key}: decoded word differs from the encoded one")
        return c

    def counts(self, outs):
        return {"formats.bytes_read": sum(o.data["bytes"]["read"] for o in outs) / len(outs),
                "formats.bytes_written": sum(o.data["bytes"]["written"] for o in outs) / len(outs)}

    def named_metrics(self, outs):
        ms = [o.latency * 1000 for o in outs]
        return [(f"cli_round_ms_p{pct}", percentile(ms, pct), "ms", len(ms)) for pct in (50, 90)]


WORKLOADS = {wl.name: wl for wl in (StoreGF16, CertifyGF13, SimGF9, CliGF13)}
