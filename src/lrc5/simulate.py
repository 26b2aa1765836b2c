"""Monte Carlo erasure and repair simulation over a constructed code.

Each trial encodes a seeded random message, erases symbols per the chosen
model, applies the repair policy, and tallies per-symbol and per-trial
outcomes. Everything is driven by one splitmix64 stream, so a (config,
seed) pair fixes the entire run. Like verify's sampled scans, a run is
capped at SUBSET_BUDGET trials, refused before any trial runs.
"""

from dataclasses import asdict, dataclass

from .codec import _erasures_by_cell, _local_pass, erasure_decode
# encode is unused here but stays bound: the benchmark's tracing rebinds it
from .codec import encode
from .construct import Code
from .errors import AmbiguousErasuresError, BudgetExceededError, TooManyErasuresError
from .rng import SplitMix64, RNG_NAME
from .verify import SUBSET_BUDGET

MODELS = ("fixed", "bernoulli")
POLICIES = ("local-only", "hybrid")


@dataclass(frozen=True)
class SimulationConfig:
    model: str
    trials: int
    seed: int
    policy: str
    t: int | None = None
    rho: float | None = None

    def validate(self, n: int) -> None:
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}")
        if self.policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}")
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if self.trials > SUBSET_BUDGET:
            raise BudgetExceededError(f"trials must be at most {SUBSET_BUDGET}")
        if self.model == "fixed":
            if self.t is None or not 0 <= self.t <= n:
                raise ValueError(f"fixed model needs an erasure count t in [0, {n}]")
        elif self.rho is None or not 0.0 <= self.rho <= 1.0:
            raise ValueError("bernoulli model needs a probability rho in [0, 1]")
        other = "rho" if self.model == "fixed" else "t"
        if getattr(self, other) is not None:
            raise ValueError(f"{other} does not apply to the {self.model} model")

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass
class SimulationResult:
    config: SimulationConfig
    trials: int
    erased_symbols: int
    locally_repaired: int
    globally_repaired: int
    symbols_read: int
    fully_recovered_trials: int
    erasures_per_cell_histogram: dict[int, int]

    @property
    def local_repair_success_rate(self) -> float | None:
        if self.erased_symbols == 0:
            return None
        return self.locally_repaired / self.erased_symbols

    @property
    def overall_recovery_rate(self) -> float:
        return self.fully_recovered_trials / self.trials

    @property
    def mean_reads_per_repaired_symbol(self) -> float | None:
        repaired = self.locally_repaired + self.globally_repaired
        if repaired == 0:
            return None
        return self.symbols_read / repaired

    def to_json_dict(self) -> dict:
        """config and results: every field, the three rates, and the
        histogram with string keys, as JSON writes them."""
        results = asdict(self)
        config = results.pop("config")
        hist = results["erasures_per_cell_histogram"]
        results["erasures_per_cell_histogram"] = {str(c): v for c, v in hist.items()}
        results["local_repair_success_rate"] = self.local_repair_success_rate
        results["overall_recovery_rate"] = self.overall_recovery_rate
        results["mean_reads_per_repaired_symbol"] = self.mean_reads_per_repaired_symbol
        return {"rng": RNG_NAME, "config": config, "results": results}


def run_simulation(code: Code, config: SimulationConfig) -> SimulationResult:
    config.validate(code.n)
    rng = SplitMix64(config.seed)
    q, n, k, cells = code.field.q, code.n, code.k, code.n // code.domain.cell_size
    threshold = int(config.rho * (1 << 64)) if config.model == "bernoulli" else 0
    erased_total = 0
    local_total = 0
    global_total = 0
    reads_total = 0
    recovered_trials = 0
    hist: dict[int, int] = {}
    for _ in range(config.trials):
        msg = rng.below(q, k)
        cw = code.encode(msg)
        if config.model == "fixed":
            pattern = rng.sample_sorted(n, config.t)
        else:
            pattern = [i for i, u in enumerate(rng.below(1 << 64, n)) if u < threshold]
        erased_total += len(pattern)
        by_cell = _erasures_by_cell(code, pattern)
        for gaps in by_cell.values():
            hist[len(gaps)] = hist.get(len(gaps), 0) + 1
        if len(by_cell) < cells:
            hist[0] = hist.get(0, 0) + cells - len(by_cell)
        work: list[int | None] = list(cw)
        for pos in pattern:
            work[pos] = None
        repaired, remaining, reads = _local_pass(code, work, by_cell)
        local_total += len(repaired)
        reads_total += reads
        recovered = not remaining
        if remaining and config.policy == "hybrid":
            try:
                work = erasure_decode(code, work)
                global_total += len(remaining)
                reads_total += n - len(remaining)
                recovered = True
            except (AmbiguousErasuresError, TooManyErasuresError):
                recovered = False
        if recovered and work == cw:
            recovered_trials += 1
    return SimulationResult(
        config=config,
        trials=config.trials,
        erased_symbols=erased_total,
        locally_repaired=local_total,
        globally_repaired=global_total,
        symbols_read=reads_total,
        fully_recovered_trials=recovered_trials,
        erasures_per_cell_histogram=hist,
    )
