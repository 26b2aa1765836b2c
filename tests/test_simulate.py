import pytest

from lrc5 import Code
from lrc5.errors import BudgetExceededError
from lrc5.field import field_of_order
from lrc5.rng import SplitMix64
from lrc5.simulate import SimulationConfig, SimulationResult, run_simulation
from lrc5.verify import SUBSET_BUDGET

from .oracles import oracle_weight4_supports

FROZEN = {
    "fixed_t1_local": (
        (7, 5),
        SimulationConfig(model="fixed", t=1, trials=200, seed=0, policy="local-only"),
        {
            "erased_symbols": 200,
            "erasures_per_cell_histogram": {"0": 1000, "1": 200},
            "fully_recovered_trials": 200,
            "globally_repaired": 0,
            "local_repair_success_rate": 1.0,
            "locally_repaired": 200,
            "mean_reads_per_repaired_symbol": 5.0,
            "overall_recovery_rate": 1.0,
            "symbols_read": 1000,
            "trials": 200,
        },
    ),
    "fixed_t3_hybrid": (
        (7, 5),
        SimulationConfig(model="fixed", t=3, trials=500, seed=0, policy="hybrid"),
        {
            "erased_symbols": 1500,
            "erasures_per_cell_histogram": {"0": 1690, "1": 1128, "2": 174, "3": 8},
            "fully_recovered_trials": 500,
            "globally_repaired": 372,
            "local_repair_success_rate": 0.752,
            "locally_repaired": 1128,
            "mean_reads_per_repaired_symbol": 7.88,
            "overall_recovery_rate": 1.0,
            "symbols_read": 11820,
            "trials": 500,
        },
    ),
    "fixed_t5_hybrid": (
        (7, 5),
        SimulationConfig(model="fixed", t=5, trials=1000, seed=0, policy="hybrid"),
        {
            "erased_symbols": 5000,
            "erasures_per_cell_histogram": {
                "0": 2278,
                "1": 2597,
                "2": 978,
                "3": 141,
                "4": 6,
            },
            "fully_recovered_trials": 991,
            "globally_repaired": 2365,
            "local_repair_success_rate": 0.5194,
            "locally_repaired": 2597,
            "mean_reads_per_repaired_symbol": 8.459492140266022,
            "overall_recovery_rate": 0.991,
            "symbols_read": 41976,
            "trials": 1000,
        },
    ),
    "bern_rho08_s3": (
        (7, 5),
        SimulationConfig(model="bernoulli", rho=0.08, trials=300, seed=3, policy="hybrid"),
        {
            "erased_symbols": 844,
            "erasures_per_cell_histogram": {
                "0": 1100,
                "1": 567,
                "2": 124,
                "3": 7,
                "4": 2,
            },
            "fully_recovered_trials": 298,
            "globally_repaired": 264,
            "local_repair_success_rate": 0.6718009478672986,
            "locally_repaired": 567,
            "mean_reads_per_repaired_symbol": 7.64259927797834,
            "overall_recovery_rate": 0.9933333333333333,
            "symbols_read": 6351,
            "trials": 300,
        },
    ),
    # the other field kinds: characteristic 2 and an odd-characteristic extension
    "gf8_fixed_t4_hybrid": (
        (8, 6),
        SimulationConfig(model="fixed", t=4, trials=300, seed=0, policy="hybrid"),
        {
            "erased_symbols": 1200,
            "erasures_per_cell_histogram": {"0": 1112, "1": 792, "2": 180, "3": 16},
            "fully_recovered_trials": 300,
            "globally_repaired": 408,
            "local_repair_success_rate": 0.66,
            "locally_repaired": 792,
            "mean_reads_per_repaired_symbol": 11.051666666666666,
            "overall_recovery_rate": 1.0,
            "symbols_read": 13262,
            "trials": 300,
        },
    ),
    "gf9_bern_rho01_local": (
        (9, 3),
        SimulationConfig(model="bernoulli", rho=0.1, trials=300, seed=1, policy="local-only"),
        {
            "erased_symbols": 1926,
            "erasures_per_cell_histogram": {"0": 3149, "1": 1393, "2": 243, "3": 13, "4": 2},
            "fully_recovered_trials": 124,
            "globally_repaired": 0,
            "local_repair_success_rate": 0.7232606438213914,
            "locally_repaired": 1393,
            "mean_reads_per_repaired_symbol": 3.0,
            "overall_recovery_rate": 0.41333333333333333,
            "symbols_read": 4179,
            "trials": 300,
        },
    ),
    # every trial erases in every cell, so the histogram has no "0" key
    "gf5_bern_rho09_hybrid": (
        (5, 3),
        SimulationConfig(model="bernoulli", rho=0.9, trials=20, seed=0, policy="hybrid"),
        {
            "erased_symbols": 293,
            "erasures_per_cell_histogram": {"2": 5, "3": 17, "4": 58},
            "fully_recovered_trials": 0,
            "globally_repaired": 0,
            "local_repair_success_rate": 0.0,
            "locally_repaired": 0,
            "mean_reads_per_repaired_symbol": None,
            "overall_recovery_rate": 0.0,
            "symbols_read": 0,
            "trials": 20,
        },
    ),
}


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_simulations(name):
    (q, r), config, expected = FROZEN[name]
    result = run_simulation(Code.build(field_of_order(q), r), config)
    doc = result.to_json_dict()
    assert doc["rng"] == "splitmix64"
    assert doc["results"] == expected
    assert doc["config"] == config.to_json_dict()


def test_simulation_is_deterministic(code75):
    cfg = SimulationConfig(model="fixed", t=2, trials=50, seed=12, policy="hybrid")
    a = run_simulation(code75, cfg).to_json_dict()
    b = run_simulation(code75, cfg).to_json_dict()
    assert a == b


def test_four_erasures_still_recover_at_seed_zero(code75):
    # every 4-erasure trial dodges the 54 bad supports at this seed; the
    # t=5 run above is the one that hits unrecoverable patterns
    cfg = SimulationConfig(model="fixed", t=4, trials=1000, seed=0, policy="hybrid")
    res = run_simulation(code75, cfg)
    assert res.fully_recovered_trials == 1000
    assert res.locally_repaired == 2525
    assert res.globally_repaired == 1475
    assert res.symbols_read == 35018


def test_local_only_policy_leaves_clustered_holes(code75):
    cfg = SimulationConfig(model="fixed", t=4, trials=200, seed=1, policy="local-only")
    res = run_simulation(code75, cfg)
    assert res.globally_repaired == 0
    assert res.fully_recovered_trials < 200
    assert res.overall_recovery_rate < 1.0


def test_zero_erasures_model(code75):
    cfg = SimulationConfig(model="fixed", t=0, trials=10, seed=0, policy="hybrid")
    res = run_simulation(code75, cfg)
    assert res.erased_symbols == 0
    assert res.fully_recovered_trials == 10
    assert res.mean_reads_per_repaired_symbol is None
    assert res.local_repair_success_rate is None


def test_histograms_account_for_every_cell(code75):
    cfg = SimulationConfig(model="bernoulli", rho=0.2, trials=40, seed=5, policy="hybrid")
    res = run_simulation(code75, cfg)
    hist = res.erasures_per_cell_histogram
    assert sum(hist.values()) == 40 * 6
    assert sum(int(k) * v for k, v in hist.items()) == res.erased_symbols


def test_config_validation(code75):
    with pytest.raises(ValueError):
        SimulationConfig(model="gauss", trials=5, seed=0, policy="hybrid").validate(36)
    with pytest.raises(ValueError):
        SimulationConfig(model="fixed", trials=5, seed=0, policy="hybrid").validate(36)
    with pytest.raises(ValueError):
        SimulationConfig(model="fixed", t=37, trials=5, seed=0, policy="hybrid").validate(36)
    with pytest.raises(ValueError):
        SimulationConfig(model="bernoulli", rho=1.5, trials=5, seed=0, policy="hybrid").validate(36)
    with pytest.raises(ValueError):
        SimulationConfig(model="bernoulli", rho=0.1, trials=0, seed=0, policy="hybrid").validate(36)
    with pytest.raises(ValueError):
        SimulationConfig(model="fixed", t=1, trials=5, seed=0, policy="psychic").validate(36)


def test_config_refuses_the_other_models_parameter():
    """rho has no effect under the fixed model, nor t under bernoulli; a
    config that names one would persist a setting that was never used."""
    with pytest.raises(ValueError, match="rho does not apply to the fixed model"):
        SimulationConfig(model="fixed", t=3, rho=0.9, trials=5, seed=0,
                         policy="hybrid").validate(36)
    with pytest.raises(ValueError, match="t does not apply to the bernoulli model"):
        SimulationConfig(model="bernoulli", t=3, rho=0.1, trials=5, seed=0,
                         policy="hybrid").validate(36)


def test_result_type_shape(code75):
    cfg = SimulationConfig(model="fixed", t=1, trials=3, seed=0, policy="hybrid")
    res = run_simulation(code75, cfg)
    assert isinstance(res, SimulationResult)
    doc = res.to_json_dict()
    assert set(doc) == {"config", "results", "rng"}


def test_trials_above_the_budget_are_refused_before_any_trial(code75, monkeypatch):
    assert SimulationConfig(model="fixed", t=1, trials=SUBSET_BUDGET, seed=0,
                            policy="hybrid").validate(36) is None
    too_many = SimulationConfig(model="fixed", t=1, trials=SUBSET_BUDGET + 1, seed=0,
                                policy="hybrid")
    with pytest.raises(BudgetExceededError, match="at most 10000000"):
        too_many.validate(36)

    def no_trials(*args):
        raise AssertionError("a trial ran")

    # every run draws from SplitMix64 before its first trial
    monkeypatch.setattr("lrc5.simulate.SplitMix64", no_trials)
    with pytest.raises(BudgetExceededError):
        run_simulation(code75, SimulationConfig(model="fixed", t=1, trials=10**9, seed=0,
                                                policy="hybrid"))


@pytest.mark.parametrize("q,r,trials", [(5, 3, 5_000), (7, 5, 10_000)])
def test_four_erasures_fail_exactly_on_the_weight4_supports(q, r, trials):
    """A 4-erasure pattern is undecodable exactly when it is the support of
    a weight-4 codeword, and each such support puts two erasures in each of
    its two cells, so the local pass cannot help. Replaying the stream in
    run_simulation's order (the message, then the pattern) and looking the
    patterns up in the two-pairs oracle gives the hybrid failures exactly."""
    code = Code.build(field_of_order(q), r)
    config = SimulationConfig(model="fixed", t=4, trials=trials, seed=7, policy="hybrid")
    result = run_simulation(code, config)
    supports = set(oracle_weight4_supports(q, r))
    rng = SplitMix64(config.seed)
    replayed = 0
    for _ in range(trials):
        rng.below(q, code.k)
        replayed += tuple(rng.sample_sorted(code.n, 4)) in supports
    assert replayed > 0
    assert trials - result.fully_recovered_trials == replayed
