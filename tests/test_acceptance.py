"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The heavy fixtures are
module-scoped and shared; their sweeps run distinct Lanczos runs on a small
process pool.
"""

import math

import numpy as np
import pytest

from helpers import SZ, dense_ising, dense_lmg, random_hermitian_mpo, site_op
from mpotrace import (
    BetaGrid,
    LanczosConfig,
    Mpo,
    entropy_density,
    exact_bond_cap,
    exact_observables,
    exact_spectrum,
    identity_block,
    ising_mpo,
    lmg_mpo,
    pair_observables,
    partition_traces,
    run_lanczos,
    sweep_observables,
    to_dense,
)
from mpotrace import evaluate
from mpotrace.cli import RunConfig, exact_tc, extrapolate_tc, find_peak, run_sweep

TEMPS_10 = np.round(np.arange(1, 11) * 0.1, 10)

# every thermal sweep produced while the suite runs, checked by criterion 7
BOUNDS_REGISTRY = []


def _register(result):
    BOUNDS_REGISTRY.append(result)
    return result


def _rel_err(got, want):
    return np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-12))


# ---------------------------------------------------------------------------
# criterion 1 fixtures: untruncated L=8 runs vs the dense oracle

def _oracle_equivalence_case(build, label):
    length = 8
    h = build(length)
    cfg = LanczosConfig(k_max=50, d_max=exact_bond_cap(length))
    run = run_lanczos(h, identity_block(length), cfg, label)
    grid = BetaGrid.from_temperatures(TEMPS_10, delta_t=0.1)
    ours = _register(sweep_observables([run], grid, length))
    reference = exact_observables(exact_spectrum(h), grid)
    return ours, reference


@pytest.fixture(scope="module")
def ising8_case():
    return _oracle_equivalence_case(lambda L: ising_mpo(L, 1.0, 1.0), "ising8")


@pytest.fixture(scope="module")
def lmg8_cases():
    return {
        0.2: _oracle_equivalence_case(lambda L: lmg_mpo(L, 0.2), "lmg8-0.2"),
        1.2: _oracle_equivalence_case(lambda L: lmg_mpo(L, 1.2), "lmg8-1.2"),
    }


def test_criterion_1_oracle_equivalence(ising8_case, lmg8_cases):
    cases = {"ising J=g=1": ising8_case}
    cases.update({f"lmg h={h}": case for h, case in lmg8_cases.items()})
    worst = 0.0
    for name, (ours, reference) in cases.items():
        for field in ("log_z", "entropy", "heat_capacity", "fidelity", "trace_distance"):
            err = _rel_err(getattr(ours, field), getattr(reference, field))
            worst = max(worst, err)
            assert err <= 1e-6, f"{name}: {field} relative error {err:.2e}"
    print(f"\nACCEPTANCE 1 (oracle equivalence, L=8, K=50): PASS "
          f"(worst rel err {worst:.2e})")


def test_criterion_2_gauss_exactness():
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        length = 2 + seed % 5
        bond = 1 + seed % 4
        depth = 2 + seed % 5
        h = random_hermitian_mpo(rng, length, bond)
        cfg = LanczosConfig(k_max=depth, d_max=exact_bond_cap(length))
        run = run_lanczos(h, identity_block(length), cfg)
        evals = np.linalg.eigvalsh(to_dense(h))
        for m in range(2 * depth):
            got = evaluate(run, lambda lam, m=m: lam ** m)
            want = float(np.sum(evals ** m))
            floor = 1e-12 * float(np.sum(np.abs(evals) ** m))
            err = abs(got - want) / max(abs(want), floor)
            worst = max(worst, err)
            assert err <= 1e-8, f"seed {seed}, degree {m}: rel err {err:.2e}"
    print(f"\nACCEPTANCE 2 (Gauss exactness to degree 2K-1): PASS "
          f"(worst rel err {worst:.2e})")


def test_criterion_3_closed_form_anchors():
    h = Mpo([np.array(SZ).reshape(1, 2, 2, 1)])
    run = run_lanczos(h, identity_block(1), LanczosConfig(k_max=5, d_max=4))
    log_z, f_over_z, var = partition_traces(run, [1.0])
    assert np.exp(log_z[0]) == pytest.approx(2.0 * np.cosh(1.0), abs=1e-10)
    s = entropy_density(log_z, f_over_z, 1.0, 1)[0]
    c = 1.0 ** 2 * var[0] / 1  # c = beta^2 Var H / L
    assert s == pytest.approx(-np.tanh(1.0) + np.log(2.0 * np.cosh(1.0)), abs=1e-10)
    assert s == pytest.approx(0.3653338550872076, abs=1e-9)
    assert c == pytest.approx(1.0 / np.cosh(1.0) ** 2, abs=1e-10)
    assert c == pytest.approx(0.4199743416140261, abs=1e-9)
    # independent route: atanh(0.2) = ln(1.5)/2
    assert exact_tc(0.2) == pytest.approx(0.2 / math.log(1.5), rel=1e-12)
    assert exact_tc(0.2) == pytest.approx(0.49326, abs=1e-5)
    print("\nACCEPTANCE 3 (closed-form anchors): PASS")


# ---------------------------------------------------------------------------
# criterion 4: correlator benchmark at desk scale

CZZ_LENGTH = 10
CZZ_PAIRS = tuple((5, 5 + d) for d in range(1, 6))
CZZ_TEMPS = (0.1, 1.0)


@pytest.fixture(scope="module")
def czz_case():
    cfg = RunConfig(
        family="ising",
        lengths=(CZZ_LENGTH,),
        j_coupling=1.0,
        g_field=1.0,
        tmin=CZZ_TEMPS[0], tmax=CZZ_TEMPS[1], tstep=CZZ_TEMPS[1] - CZZ_TEMPS[0],
        k_max=60, d_max=64,
        outputs=("Czz",),
        czz_pairs=CZZ_PAIRS,
        workers=2,
    )
    [(spec, result)] = run_sweep(cfg).results
    assert tuple(result.temperatures) == CZZ_TEMPS
    grid = BetaGrid.from_temperatures(np.array(CZZ_TEMPS), delta_t=0.1)
    reference = exact_observables(exact_spectrum(spec.build(), guard=10), grid,
                                  czz_sites=CZZ_PAIRS)
    return result.czz, reference


@pytest.mark.slow
def test_criterion_4_correlator_benchmark(czz_case):
    ours, reference = czz_case
    worst = 0.0
    for pair in CZZ_PAIRS:
        for t_idx, t in enumerate(CZZ_TEMPS):
            ref_idx = list(reference.temperatures).index(t)
            got = ours[pair][t_idx]
            want = reference.czz[pair][ref_idx]
            err = abs(got - want)
            worst = max(worst, err)
            assert err <= 1e-4, f"C_zz{pair} at T={t}: abs err {err:.2e}"
    # exponential decay with distance, at both temperatures
    for t_idx, t in enumerate(CZZ_TEMPS):
        values = np.array([abs(ours[pair][t_idx]) for pair in CZZ_PAIRS])
        assert np.all(np.diff(values) < 0.0), f"no monotone decay at T={t}"
    # longer correlation length in the colder state: slower relative decay
    cold = np.array([abs(ours[pair][0]) for pair in CZZ_PAIRS])
    warm = np.array([abs(ours[pair][1]) for pair in CZZ_PAIRS])
    assert cold[-1] / cold[0] > warm[-1] / warm[0]
    assert np.all(cold > warm)
    print(f"\nACCEPTANCE 4 (correlators, L=10, D=64, K=60): PASS "
          f"(worst abs err {worst:.2e})")


# ---------------------------------------------------------------------------
# criterion 5: finite-size drift of the LMG heat-capacity peak

@pytest.fixture(scope="module")
def lmg_sweep_outcome(tmp_path_factory):
    out = tmp_path_factory.mktemp("lmg") / "lmg.csv"
    cfg = RunConfig(
        family="lmg",
        lengths=(12, 16, 20),
        h_fields=(0.2, 1.2),
        tmin=0.1, tmax=1.0, tstep=0.05,
        k_max=70, d_max=60,
        out_path=str(out),
        workers=2,
    )
    outcome = run_sweep(cfg)
    for _, result in outcome.results:
        _register(result)
    return outcome


@pytest.mark.slow
def test_criterion_5_phase_transition_signal(lmg_sweep_outcome):
    by_key = {}
    for spec, result in lmg_sweep_outcome.results:
        by_key[(spec.h_field, spec.length)] = result
    peaks = {}
    for (h, length), result in sorted(by_key.items()):
        if h != 0.2:
            continue
        ts = result.temperatures
        c = result.heat_capacity
        interior_maxima = [
            k for k in range(1, len(c) - 1)
            if c[k] > c[k - 1] and c[k] > c[k + 1]
        ]
        assert len(interior_maxima) == 1, \
            f"L={length}: expected a single interior peak, got {interior_maxima}"
        peak = find_peak(ts, c, kind="max")
        assert 0.3 <= peak.location <= 0.6, f"L={length}: peak at {peak.location}"
        peaks[length] = peak.location
    drift = [peaks[length] for length in (12, 16, 20)]
    assert drift[0] <= drift[1] <= drift[2], f"peak drift not monotone: {drift}"
    for length in (12, 16, 20):
        sharp = by_key[(0.2, length)].heat_capacity.max()
        smooth = by_key[(1.2, length)].heat_capacity.max()
        assert sharp / smooth > 1.5, \
            f"L={length}: peak height ratio {sharp / smooth:.2f}"
    # synthetic exactness of the analysis chain
    t_c, a = 0.437, 2.1
    sizes = (40, 60, 80)
    est = extrapolate_tc(sizes, [t_c + a / length for length in sizes])
    assert est.t_c == pytest.approx(t_c, abs=1e-10)
    grid = np.arange(0.1, 1.05, 0.1)
    synthetic = find_peak(grid, -(grid - 0.437) ** 2)
    assert synthetic.location == pytest.approx(0.437, abs=1e-10)
    print(f"\nACCEPTANCE 5 (LMG peak drift, L=12/16/20): PASS "
          f"(peaks {drift}, toward T_c(0.2)={exact_tc(0.2):.3f})")


def test_criterion_6_efficiency_counters(tmp_path):
    cfg = RunConfig(
        family="ising",
        lengths=(6,),
        j_coupling=1.0,
        g_field=0.0,  # spin-flip symmetric instance
        tmin=0.1, tmax=1.0, tstep=0.1,
        k_max=30, d_max=exact_bond_cap(6),
        outputs=("s", "c", "F_T", "D_T", "Czz"),
        czz_pairs=((2, 3), (2, 5)),
        czz_symmetry="spin-flip",
        out_path=str(tmp_path / "eff.csv"),
    )
    assert cfg.temperatures().shape == (10,)
    outcome = run_sweep(cfg)
    for _, result in outcome.results:
        _register(result)
    assert outcome.stats.identity_runs == 0, outcome.stats
    assert outcome.stats.projector_runs <= 2 * len(cfg.czz_pairs), outcome.stats
    print(f"\nACCEPTANCE 6 (efficiency: {outcome.stats.identity_runs} identity, "
          f"{outcome.stats.projector_runs} projector runs for "
          f"{len(cfg.czz_pairs)} correlators): PASS")


def test_criterion_7_bounds_suite(ising8_case, lmg8_cases):
    ln2 = math.log(2.0)
    assert BOUNDS_REGISTRY, "no sweeps were registered"
    for result in BOUNDS_REGISTRY:
        assert np.all(result.entropy >= -1e-8)
        assert np.all(result.entropy <= ln2 + 1e-8)
        assert np.all(result.heat_capacity >= -1e-8)
        assert np.all(result.fidelity >= 0.0)
        assert np.all(result.fidelity <= 1.0 + 1e-8)
        assert np.all(result.trace_distance >= 0.0)
        assert np.all(result.trace_distance <= 2.0 + 1e-8)
    length = 6
    h = ising_mpo(length, 1.0, 1.0)
    run = run_lanczos(h, identity_block(length),
                      LanczosConfig(k_max=30, d_max=exact_bond_cap(length)))
    for beta in (0.5, 1.0, 5.0):
        fid, dist = pair_observables(run, [beta], [beta])
        assert fid[0] == 1.0
        assert dist[0] == 0.0
    print(f"\nACCEPTANCE 7 (bounds over {len(BOUNDS_REGISTRY)} sweeps, "
          "F_T(b,b)=1, D_T(b,b)=0): PASS")


def test_criterion_8_determinism_and_cache(tmp_path):
    def config(out, cache=None):
        return RunConfig(
            family="ising",
            lengths=(5,),
            j_coupling=1.0,
            g_field=1.0,
            tmin=0.2, tmax=1.0, tstep=0.2,
            k_max=24, d_max=exact_bond_cap(5),
            out_path=str(out),
            cache_dir=str(cache) if cache else None,
        )

    run_sweep(config(tmp_path / "one.csv"))
    run_sweep(config(tmp_path / "two.csv"))
    assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()
    cache = tmp_path / "cache"
    cold = run_sweep(config(tmp_path / "cold.csv", cache))
    warm = run_sweep(config(tmp_path / "warm.csv", cache))
    assert cold.stats.identity_runs == 1 and cold.stats.cache_hits == 0
    assert warm.stats.identity_runs == 0 and warm.stats.cache_hits == 1
    assert (tmp_path / "cold.csv").read_bytes() == (tmp_path / "warm.csv").read_bytes()
    assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "cold.csv").read_bytes()
    print("\nACCEPTANCE 8 (byte-identical repeated and cached sweeps): PASS")
