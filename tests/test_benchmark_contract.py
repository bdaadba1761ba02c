"""What the benchmark in ``perfbench/`` uses of the package still exists.

``perfbench/run.py --smoke`` checks this end to end but takes minutes and is
marked slow. This quick check only imports the benchmark's own modules (it
never edits them): every layer function the tracer wraps resolves, and every
workload builds sweep points that validate and answer what ``run.py`` asks
of them, and the compressions inside capped products and sums stay visible to
the tracer.
"""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
from helpers import random_graded_mpo

import mpotrace
import mpotrace.cli  # noqa: F401  (the tracer wraps cli functions)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    qualified = f"perfbench_{name}"
    if qualified not in sys.modules:  # dataclasses look their module up there
        spec = importlib.util.spec_from_file_location(qualified, PERFBENCH / f"{name}.py")
        sys.modules[qualified] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[qualified])
    return sys.modules[qualified]


def test_every_traced_name_resolves():
    for module_name, names in _load("tracing").TRACED.items():
        module = getattr(mpotrace, module_name)
        for name in names:
            assert callable(getattr(module, name)), f"{module_name}.{name}"


@pytest.mark.parametrize("seed,small", [(0, False), (1, False), (0, True)])
def test_every_workload_builds_valid_points(tmp_path, seed, small):
    for build in _load("workloads").WORKLOADS.values():
        workload = build(seed, small=small)
        configs = workload.points + workload.probe + ([workload.fill] if workload.fill else [])
        assert workload.points
        for cfg in configs:
            # the fields run.py's set-up replaces per run
            dataclasses.replace(cfg, out_path=str(tmp_path / "x.csv"), cache_dir=None,
                                workers=1).validate()
            assert cfg.temperatures().size > 0
            assert cfg.effective_delta_t() > 0
            assert cfg.model_specs()


def test_capped_products_and_sums_are_traced_compressions():
    # lanczos' compressions all happen inside capped multiply and add calls,
    # whose input compress builds one site at a time and never holds whole
    length, bond = 12, 60
    rng = np.random.default_rng(0)
    a = mpotrace.lmg_mpo(length, 0.2)
    u = random_graded_mpo(rng, length, bond, complex_entries=False)
    v = random_graded_mpo(rng, length, bond, complex_entries=False)
    mpo = mpotrace.mpo
    for call, args, bond_in in ((mpo.multiply, (a, u), 3 * bond), (mpo.add, (u, v), 2 * bond)):
        with _load("tracing").Tracer(mpotrace) as tracer:
            call(*args, bond)
        assert tracer.stats["mpo.compress.calls"] == 1
        # the hook reads the input's bonds after compress has run
        assert tracer.stats["mpo.compress.bond_in_max"] == bond_in
        # discarded_rel's base is the weight of the operator that was never built
        exact, _ = call(*args)
        assert tracer.stats["mpo.compress.weight_in"] == \
            pytest.approx(mpotrace.frobenius_norm(exact) ** 2, rel=1e-10)


@pytest.mark.parametrize("k_max", [5, 12])
def test_a_traced_run_is_its_step_compressions_and_three_norms(k_max):
    # a Lanczos step is one compression and nothing else; the only norms are
    # the start's and the two of the Hermiticity check, at any K
    length = 8
    with _load("tracing").Tracer(mpotrace) as tracer:
        run = mpotrace.lanczos.run_lanczos(mpotrace.ising_mpo(length, 1.0, 1.0),
                                           mpotrace.identity_block(length),
                                           mpotrace.LanczosConfig(k_max, 32))
    assert run.projection.k == k_max
    assert tracer.stats["mpo.compress.calls"] == k_max + 1
    assert tracer.stats["mpo.frobenius_norm.calls"] == 3
    assert tracer.stats["mpo.inner_product.calls"] == 3
