"""What the benchmark in ``perfbench/`` uses of the package still exists.

``perfbench/run.py --smoke`` checks this end to end but takes minutes and is
marked slow. This quick check only imports the benchmark's own modules (it
never edits them): every layer function the tracer wraps resolves, and every
workload builds sweep points that validate and answer what ``run.py`` asks
of them.
"""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import pytest

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
