"""Benchmark workloads: lists of sweep points, each one ``cli.run_sweep`` call.

Seed 0 gives the nominal inputs; any other seed scales each coupling the
workload varies (LMG h, Ising g) by an independent factor in
[1 - JITTER, 1 + JITTER], so a claim can be rechecked on inputs it was not
tuned on. The same seed always gives the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from mpotrace.cli import RunConfig

# LMG fields that fail today with "entropy density out of [0, ln 2]" at
# L=8, D=24, K=40 (truncation artefacts). Workload operations must not fail,
# so lmg_fields_warm sweeps fields below them and runs these once per
# invocation, untimed, to keep the defect visible.
KNOWN_FAILING_FIELDS = (1.25, 1.45, 1.50)
# Truncation error moves with the couplings by about 12% across a +-1% jitter;
# +-0.25% keeps the error metrics' seed-to-seed spread well inside their bounds.
JITTER = 0.0025


@dataclass
class Workload:
    """Sweep points of one workload and how the benchmark prepares them."""

    name: str
    points: list  # RunConfig per sweep point; paths are filled in per run
    speed_kernel: str = "dense"  # speed-probe kernel shaped like the dominant layer
    fill: RunConfig = None  # set-up sweep that fills the run cache the points read
    probe: list = field(default_factory=list)  # untimed known-defect points


def _jitter(rng, value):
    return value if rng is None else float(value * rng.uniform(1 - JITTER, 1 + JITTER))


def _rng(seed):
    return None if seed == 0 else np.random.default_rng(seed)


def lmg_sweep(seed, small=False):
    # The single-threaded kernel baseline: one identity run at the ROADMAP's
    # L=20 bond sizes (compress at bond 180). At L=10 this run is exact to
    # roundoff, so L=12 is the smallest size whose truncation error shows.
    rng = _rng(seed)
    length, d_max, k_max, tstep = (6, 64, 20, 0.25) if small else (12, 60, 70, 0.05)
    cfg = RunConfig(family="lmg", lengths=(length,), h_fields=(_jitter(rng, 0.2),),
                    tmin=0.1, tmax=1.0, tstep=tstep, k_max=k_max, d_max=d_max)
    return Workload("lmg_sweep", [cfg])


def ising_czz(seed, small=False):
    # Correlators request many overlapping projector runs inside one sweep point:
    # 19 requested, 15 distinct. A run planner and the pool show up here.
    rng = _rng(seed)
    if small:
        length, d_max, k_max, pairs = 6, 64, 20, ((3, 4), (3, 5))
    else:
        length, d_max, k_max, pairs = 10, 32, 40, ((5, 6), (5, 7), (5, 8))
    cfg = RunConfig(family="ising", lengths=(length,), j_coupling=1.0,
                    g_field=_jitter(rng, 1.0), tmin=0.1, tmax=1.0, tstep=0.9,
                    k_max=k_max, d_max=d_max,
                    outputs=("s", "c", "F_T", "D_T", "Czz"), czz_pairs=pairs,
                    czz_symmetry="none", workers=2)
    return Workload("ising_czz", [cfg])


def lmg_fields_warm(seed, small=False):
    # Re-running a sweep on a finer temperature grid from a filled run cache:
    # cache reads, thermal evaluation on 1901 temperatures and CSV writes.
    rng = _rng(seed)
    if small:
        length, d_max, k_max, fields, tstep = 6, 64, 20, (0.3, 0.6, 0.9), 0.1
    else:
        length, d_max, k_max, tstep = 8, 24, 40, 0.001
        fields = tuple(0.04 * (k + 1) for k in range(30))
    base = RunConfig(family="lmg", lengths=(length,), h_fields=(1.0,),
                     tmin=0.1, tmax=2.0, tstep=tstep, k_max=k_max, d_max=d_max)
    fields = [round(_jitter(rng, h), 12) for h in fields]
    points = [replace(base, h_fields=(h,)) for h in fields]
    # The user's first sweep: every field in one call, coarse grid, two workers.
    fill = replace(base, h_fields=tuple(fields), tstep=0.1, workers=2)
    probe_base = replace(base, lengths=(8,), k_max=40, d_max=24)
    probe = [replace(probe_base, h_fields=(h,))
             for h in KNOWN_FAILING_FIELDS[:1 if small else None]]
    return Workload("lmg_fields_warm", points, speed_kernel="small", fill=fill, probe=probe)


WORKLOADS = {w.__name__: w for w in (lmg_sweep, ising_czz, lmg_fields_warm)}
