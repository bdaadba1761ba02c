"""Trace functions of Hermitian matrix product operators via global Lanczos
quadrature, applied to thermal observables of spin chains."""

from .mpo import (
    CompressionReport,
    Mpo,
    add,
    compress,
    dagger,
    exact_bond_cap,
    frobenius_norm,
    inner_product,
    load_mpo,
    multiply,
    save_mpo,
    scale,
    to_dense,
)
from .models import (
    ModelSpec,
    StartingBlock,
    identity_block,
    ising_mpo,
    lmg_mpo,
    projector_block,
)
from .lanczos import (
    LanczosConfig,
    LanczosRun,
    NumericalError,
    QuadratureRule,
    TridiagonalProjection,
    evaluate,
    load_run,
    run_lanczos,
    save_run,
)
from .thermal import (
    BetaGrid,
    ThermalSweepResult,
    correlation_zz,
    entropy_density,
    expectation,
    pair_observables,
    partition_traces,
    sweep_observables,
    trace_norm,
    zz_blocks,
    zz_from_runs,
)
from .oracle import DenseSpectrum, exact_observables, exact_spectrum

__version__ = "0.1.0"
