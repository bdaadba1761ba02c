import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mpotrace import cli
from mpotrace.cli import (
    CacheMismatchError,
    ConfigError,
    PeakOnBoundaryError,
    RunConfig,
    build_run_config,
    exact_tc,
    extrapolate_tc,
    find_peak,
    parse_config_file,
    run_sweep,
)


def small_config(tmp_path, **overrides):
    base = dict(
        family="ising",
        lengths=(4,),
        j_coupling=1.0,
        g_field=1.0,
        tmin=0.2,
        tmax=1.0,
        tstep=0.1,
        k_max=20,
        d_max=16,
        out_path=str(tmp_path / "sweep.csv"),
    )
    base.update(overrides)
    return RunConfig(**base)


def test_temperature_grid_point_count(tmp_path):
    cfg = small_config(tmp_path)
    temps = cfg.temperatures()
    assert temps.shape == (9,)
    assert temps[0] == pytest.approx(0.2)
    assert temps[-1] == pytest.approx(1.0)


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(
        "[model]\n"
        "family = lmg\n"
        "L = 4,6\n"
        "h = 0.2\n"
        "\n"
        "[grid]\n"
        "tmin = 0.2\n"
        "tmax = 0.8\n"
        "tstep = 0.2\n"
        "\n"
        "[lanczos]\n"
        "kmax = 12\n"
        "dmax = 8\n"
        "\n"
        "[output]\n"
        "quantities = s,c\n"
        "path = out.csv\n"
    )
    cfg = build_run_config(parse_config_file(path))
    assert cfg.family == "lmg"
    assert cfg.lengths == (4, 6)
    assert cfg.h_fields == (0.2,)
    assert cfg.k_max == 12
    assert cfg.outputs == ("s", "c")
    assert cfg.out_path == "out.csv"


def test_config_file_unknown_key(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[model]\nfamily = ising\nL = 4\nbogus = 1\n")
    with pytest.raises(ConfigError, match="bogus"):
        parse_config_file(path)


def test_config_file_missing(tmp_path):
    with pytest.raises(ConfigError):
        parse_config_file(tmp_path / "absent.ini")


def test_flags_override_file(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(
        "[model]\nfamily = ising\nL = 4\nJ = 1\ng = 1\n"
        "[output]\nquantities = s\npath = a.csv\n")

    class Args:
        pass

    args = Args()
    for name in ("model", "L", "J", "g", "h", "tmin", "tmax", "tstep", "delta_t",
                 "kmax", "dmax", "outputs",
                 "czz", "czz_symmetry", "out", "cache", "workers"):
        setattr(args, name, None)
    args.dmax = 32
    args.out = "b.csv"
    cfg = build_run_config(parse_config_file(path), args)
    assert cfg.d_max == 32
    assert cfg.out_path == "b.csv"


def test_empty_outputs_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="quantities"):
        small_config(tmp_path, outputs=()).validate()


def test_czz_without_pairs_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="pairs"):
        small_config(tmp_path, outputs=("s", "Czz")).validate()


def test_run_sweep_matches_oracle_and_schema(tmp_path):
    from mpotrace import BetaGrid, exact_observables, exact_spectrum, ising_mpo
    cfg = small_config(tmp_path, lengths=(5,), k_max=32, d_max=16)
    outcome = run_sweep(cfg)
    assert outcome.stats.identity_runs == 1
    assert outcome.stats.projector_runs == 0
    text = Path(outcome.csv_path).read_text().splitlines()
    assert text[0] == "model,L,param,T,logZ,energy_density,s,c,F_T,D_T"
    assert len(text) == 1 + 9
    first = text[1].split(",")
    assert first[0] == "ising" and first[1] == "5" and first[2] == "J=1.0;g=1.0"
    spectrum = exact_spectrum(ising_mpo(5, 1.0, 1.0))
    grid = BetaGrid.from_temperatures(cfg.temperatures(), cfg.effective_delta_t())
    want = exact_observables(spectrum, grid)
    _, result = outcome.results[0]
    for name in ("log_z", "entropy", "heat_capacity", "fidelity", "trace_distance"):
        got = getattr(result, name)
        ref = getattr(want, name)
        assert np.max(np.abs(got - ref) / np.maximum(np.abs(ref), 1e-12)) <= 1e-6


def test_csv_reports_the_requested_temperatures(tmp_path):
    # 1/(1/T) is not T for every T; the grid must not round-trip through beta
    cfg = small_config(tmp_path, lengths=(3,), tmin=0.1, tmax=2.0, tstep=0.001,
                       k_max=8, d_max=8)
    run_sweep(cfg)
    rows = Path(cfg.out_path).read_text().splitlines()[1:]
    want = [format(t, ".17g") for t in cfg.temperatures()]
    assert len(want) == 1901
    assert [row.split(",")[3] for row in rows] == want


def test_run_sweep_deterministic(tmp_path):
    cfg_a = small_config(tmp_path, out_path=str(tmp_path / "a.csv"))
    cfg_b = small_config(tmp_path, out_path=str(tmp_path / "b.csv"))
    run_sweep(cfg_a)
    run_sweep(cfg_b)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_run_sweep_cache_round_trip(tmp_path):
    cache = str(tmp_path / "cache")
    cfg_cold = small_config(tmp_path, out_path=str(tmp_path / "cold.csv"), cache_dir=cache)
    cold = run_sweep(cfg_cold)
    assert cold.stats.identity_runs == 1
    assert cold.stats.cache_hits == 0
    cfg_warm = small_config(tmp_path, out_path=str(tmp_path / "warm.csv"), cache_dir=cache)
    warm = run_sweep(cfg_warm)
    assert warm.stats.identity_runs == 0
    assert warm.stats.cache_hits == 1
    assert (tmp_path / "cold.csv").read_bytes() == (tmp_path / "warm.csv").read_bytes()


def test_cache_version_mismatch_is_fatal(tmp_path):
    from mpotrace import identity_block, run_lanczos, save_run
    cache = tmp_path / "cache"
    cache.mkdir()
    cfg = small_config(tmp_path, cache_dir=str(cache))
    lcfg = cfg.lanczos_config()
    spec = cfg.model_specs()[0]
    key = cli._cache_key(spec.label(), "identity", lcfg)
    run = run_lanczos(spec.build(), identity_block(spec.length), lcfg, spec.label())
    save_run(run, cli._cache_path(str(cache), key),
             extra_header={"cache_version": -1, "cache_key": key})
    with pytest.raises(CacheMismatchError):
        run_sweep(cfg)


def test_sweep_with_correlators_counts_runs(tmp_path):
    cfg = small_config(
        tmp_path,
        g_field=0.0,  # spin-flip symmetric
        outputs=("s", "c", "F_T", "D_T", "Czz"),
        czz_pairs=((1, 2), (1, 4)),
        czz_symmetry="spin-flip",
        k_max=12,
    )
    outcome = run_sweep(cfg)
    assert outcome.stats.identity_runs == 1
    assert outcome.stats.projector_runs == 2 * len(cfg.czz_pairs)
    header = Path(outcome.csv_path).read_text().splitlines()[0].strip()
    assert header.endswith("F_T,D_T,Czz_1_2,Czz_1_4")


def test_run_sweep_parallel_workers_match_serial(tmp_path):
    cfg_serial = small_config(tmp_path, lengths=(4, 5), out_path=str(tmp_path / "s.csv"))
    cfg_parallel = small_config(tmp_path, lengths=(4, 5), out_path=str(tmp_path / "p.csv"),
                                workers=2)
    run_sweep(cfg_serial)
    run_sweep(cfg_parallel)
    assert (tmp_path / "s.csv").read_bytes() == (tmp_path / "p.csv").read_bytes()


def test_find_peak_quadratic_exact():
    ts = np.arange(0.1, 1.05, 0.1)
    peak = find_peak(ts, -(ts - 0.5) ** 2, kind="max")
    assert peak.location == pytest.approx(0.5, abs=1e-12)
    assert peak.uncertainty == pytest.approx(0.05)
    dip = find_peak(ts, (ts - 0.5) ** 2, kind="min")
    assert dip.location == pytest.approx(0.5, abs=1e-12)


def test_find_peak_boundary_is_error():
    ts = np.arange(0.1, 1.05, 0.1)
    with pytest.raises(PeakOnBoundaryError):
        find_peak(ts, ts, kind="max")  # monotone series
    with pytest.raises(ValueError):
        find_peak([0.1, 0.2], [1.0, 2.0])


def test_extrapolate_tc_exact_on_synthetic_data():
    t_c, a = 0.47, 1.3
    sizes = [40, 60, 80]
    peaks = [t_c + a / length for length in sizes]
    est = extrapolate_tc(sizes, peaks)
    assert est.t_c == pytest.approx(t_c, abs=1e-10)
    assert est.uncertainty == pytest.approx(0.0, abs=1e-10)
    two = extrapolate_tc(sizes[:2], peaks[:2])
    assert two.t_c == pytest.approx(t_c, abs=1e-10)
    assert math.isnan(two.uncertainty)
    with pytest.raises(ValueError):
        extrapolate_tc([40], [0.5])


def test_exact_tc_values():
    assert exact_tc(0.2) == pytest.approx(0.2 / math.log(1.5), rel=1e-12)
    assert exact_tc(0.2) == pytest.approx(0.49326, abs=1e-5)
    assert exact_tc(0.5) == pytest.approx(0.45512, abs=1e-5)
    assert exact_tc(1e-6) == pytest.approx(0.5, abs=1e-6)
    for bad in (0.0, 1.0, -0.3, 1.7):
        with pytest.raises(ValueError):
            exact_tc(bad)


def test_main_sweep_and_inspect(tmp_path, capsys):
    out = tmp_path / "cli.csv"
    cache = tmp_path / "cache"
    code = cli.main([
        "sweep", "--model", "ising", "--L", "4", "--J", "1", "--g", "1",
        "--tmin", "0.2", "--tmax", "1.0", "--tstep", "0.2",
        "--kmax", "16", "--dmax", "16",
        "--out", str(out), "--cache", str(cache),
    ])
    assert code == 0
    assert out.exists()
    runs = sorted(cache.glob("*.lrun"))
    assert len(runs) == 1
    code = cli.main(["inspect-run", str(runs[0])])
    assert code == 0
    captured = capsys.readouterr().out
    assert "beta1: 4" in captured
    assert "nodes:" in captured


_COLD_START = """
import glob, os, sys
import numpy
before = set(sys.modules)
from mpotrace import cli
cache = os.path.join(sys.argv[1], "cache")
argv = ["sweep", "--model", "ising", "--L", "4", "--J", "1", "--g", "1", "--kmax", "8",
        "--dmax", "8", "--outputs", "s,Czz", "--czz", "1:2", "--cache", cache,
        "--out", os.path.join(sys.argv[1], "x.csv")]
assert cli.main(argv) == 0 and cli.main(argv) == 0  # cold, then warm from the cache
assert cli.main(["inspect-run", sorted(glob.glob(os.path.join(cache, "*.lrun")))[0]]) == 0
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
foreign = sorted(loaded - set(sys.stdlib_module_names) - {"mpotrace"})
assert not foreign, f"loaded beyond numpy and the standard library: {foreign}"
"""


def test_cli_loads_nothing_beyond_numpy(tmp_path):
    """A sweep, a warm sweep and inspect-run import no third-party module but numpy.

    Importing scipy would more than double the cold start of every command and pool
    worker.
    """
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", _COLD_START, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_main_config_error_exit_code(tmp_path, capsys):
    code = cli.main(["sweep", "--model", "ising", "--L", "4",
                     "--outputs", "", "--out", str(tmp_path / "x.csv")])
    assert code == 2


def test_main_cache_mismatch_exit_code(tmp_path):
    from mpotrace import identity_block, run_lanczos, save_run
    cache = tmp_path / "cache"
    cache.mkdir()
    args = ["sweep", "--model", "ising", "--L", "4", "--J", "1", "--g", "1",
            "--kmax", "8", "--dmax", "8",
            "--out", str(tmp_path / "y.csv"), "--cache", str(cache)]
    cfg = build_run_config({}, cli.build_parser().parse_args(args))
    lcfg = cfg.lanczos_config()
    spec = cfg.model_specs()[0]
    key = cli._cache_key(spec.label(), "identity", lcfg)
    run = run_lanczos(spec.build(), identity_block(spec.length), lcfg, spec.label())
    save_run(run, cli._cache_path(str(cache), key),
             extra_header={"cache_version": -1, "cache_key": key})
    assert cli.main(args) == 4


def test_main_zero_flag_is_config_error(tmp_path):
    code = cli.main(["sweep", "--model", "ising", "--L", "4", "--kmax", "0",
                     "--out", str(tmp_path / "x.csv")])
    assert code == 2


def test_main_bad_ini_value_is_config_error(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[model]\nfamily = ising\nL = 4\nJ = abc\n")
    code = cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "x.csv")])
    assert code == 2


# L=12 lies beyond dense sizes; small K and D keep the sweep cheap.
_LONG_SPIN_FLIP = ["--L", "12", "--J", "1", "--czz-symmetry", "spin-flip", "--kmax", "12",
                   "--dmax", "8", "--tmin", "1", "--tmax", "1", "--tstep", "1"]


@pytest.mark.parametrize("flags", [
    ["--czz", "2:2"],  # a pair needs two sites
    ["--czz", "1:9"],  # site outside 1..L
    ["--J", "nan"],
    ["--g", "inf"],
    ["--g", "1", "--czz-symmetry", "spin-flip"],  # g*sz breaks the spin flip
    [*_LONG_SPIN_FLIP, "--g", "1"],  # the same beyond dense sizes
    ["--reorthogonalize"],  # a removed setting, not ignored
    ["--breakdown-tol", "1e-10"],  # likewise
    ["--h", "0.5"],  # the LMG field would be dropped for ising
    ["--model", "lmg", "--h", "0.2", "--g", "0.3"],  # the Ising field would be dropped
    ["--model", "lmg", "--h", "0.2", "--J", "1"],
    ["--L", "4,4,6"],  # the L=4 block would be written twice
    ["--model", "lmg", "--h", "0.5,0.5"],
    ["--czz", "1:2,1:2,2:1"],  # the same column three times
    ["--czz", "1:2,2:1"],  # C_zz(1, 2) = C_zz(2, 1)
    ["--outputs", "s"],  # the pair would be dropped
    ["--outputs", "s", "--czz", "", "--czz-symmetry", "spin-flip"],  # likewise the mode
], ids=["czz-same-site", "czz-out-of-range", "J-nan", "g-inf", "czz-spin-flip-broken",
        "czz-spin-flip-broken-L12", "reorthogonalize-flag", "breakdown-tol-flag",
        "ising-with-h", "lmg-with-g", "lmg-with-J", "L-repeated", "h-repeated",
        "czz-repeated", "czz-reversed", "czz-without-Czz", "spin-flip-without-Czz"])
def test_main_bad_sweep_input_is_config_error(tmp_path, capsys, flags):
    code = cli.main(["sweep", "--model", "ising", "--L", "4", "--outputs", "s,Czz",
                     "--czz", "1:2", *flags, "--out", str(tmp_path / "x.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("flags", [
    ["--model", "lmg", "--h", "1e308"],  # left alone, a nan would reach the SVD
    ["--model", "lmg", "--h", "1e160"],  # overflows in an inner product
    ["--model", "lmg", "--h", "1e150"],  # overflows only in F_T's exponential
    ["--model", "ising", "--J", "1e308"],
    ["--model", "ising", "--J", "1e308", "--workers", "2", "--outputs", "s,Czz",
     "--czz", "1:2"],  # the runs fail in pool workers
], ids=["lmg-h-1e308", "lmg-h-1e160", "lmg-h-1e150", "ising-J-1e308", "ising-J-1e308-pool"])
def test_main_coupling_near_the_float_range_is_numerical_failure(tmp_path, capsys, flags):
    code = cli.main(["sweep", "--L", "4", *flags, "--tmin", "0.1", "--tmax", "0.5",
                     "--tstep", "0.2", "--kmax", "8", "--dmax", "8",
                     "--out", str(tmp_path / "x.csv")])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("numerical failure:")
    assert len(captured.err.splitlines()) == 1
    assert "Traceback" not in captured.out + captured.err


def test_main_spin_flip_symmetric_long_chain(tmp_path):
    out = tmp_path / "x.csv"
    assert cli.main(["sweep", "--model", "ising", "--outputs", "s,Czz", "--czz", "1:2",
                     *_LONG_SPIN_FLIP, "--g", "0", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0].endswith(",Czz_1_2")


def _truncated_run_file(tmp_path):
    from mpotrace import LanczosConfig, identity_block, ising_mpo, run_lanczos, save_run
    path = tmp_path / "cut.lrun"
    save_run(run_lanczos(ising_mpo(4, 1.0, 1.0), identity_block(4),
                         LanczosConfig(k_max=4, d_max=8)), path)
    path.write_bytes(path.read_bytes()[:-5])
    return path


def _csv_file(tmp_path, text):
    path = tmp_path / "in.csv"
    path.write_text(text)
    return str(path)


# c(T) of two sizes with interior peaks: on its own, tc extrapolates from it.
_PEAKS_CSV = "model,L,param,T,c\n" + "".join(
    f"lmg,{length},h=0.5,{t},{1 - (t - 0.3 - 1 / length) ** 2}\n"
    for length in (6, 8) for t in (0.2, 0.3, 0.4, 0.5, 0.6))


def _ini_sweep(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text)
    return ["sweep", "--config", str(path), "--out", str(tmp_path / "x.csv")]


@pytest.mark.parametrize("argv", [
    lambda tmp: ["exact", "--model", "ising", "--L", "14", "--J", "1", "--g", "1",
                 "--out", str(tmp / "b.csv")],  # above the dense-oracle guard
    lambda tmp: ["tc", str(tmp / "missing.csv")],
    lambda tmp: ["tc", _csv_file(tmp, "L,param,T,c\n4,h=0.2,0.1,1\n")],
    lambda tmp: ["tc", _csv_file(tmp, "model,L,param,T,c\nlmg,4,h=0.2,abc,1\n")],
    lambda tmp: ["inspect-run", str(tmp / "missing.lrun")],
    lambda tmp: ["inspect-run", str(_truncated_run_file(tmp))],
    lambda tmp: _ini_sweep(tmp, "[model]\nfamily = ising\nfamily = lmg\nL = 4\n"),
    lambda tmp: _ini_sweep(tmp, "family = ising\nL = 4\n"),
    lambda tmp: _ini_sweep(tmp, "[model]\nfamily = ising\nL = 4\n"
                                "[lanczos]\nreorthogonalize = true\n"),  # a removed key
    lambda tmp: ["sweep", "--model", "ising", "--L", "4", "--J", "1", "--g", "1",
                 "--out", str(tmp / "no" / "such" / "x.csv")],  # rejected before any run
    lambda tmp: ["sweep", "--model", "ising", "--L", "4", "--J", "1", "--g", "1",
                 "--out", str(tmp)],  # a directory, not a file
    lambda tmp: ["sweep", "--model", "ising", "--L", "4", "--J", "1", "--g", "1",
                 "--cache", _csv_file(tmp, ""), "--out", str(tmp / "x.csv")],
    lambda tmp: ["exact", "--model", "ising", "--L", "15", "--J", "1", "--g", "1",
                 "--guard", "16", "--out", str(tmp / "x.csv")],  # no 2^15 matrix is built
    lambda tmp: _ini_sweep(tmp, "[model]\nfamily = ising\nL = 4\n"
                                "[lanczos]\nbreakdown_tol = 1e-10\n"),  # a removed key
    lambda tmp: ["tc", *[_csv_file(tmp, _PEAKS_CSV)] * 2],  # every T twice
    lambda tmp: ["tc", _csv_file(tmp, _PEAKS_CSV + "lmg,8,h=0.5,0.25,nan\n")],
    lambda tmp: ["tc", _csv_file(tmp, _PEAKS_CSV + "lmg,8,h=0.5,inf,0.5\n")],
    lambda tmp: ["tc", _csv_file(tmp, "model,L,param,T,c\n")],
], ids=["exact-over-guard", "tc-missing-csv", "tc-csv-without-model", "tc-csv-bad-number",
        "inspect-missing-run", "inspect-truncated-run", "ini-repeated-key",
        "ini-no-section-header", "ini-reorthogonalize-key", "sweep-out-dir-missing",
        "sweep-out-is-dir", "sweep-cache-is-file", "exact-guard-above-limit",
        "ini-breakdown-tol-key", "tc-csv-repeated-rows", "tc-csv-nan-value", "tc-csv-inf-T",
        "tc-csv-no-rows"])
def test_main_bad_input_file_or_size_is_config_error(tmp_path, capsys, argv):
    assert cli.main(argv(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and len(err.splitlines()) == 1


def test_main_truncated_cached_run_exit_code(tmp_path):
    cache = tmp_path / "cache"
    args = ["sweep", "--model", "ising", "--L", "4", "--J", "1", "--g", "1",
            "--kmax", "8", "--dmax", "8",
            "--out", str(tmp_path / "y.csv"), "--cache", str(cache)]
    assert cli.main(args) == 0
    [path] = cache.glob("*.lrun")
    data = path.read_bytes()
    (blob_len,) = struct.unpack("<I", data[8:12])
    path.write_bytes(data[:12 + blob_len + 3])
    assert cli.main(args) == 4


def test_run_sweep_plans_distinct_runs(tmp_path):
    cache = str(tmp_path / "cache")

    def config(out):
        return small_config(tmp_path, outputs=("s", "Czz"), czz_pairs=((1, 2), (1, 3)),
                            k_max=12, out_path=str(tmp_path / out), cache_dir=cache)

    cold = run_sweep(config("cold.csv"))
    # one identity run; P0/P1 on site 1 are shared by both pairs: 2 * 2 + 3 * 2
    assert (cold.stats.identity_runs, cold.stats.projector_runs) == (1, 10)
    assert cold.stats.cache_hits == 0
    warm = run_sweep(config("warm.csv"))
    assert (warm.stats.identity_runs, warm.stats.projector_runs) == (0, 0)
    assert warm.stats.cache_hits == 11
    assert (tmp_path / "cold.csv").read_bytes() == (tmp_path / "warm.csv").read_bytes()


def test_exact_subcommand_agrees_with_sweep(tmp_path):
    shared = ["--model", "ising", "--L", "4", "--J", "1", "--g", "0.6",
              "--tmin", "0.25", "--tmax", "1.0", "--tstep", "0.25"]
    sweep_csv = tmp_path / "sweep.csv"
    exact_csv = tmp_path / "exact.csv"
    assert cli.main(["sweep", *shared, "--kmax", "24", "--dmax", "16",
                     "--out", str(sweep_csv)]) == 0
    assert cli.main(["exact", *shared, "--out", str(exact_csv)]) == 0
    got = sweep_csv.read_text().splitlines()
    want = exact_csv.read_text().splitlines()
    assert got[0] == want[0]
    for line_got, line_want in zip(got[1:], want[1:]):
        cells_got = line_got.split(",")
        cells_want = line_want.split(",")
        assert cells_got[:3] == cells_want[:3]
        for a, b in zip(cells_got[3:], cells_want[3:]):
            assert float(a) == pytest.approx(float(b), rel=1e-6, abs=1e-9)


def test_tc_subcommand(tmp_path, capsys):
    # synthetic heat-capacity peaks drifting like T_c + a/L
    t_c, a = 0.47, 1.1
    lines = ["model,L,param,T,logZ,energy_density,s,c,F_T,D_T"]
    for length in (20, 40, 80):
        peak_at = t_c + a / length
        for t in np.arange(0.1, 1.05, 0.05):
            c = 1.0 - (t - peak_at) ** 2
            lines.append(f"lmg,{length},h=0.2,{t:.17g},0,0,0,{c:.17g},1,0")
    path = tmp_path / "peaks.csv"
    path.write_text("\n".join(lines) + "\n")
    assert cli.main(["tc", str(path), "--observable", "c"]) == 0
    out = capsys.readouterr().out
    assert "extrapolated T_c" in out
    assert "closed-form T_c" in out
    line = [l for l in out.splitlines() if l.startswith("extrapolated")][0]
    value = float(line.split("=")[1].split("+-")[0])
    assert value == pytest.approx(t_c, abs=2e-3)


def test_tc_subcommand_skips_a_series_of_fewer_than_3_temperatures(tmp_path, capsys):
    path = tmp_path / "one.csv"
    path.write_text("model,L,param,T,logZ,energy_density,s,c,F_T,D_T\n"
                    "ising,4,J=1.0;g=1.0,0.5,0,0,0,0.3,1,0\n")
    code = cli.main(["tc", str(path)])
    captured = capsys.readouterr()
    assert code == 3
    assert "L=4: fewer than 3 temperatures; skipped" in captured.out.splitlines()
    assert "Traceback" not in captured.out + captured.err


def test_tc_subcommand_boundary_reported(tmp_path, capsys):
    lines = ["model,L,param,T,logZ,energy_density,s,c,F_T,D_T"]
    for t in np.arange(0.1, 1.05, 0.1):
        lines.append(f"ising,8,J=1.0;g=1.0,{t:.17g},0,0,0,{t:.17g},1,0")
    path = tmp_path / "mono.csv"
    path.write_text("\n".join(lines) + "\n")
    code = cli.main(["tc", str(path)])
    out = capsys.readouterr().out
    assert "boundary" in out
    assert code == 3
