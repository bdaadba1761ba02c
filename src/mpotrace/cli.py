"""Batch driver: config parsing, cached Lanczos runs, temperature sweeps,
CSV output and critical-temperature analysis.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 cache mismatch.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import configparser
import csv
import hashlib
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import lanczos, models, mpo, oracle, thermal
from .lanczos import LanczosConfig, NumericalError
from .models import ModelSpec
from .thermal import BetaGrid

# Cache keys carry only the model label, so a change to what a label builds
# must bump this.
CACHE_VERSION = 4

BASE_COLUMNS = ["model", "L", "param", "T", "logZ", "energy_density", "s", "c", "F_T", "D_T"]
KNOWN_OUTPUTS = ("s", "c", "F_T", "D_T", "Czz")


class ConfigError(ValueError):
    """Invalid configuration file or flag combination."""


class CacheMismatchError(RuntimeError):
    """Cached run does not match the requested configuration."""


class PeakOnBoundaryError(ValueError):
    """The discrete extremum sits on the grid boundary; no refinement possible."""

    def __init__(self, location):
        super().__init__(f"extremum on grid boundary at T={location}")
        self.location = location


@dataclass(frozen=True)
class PeakEstimate:
    """Refined extremum location with an uncertainty."""

    location: float
    uncertainty: float


@dataclass(frozen=True)
class TcEstimate:
    """Extrapolated critical temperature; uncertainty is the change when the
    third-largest size is added to the fit (nan if only two sizes exist)."""

    t_c: float
    uncertainty: float


@dataclass
class RunStats:
    """Distinct Lanczos runs of a sweep: executed (by start) or read from the cache."""

    identity_runs: int = 0
    projector_runs: int = 0
    cache_hits: int = 0


@dataclass(frozen=True)
class RunConfig:
    family: str
    lengths: tuple
    j_coupling: float = 0.0
    g_field: float = 0.0
    h_fields: tuple = ()
    tmin: float = 0.1
    tmax: float = 1.0
    tstep: float = 0.1
    delta_t: float = None
    k_max: int = 70
    d_max: int = 60
    outputs: tuple = ("s", "c", "F_T", "D_T")
    czz_pairs: tuple = ()
    czz_symmetry: str = "none"
    out_path: str = None
    cache_dir: str = None
    workers: int = 1

    def validate(self):
        if self.family not in ("ising", "lmg"):
            raise ConfigError(f"model.family must be ising or lmg, got {self.family!r}")
        if not self.lengths:
            raise ConfigError("model.L must list at least one system size")
        if any(length < 2 for length in self.lengths):
            raise ConfigError("system sizes must be >= 2")
        if self.family == "lmg" and not self.h_fields:
            raise ConfigError("model.h must list at least one field value for lmg")
        if not all(math.isfinite(x) for x in (self.j_coupling, self.g_field, *self.h_fields)):
            raise ConfigError("model couplings J, g and h must be finite")
        # a coupling the family does not read would be silently dropped
        if self.family == "ising" and self.h_fields:
            raise ConfigError("model.h is the lmg field; ising takes J and g")
        if self.family == "lmg" and (self.j_coupling or self.g_field):
            raise ConfigError("model.J and model.g are ising couplings; lmg takes h")
        for name, values in (("model.L", self.lengths), ("model.h", self.h_fields)):
            if len(set(values)) != len(values):
                raise ConfigError(f"{name} lists a value twice: {list(values)}")
        if not (self.tmin > 0 and self.tmax >= self.tmin and self.tstep > 0):
            raise ConfigError("grid requires 0 < tmin <= tmax and tstep > 0")
        if self.delta_t is not None and not self.delta_t > 0:
            raise ConfigError("grid.delta_t must be positive")
        if self.k_max < 1 or self.d_max < 1:
            raise ConfigError("lanczos.kmax and lanczos.dmax must be >= 1")
        if not self.outputs:
            raise ConfigError("output.quantities must not be empty")
        unknown = [o for o in self.outputs if o not in KNOWN_OUTPUTS]
        if unknown:
            raise ConfigError(f"unknown output quantities: {unknown}")
        if "Czz" in self.outputs and not self.czz_pairs:
            raise ConfigError("Czz requested but no site pairs given")
        # correlator settings without Czz would be silently dropped
        if "Czz" not in self.outputs and (self.czz_pairs or self.czz_symmetry != "none"):
            raise ConfigError("output.czz and output.czz_symmetry need Czz among the outputs")
        # a pair twice, in either order, is the same quantity under a repeated column name
        unordered = [frozenset(pair) for pair in self.czz_pairs]
        if len(set(unordered)) != len(unordered):
            raise ConfigError(f"output.czz lists a pair twice: {list(self.czz_pairs)}")
        for i, j in self.czz_pairs:
            if i == j:
                raise ConfigError(f"correlator pair {i}:{j}: sites must differ")
            if not all(1 <= site <= length for site in (i, j) for length in self.lengths):
                raise ConfigError(f"correlator pair {i}:{j}: sites must lie in 1..L "
                                  f"for every L in {list(self.lengths)}")
        if self.czz_symmetry not in ("none", "spin-flip"):
            raise ConfigError("czz_symmetry must be none or spin-flip")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        # paths are checked here so that a bad one fails before any run, not after
        if self.out_path and (os.path.isdir(self.out_path)
                              or not os.path.isdir(os.path.dirname(self.out_path) or ".")):
            raise ConfigError(f"output.path: cannot write a file at {self.out_path!r}")
        if self.cache_dir and os.path.exists(self.cache_dir) and not os.path.isdir(self.cache_dir):
            raise ConfigError(f"output.cache: {self.cache_dir!r} is not a directory")

    def lanczos_config(self):
        return LanczosConfig(self.k_max, self.d_max)

    def model_specs(self):
        specs = []
        for length in sorted(self.lengths):
            if self.family == "ising":
                specs.append(ModelSpec("ising", length,
                                       j_coupling=self.j_coupling, g_field=self.g_field))
            else:
                for h in self.h_fields:
                    specs.append(ModelSpec("lmg", length, h_field=h))
        return specs

    def temperatures(self):
        n = int(math.floor((self.tmax - self.tmin) / self.tstep + 1e-9)) + 1
        return np.array([self.tmin + k * self.tstep for k in range(n)])

    def effective_delta_t(self):
        if self.delta_t is not None:
            return self.delta_t
        return self.tstep


# ---------------------------------------------------------------------------
# configuration file + flags

def _items(text):
    return [x.strip() for x in str(text).split(",") if x.strip()]


def _parse_pair(token):
    bits = token.split(":")
    if len(bits) != 2:
        raise ValueError(token)
    return int(bits[0]), int(bits[1])


# One row per setting: INI key (section.key), flag dest, RunConfig field,
# converter and the kind of value it reads, flag help. The flag is the dest
# with "-" for "_" (delta_t is --delta-t) and takes one value. Flags win over
# the file; a setting given neither way keeps its RunConfig default. A key or
# flag with no row is a config error, never silently ignored.
_SETTINGS = (
    ("model.family", "model", "family", lambda t: str(t).lower(), "text",
     "model family: ising or lmg"),
    ("model.l", "L", "lengths", lambda t: tuple(map(int, _items(t))), "integer list",
     "comma-separated system sizes"),
    ("model.j", "J", "j_coupling", float, "float", "Ising coupling"),
    ("model.g", "g", "g_field", float, "float", "Ising transverse field"),
    ("model.h", "h", "h_fields", lambda t: tuple(map(float, _items(t))), "float list",
     "comma-separated LMG fields"),
    ("grid.tmin", "tmin", "tmin", float, "float", "lowest temperature"),
    ("grid.tmax", "tmax", "tmax", float, "float", "highest temperature"),
    ("grid.tstep", "tstep", "tstep", float, "float", "temperature step"),
    ("grid.delta_t", "delta_t", "delta_t", float, "float",
     "temperature offset for F_T/D_T (default: tstep)"),
    ("lanczos.kmax", "kmax", "k_max", int, "integer", "maximal Krylov dimension"),
    ("lanczos.dmax", "dmax", "d_max", int, "integer", "maximal bond dimension"),
    ("output.quantities", "outputs", "outputs", lambda t: tuple(_items(t)), "text list",
     "comma list from s,c,F_T,D_T,Czz"),
    ("output.czz", "czz", "czz_pairs", lambda t: tuple(map(_parse_pair, _items(t))),
     "i:j pair list", "comma list of site pairs i:j"),
    ("output.czz_symmetry", "czz_symmetry", "czz_symmetry", str, "text",
     "correlator symmetry: none or spin-flip (needs g=0 or h=0, where every C_zz is 0)"),
    ("output.path", "out", "out_path", str, "text", "CSV output path"),
    ("output.cache", "cache", "cache_dir", str, "text", "directory for cached Lanczos runs"),
    ("output.workers", "workers", "workers", int, "integer", "parallel Lanczos-run workers"),
)

_CONFIG_SCHEMA = {}  # section -> its keys
for _section, _, _key in (row[0].partition(".") for row in _SETTINGS):
    _CONFIG_SCHEMA.setdefault(_section, set()).add(_key)


def parse_config_file(path):
    """Read the INI-style run configuration into a plain dict of settings."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        read = parser.read(path)
    except configparser.Error as exc:  # e.g. a repeated key or no section header
        raise ConfigError(" ".join(str(exc).split())) from exc
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    settings = {}
    for section in parser.sections():
        sec = section.lower()
        if sec not in _CONFIG_SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, value in parser.items(section):
            if key not in _CONFIG_SCHEMA[sec]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            settings[f"{sec}.{key}"] = value
    return settings


def build_run_config(settings, args=None):
    """Merge file settings and CLI flags (flags win) into a RunConfig."""
    values = {}
    for key, flag, name, convert, kind, _ in _SETTINGS:
        raw = getattr(args, flag, None)
        if raw is None:
            raw = settings.get(key)
        if raw is not None:
            try:
                values[name] = convert(raw)
            except ValueError as exc:
                raise ConfigError(f"{key}: cannot parse {raw!r} as {kind}") from exc
    if "family" not in values:
        raise ConfigError("model.family is required (use --model or a config file)")
    if "lengths" not in values:
        raise ConfigError("model.L is required")
    cfg = RunConfig(**values)
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# cached Lanczos execution

def _cache_key(model_label, start_label, lcfg):
    return (f"v{CACHE_VERSION}|{model_label}|start={start_label}"
            f"|kmax={lcfg.k_max}|dmax={lcfg.d_max}")


def _cache_path(cache_dir, key):
    digest = hashlib.sha256(key.encode("utf-8")).hexdigest()[:32]
    return os.path.join(cache_dir, f"{digest}.lrun")


def _load_cached(path, key):
    try:
        run, header = lanczos.load_run(path)
    except ValueError as exc:
        raise CacheMismatchError(f"{path}: {exc}") from exc
    if header.get("cache_version") != CACHE_VERSION:
        raise CacheMismatchError(
            f"{path}: cache version {header.get('cache_version')} != {CACHE_VERSION}")
    if header.get("cache_key") != key:
        raise CacheMismatchError(f"{path}: cached key does not match request")
    return run


def _execute(job):
    """Read one planned run from the cache, or execute (and cache) it.

    Runs in a pool worker or in-process; H is rebuilt from its ModelSpec.
    Returns the run and whether it was read from the cache.
    """
    spec, start, lcfg, cache_dir = job
    key = _cache_key(spec.label(), start.label, lcfg)
    path = _cache_path(cache_dir, key) if cache_dir else None
    if path and os.path.exists(path):
        return _load_cached(path, key), True
    run = lanczos.run_lanczos(spec.build(), start, lcfg, spec.label())
    if path:
        os.makedirs(cache_dir, exist_ok=True)
        tmp = f"{path}.tmp.{os.getpid()}"
        lanczos.save_run(run, tmp,
                         extra_header={"cache_version": CACHE_VERSION, "cache_key": key})
        os.replace(tmp, path)
    return run, False


@dataclass
class SweepOutcome:
    results: list  # [(ModelSpec, ThermalSweepResult)]
    stats: RunStats
    csv_path: str = None


def run_sweep(cfg):
    """Execute all sweep points of a configuration and write the CSV.

    Three steps. (1) Plan every Lanczos run of the sweep: one identity-start
    run per sweep point, shared by the whole temperature grid and every
    observable, plus the ``thermal.zz_blocks`` starts of each correlator,
    deduplicated across pairs and points by their cache key. (2) Execute each
    distinct run once, serially or, with ``workers > 1``, on one process pool
    over runs; cached runs are read instead. (3) Evaluate the observables and
    check their bounds in-process. ``stats`` counts distinct runs.
    """
    cfg.validate()
    lcfg = cfg.lanczos_config()
    jobs = {}  # cache key -> (spec, start, lcfg, cache_dir)

    def plan(spec, start):
        key = _cache_key(spec.label(), start.label, lcfg)
        jobs.setdefault(key, (spec, start, lcfg, cfg.cache_dir))
        return key

    points = []  # (spec, identity key, {pair: keys of its runs})
    for spec in cfg.model_specs():
        h = spec.build()
        try:  # the pairs and the mode are validated; only the symmetry check is left
            blocks = {pair: thermal.zz_blocks(h, *pair, cfg.czz_symmetry)
                      for pair in cfg.czz_pairs}
        except ValueError as exc:
            raise ConfigError(f"output.czz_symmetry {cfg.czz_symmetry} "
                              f"for {spec.label()}: {exc}") from exc
        czz = {pair: [plan(spec, start) for start in starts]
               for pair, starts in blocks.items()}
        points.append((spec, plan(spec, models.identity_block(spec.length)), czz))

    if cfg.workers > 1 and len(jobs) > 1:
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=min(cfg.workers, len(jobs))) as pool:
            done = list(pool.map(_execute, jobs.values()))
    else:
        done = [_execute(job) for job in jobs.values()]
    stats = RunStats()
    for run, cached in done:
        if cached:
            stats.cache_hits += 1
        elif run.start_label == "identity":
            stats.identity_runs += 1
        else:
            stats.projector_runs += 1
    runs = dict(zip(jobs, (run for run, _ in done)))

    grid = BetaGrid.from_temperatures(cfg.temperatures(), cfg.effective_delta_t())
    results = []
    for spec, z_key, czz in points:
        z_run = runs[z_key]
        result = thermal.sweep_observables(z_run, grid, spec.length)
        for pair, keys in czz.items():
            result.czz[pair] = thermal.zz_from_runs(
                [runs[k] for k in keys], z_run, grid.betas)
        result.check_bounds()
        results.append((spec, result))
    results.sort(key=lambda item: (item[0].length, item[0].param_text()))
    outcome = SweepOutcome(results, stats)
    if cfg.out_path:
        write_sweep_csv(cfg.out_path, results, cfg.czz_pairs)
        outcome.csv_path = cfg.out_path
    return outcome


def _fmt(x):
    return format(float(x), ".17g")


def write_sweep_csv(path, results, czz_pairs=()):
    """Write sweep rows atomically (temp file + rename); 17 significant digits."""
    columns = BASE_COLUMNS + [f"Czz_{i}_{j}" for (i, j) in czz_pairs]
    lines = [",".join(columns)]
    for spec, result in results:
        for idx, t in enumerate(result.temperatures):
            row = [
                spec.family,
                str(spec.length),
                spec.param_text(),
                _fmt(t),
                _fmt(result.log_z[idx]),
                _fmt(result.energy_density[idx]),
                _fmt(result.entropy[idx]),
                _fmt(result.heat_capacity[idx]),
                _fmt(result.fidelity[idx]),
                _fmt(result.trace_distance[idx]),
            ]
            for pair in czz_pairs:
                row.append(_fmt(result.czz[pair][idx]))
            lines.append(",".join(row))
    payload = "\n".join(lines) + "\n"
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.write(payload)
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# peak finding and critical-temperature extrapolation

def find_peak(ts, values, kind="max"):
    """Discrete extremum refined by a quadratic fit through its neighbors.

    Uncertainty is the larger of half the local grid step and the shift the
    fit applied to the discrete extremum.
    """
    ts = np.asarray(ts, dtype=float)
    values = np.asarray(values, dtype=float)
    if ts.size != values.size or ts.size < 3:
        raise ValueError("need at least 3 (T, value) points")
    if kind not in ("max", "min"):
        raise ValueError("kind must be 'max' or 'min'")
    idx = int(np.argmax(values) if kind == "max" else np.argmin(values))
    if idx == 0 or idx == ts.size - 1:
        raise PeakOnBoundaryError(float(ts[idx]))
    t3 = ts[idx - 1: idx + 2]
    v3 = values[idx - 1: idx + 2]
    a, b, _ = np.polyfit(t3, v3, 2)
    if a == 0.0:
        vertex = float(ts[idx])
    else:
        vertex = float(-b / (2.0 * a))
    if not t3[0] <= vertex <= t3[2]:
        vertex = float(ts[idx])
    half_step = 0.5 * float(t3[2] - t3[0]) / 2.0
    unc = max(half_step, abs(vertex - float(ts[idx])))
    return PeakEstimate(vertex, unc)


def extrapolate_tc(sizes, peaks):
    """Linear fit of peak locations against 1/L through the two largest sizes.

    The uncertainty is the difference to the same fit including the
    third-largest size, when available.
    """
    pts = sorted(zip(sizes, peaks), key=lambda p: -p[0])
    if len(pts) < 2:
        raise ValueError("need at least two system sizes")

    def fit(points):
        x = np.array([1.0 / length for length, _ in points])
        y = np.array([peak for _, peak in points])
        slope, intercept = np.polyfit(x, y, 1)
        return float(intercept)

    t_c = fit(pts[:2])
    unc = abs(t_c - fit(pts[:3])) if len(pts) >= 3 else float("nan")
    return TcEstimate(t_c, unc)


def exact_tc(h):
    """Closed-form critical temperature h / (2 atanh h) of the LMG model.

    This is the mean-field T_c of H = -Sx^2/L - h Sz (``models.lmg_mpo``),
    whose thermal transition exists for fields below h_c = 1.
    """
    if not 0.0 < h < 1.0:
        raise ValueError("the thermal transition exists only for 0 < h < 1")
    return h / (2.0 * math.atanh(h))


# ---------------------------------------------------------------------------
# subcommands

def _cmd_sweep(args):
    settings = parse_config_file(args.config) if args.config else {}
    cfg = build_run_config(settings, args)
    if cfg.out_path is None:
        raise ConfigError("an output path is required (--out or output.path)")
    outcome = run_sweep(cfg)
    rows = sum(len(result.temperatures) for _, result in outcome.results)
    print(f"wrote {rows} rows to {outcome.csv_path}")
    print(f"lanczos executions: identity={outcome.stats.identity_runs} "
          f"projector={outcome.stats.projector_runs} cache_hits={outcome.stats.cache_hits}")
    return 0


def _cmd_exact(args):
    settings = parse_config_file(args.config) if args.config else {}
    cfg = build_run_config(settings, args)
    if cfg.out_path is None:
        raise ConfigError("an output path is required (--out or output.path)")
    if args.guard > mpo.DENSE_GUARD:
        raise ConfigError(f"--guard {args.guard} exceeds the dense-materialization "
                          f"limit {mpo.DENSE_GUARD}")
    if max(cfg.lengths) > args.guard:
        raise ConfigError(f"model.L: L={max(cfg.lengths)} exceeds the dense-oracle "
                          f"guard {args.guard} (see --guard)")
    grid = BetaGrid.from_temperatures(cfg.temperatures(), cfg.effective_delta_t())
    results = []
    for spec in cfg.model_specs():
        spectrum = oracle.exact_spectrum(spec.build(), guard=args.guard)
        results.append((spec, oracle.exact_observables(spectrum, grid, cfg.czz_pairs)))
    results.sort(key=lambda item: (item[0].length, item[0].param_text()))
    write_sweep_csv(cfg.out_path, results, cfg.czz_pairs)
    rows = sum(len(result.temperatures) for _, result in results)
    print(f"wrote {rows} oracle rows to {cfg.out_path}")
    return 0


def _read_series(paths, observable):
    """Collect (model,param) -> {L: (T array, value array)} from sweep CSVs.

    Each file must hold at least one row, every T and value must be finite,
    and a T may appear once per (model, param, L): a repeat (the same file
    twice, or overlapping sweeps) would bias the peak fit.
    """
    groups = {}
    for path in paths:
        try:
            fh = open(path, newline="", encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read {path!r}: {exc.strerror}") from exc
        with fh:
            reader = csv.DictReader(fh)
            for column in ("model", "L", "param", "T", observable):
                if reader.fieldnames is None or column not in reader.fieldnames:
                    raise ConfigError(f"{path}: no column {column!r}")
            empty = True
            for row in reader:
                empty = False
                where = f"{path}, line {reader.line_num}"
                try:
                    t, value = float(row["T"]), float(row[observable])
                    length = int(row["L"])
                except (TypeError, ValueError) as exc:
                    raise ConfigError(f"{where}: {exc}") from exc
                if not (math.isfinite(t) and math.isfinite(value)):
                    raise ConfigError(f"{where}: T and {observable} must be finite")
                series = groups.setdefault((row["model"], row["param"]), {}).setdefault(length, {})
                if t in series:
                    raise ConfigError(f"{where}: T={t} repeated for {row['model']} "
                                      f"{row['param']} L={length}")
                series[t] = value
            if empty:
                raise ConfigError(f"{path}: no data rows")
    for key in groups:
        for length, series in groups[key].items():
            ts = np.array(sorted(series))
            groups[key][length] = (ts, np.array([series[t] for t in ts]))
    return groups


def _cmd_tc(args):
    kind = "min" if args.observable == "F_T" else "max"
    groups = _read_series(args.csv, args.observable)
    status = 0
    for (model, param), by_length in sorted(groups.items()):
        print(f"# {model} {param}, observable {args.observable}")
        sizes, peaks = [], []
        for length in sorted(by_length):
            ts, vals = by_length[length]
            if ts.size < 3:  # the fit through the extremum needs its two neighbours
                print(f"L={length}: fewer than 3 temperatures; skipped")
                continue
            try:
                peak = find_peak(ts, vals, kind=kind)
            except PeakOnBoundaryError as exc:
                print(f"L={length}: extremum on grid boundary at T={exc.location}; skipped")
                continue
            print(f"L={length}: T_peak={peak.location:.6f} +- {peak.uncertainty:.6f}")
            sizes.append(length)
            peaks.append(peak.location)
        if len(sizes) < 2:
            print("not enough interior peaks to extrapolate")
            status = 3
            continue
        est = extrapolate_tc(sizes, peaks)
        print(f"extrapolated T_c = {est.t_c:.6f} +- {est.uncertainty:.6f}")
        if model == "lmg" and param.startswith("h="):
            h = float(param[2:])
            if 0.0 < h < 1.0:
                print(f"closed-form T_c(h={h}) = {exact_tc(h):.6f}")
    return status


def _cmd_inspect_run(args):
    try:
        run, header = lanczos.load_run(args.path)
    except OSError as exc:
        raise ConfigError(f"cannot read {args.path!r}: {exc.strerror}") from exc
    except ValueError as exc:
        raise ConfigError(f"{args.path}: {exc}") from exc
    print(f"model: {run.model_label or '(unlabeled)'}")
    print(f"start: {run.start_label or '(unlabeled)'}")
    print(f"termination: {run.projection.termination} after k={run.projection.k}")
    print(f"beta1: {_fmt(run.projection.beta1)}")
    for name, arr in (("alphas", run.projection.alphas),
                      ("betas", run.projection.betas),
                      ("nodes", run.quadrature.nodes),
                      ("weights", run.quadrature.weights),
                      ("compression", run.compression_log)):
        print(f"{name}: " + " ".join(_fmt(x) for x in arr))
    extras = {k: v for k, v in header.items()
              if k not in ("format_version", "model_label", "start_label",
                           "termination", "k")}
    if extras:
        print(f"header: {extras}")
    return 0


def _add_sweep_flags(sub):
    sub.add_argument("--config", help="INI config file; flags override its values")
    for _, dest, _, _, _, help_text in _SETTINGS:
        # values stay text: build_run_config turns a bad one into a ConfigError
        sub.add_argument("--" + dest.replace("_", "-"), dest=dest, help=help_text)


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a bad command line (an unknown flag, say) as a ConfigError."""

    def error(self, message):
        raise ConfigError(message)


def build_parser():
    parser = _ArgumentParser(
        prog="mpotrace",
        description="Thermal observables of spin chains via MPO Lanczos quadrature",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sweep = subs.add_parser("sweep", help="run a temperature sweep and write CSV")
    _add_sweep_flags(sweep)
    sweep.set_defaults(handler=_cmd_sweep)

    exact = subs.add_parser("exact", help="dense-oracle sweep for small systems")
    _add_sweep_flags(exact)
    exact.add_argument("--guard", type=int, default=oracle.SPECTRUM_GUARD,
                       help="max L for the dense eigensolve")
    exact.set_defaults(handler=_cmd_exact)

    tc = subs.add_parser("tc", help="peak finding + finite-size extrapolation")
    tc.add_argument("csv", nargs="+", help="sweep CSV files")
    tc.add_argument("--observable", default="c", choices=["s", "c", "F_T", "D_T"])
    tc.set_defaults(handler=_cmd_tc)

    inspect = subs.add_parser("inspect-run", help="dump a cached Lanczos run")
    inspect.add_argument("path", help="path to a .lrun file")
    inspect.set_defaults(handler=_cmd_inspect_run)

    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        # an overflow or a NaN (from couplings near the float range, say) is a
        # numerical failure where it happens, not a warning and a later error;
        # forked pool workers inherit the setting
        with np.errstate(over="raise", invalid="raise"):
            return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CacheMismatchError as exc:
        print(f"cache mismatch: {exc}", file=sys.stderr)
        return 4
    except (NumericalError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
