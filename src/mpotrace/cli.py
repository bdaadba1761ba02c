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

# Cache keys carry only the model label and the run settings, so a change to
# what a label builds, or to how a run truncates, must bump this.
CACHE_VERSION = 8

BASE_COLUMNS = ["model", "L", "param", "T", "logZ", "energy_density", "s", "c", "F_T", "D_T"]
KNOWN_OUTPUTS = ("s", "c", "F_T", "D_T", "Czz")
MAX_TEMPERATURES = 10**6  # a larger grid is rejected before any run


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
        """Check the configuration's own rules; ``plan`` checks the rest."""
        if not self.lengths:
            raise ConfigError("model.L must list at least one system size")
        if self.family == "lmg" and not self.h_fields:
            raise ConfigError("model.h must list at least one field value for lmg")
        # a coupling the family does not read would be silently dropped
        if self.family == "ising" and self.h_fields:
            raise ConfigError("model.h is the lmg field; ising takes J and g")
        if self.family == "lmg" and (self.j_coupling or self.g_field):
            raise ConfigError("model.J and model.g are ising couplings; lmg takes h")
        for name, values in (("model.L", self.lengths), ("model.h", self.h_fields)):
            if len(set(values)) != len(values):
                raise ConfigError(f"{name} lists a value twice: {list(values)}")
        # the grid size is bounded before the grid is built; BetaGrid owns the rest
        if not all(math.isfinite(x) for x in (self.tmin, self.tmax, self.tstep)):
            raise ConfigError("grid tmin, tmax and tstep must be finite")
        if not (self.tmax >= self.tmin and self.tstep > 0):
            raise ConfigError("grid requires tmin <= tmax and tstep > 0")
        count = self._temperature_count()
        if not count <= MAX_TEMPERATURES:  # an infinite count too
            raise ConfigError(f"grid has {count} temperatures, more than {MAX_TEMPERATURES}")
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
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        # checked here so that a bad path fails before any run, not after
        if self.out_path and (os.path.isdir(self.out_path)
                              or not os.path.isdir(os.path.dirname(self.out_path) or ".")):
            raise ConfigError(f"output.path: cannot write a file at {self.out_path!r}")

    def plan(self):
        """(BetaGrid, points) of the sweep, built before any run.

        Points are (ModelSpec, H, starts) in CSV row order. ``starts`` is the
        point's one start set, in the layout ``thermal.sweep_observables``
        reads: the four ``zz_blocks`` of each pair in ``czz_pairs`` order, or
        [I] when there are no pairs. A ValueError from an object's own rule is
        a ConfigError on its setting. The Lanczos settings are
        ``lanczos_config``'s, as only a sweep uses them.
        """
        self.validate()
        setting = "grid"
        try:
            grid = BetaGrid.from_temperatures(self.temperatures(), self.effective_delta_t())
            setting = "model"
            specs = sorted(self.model_specs(), key=lambda s: (s.length, s.param_text()))
            points = []
            for spec in specs:
                h = spec.build()
                starts = []
                for i, j in self.czz_pairs:
                    setting = f"output.czz {i}:{j} at {spec.label()}"
                    starts += thermal.zz_blocks(h, i, j, self.czz_symmetry)
                points.append((spec, h, starts or [models.identity_block(spec.length)]))
        except ValueError as exc:
            raise ConfigError(f"{setting}: {exc}") from exc
        return grid, points

    def lanczos_config(self):
        try:
            return LanczosConfig(self.k_max, self.d_max)
        except ValueError as exc:
            raise ConfigError(f"lanczos: {exc}") from exc

    def model_specs(self):
        """One ModelSpec per (L, h), L ascending; ``ModelSpec`` checks the family."""
        if self.family == "lmg":
            return [ModelSpec("lmg", length, h_field=h)
                    for length in sorted(self.lengths) for h in self.h_fields]
        return [ModelSpec(self.family, length, self.j_coupling, self.g_field)
                for length in sorted(self.lengths)]

    def _temperature_count(self):
        """Points of the grid tmin + k*tstep up to tmax; inf if the ratio overflows."""
        span = (self.tmax - self.tmin) / self.tstep + 1e-9
        return math.floor(span) + 1 if math.isfinite(span) else span

    def temperatures(self):
        return self.tmin + np.arange(self._temperature_count()) * self.tstep

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
     "comma list from s,c,F_T,D_T,Czz; every base column is written, Czz adds its own"),
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

    Runs in a pool worker or in-process, in an existing cache directory.
    Returns the run and whether it was read from the cache. It sets main's
    floating-point policy itself: a spawn or forkserver worker inherits none.
    """
    key, spec, h, start, lcfg, cache_dir = job
    path = _cache_path(cache_dir, key) if cache_dir else None
    with np.errstate(over="raise", invalid="raise"):
        if path and os.path.exists(path):
            return _load_cached(path, key), True
        run = lanczos.run_lanczos(h, start, lcfg, spec.label())
        if path:
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

    Three steps. (1) Build the plan and the Lanczos settings, which check
    every input, and create the cache directory. (2) Execute each distinct
    run of the points' start sets once, deduplicated by cache key; serially
    or, with ``workers > 1``, on one process pool over runs; cached runs are
    read instead. (3) Evaluate each point's columns from its runs with one
    ``thermal.sweep_observables`` call and check their bounds in-process.
    ``stats`` counts distinct runs.
    """
    grid, planned = cfg.plan()
    lcfg = cfg.lanczos_config()
    if cfg.cache_dir:
        try:
            os.makedirs(cfg.cache_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"output.cache: cannot make a directory at "
                              f"{cfg.cache_dir!r}: {exc.strerror}") from exc
    jobs = {}  # cache key -> (key, spec, H, start, lcfg, cache_dir)
    points = []  # (spec, cache keys of its start set's runs)
    for spec, h, starts in planned:
        keys = [_cache_key(spec.label(), start.label, lcfg) for start in starts]
        for key, start in zip(keys, starts):
            jobs.setdefault(key, (key, spec, h, start, lcfg, cfg.cache_dir))
        points.append((spec, keys))

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

    results = []
    for spec, keys in points:
        result = thermal.sweep_observables([runs[k] for k in keys], grid, spec.length,
                                           cfg.czz_pairs)
        result.check_bounds()
        results.append((spec, result))
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
        head = f"{spec.family},{spec.length},{spec.param_text()},"
        values = [result.temperatures, result.log_z, result.energy_density, result.entropy,
                  result.heat_capacity, result.fidelity, result.trace_distance]
        values += [result.czz[pair] for pair in czz_pairs]
        # format(x, ".17g") of every cell, one str.format call per row
        row = ",".join(["{:.17g}"] * len(values))
        lines += [head + row.format(*cells) for cells in
                  zip(*(np.asarray(col, dtype=float).tolist() for col in values))]
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

def _load_config(args):
    cfg = build_run_config(parse_config_file(args.config) if args.config else {}, args)
    if cfg.out_path is None:
        raise ConfigError("an output path is required (--out or output.path)")
    return cfg


def _cmd_sweep(args):
    outcome = run_sweep(_load_config(args))
    rows = sum(len(result.temperatures) for _, result in outcome.results)
    print(f"wrote {rows} rows to {outcome.csv_path}")
    print(f"lanczos executions: identity={outcome.stats.identity_runs} "
          f"projector={outcome.stats.projector_runs} cache_hits={outcome.stats.cache_hits}")
    return 0


def _cmd_exact(args):
    cfg = _load_config(args)
    if args.guard > mpo.DENSE_GUARD:
        raise ConfigError(f"--guard {args.guard} exceeds the dense-materialization "
                          f"limit {mpo.DENSE_GUARD}")
    if max(cfg.lengths) > args.guard:
        raise ConfigError(f"model.L: L={max(cfg.lengths)} exceeds the dense-oracle "
                          f"guard {args.guard} (see --guard)")
    grid, planned = cfg.plan()
    results = [(spec, oracle.exact_observables(oracle.exact_spectrum(h, guard=args.guard),
                                               grid, cfg.czz_pairs))
               for spec, h, _ in planned]
    write_sweep_csv(cfg.out_path, results, cfg.czz_pairs)
    rows = sum(len(result.temperatures) for _, result in results)
    print(f"wrote {rows} oracle rows to {cfg.out_path}")
    return 0


def _read_series(paths, observable):
    """Collect (model,param) -> {L: (T array, value array)} from sweep CSVs.

    Each file must hold at least one row, every T and value must be finite,
    every L positive and every lmg param h=<number>. A T may appear once per
    (model, param, L): a repeat (the same file twice, or overlapping sweeps)
    would bias the peak fit.
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
                    if row["model"] == "lmg":
                        _lmg_field(row["param"])
                except (TypeError, ValueError) as exc:
                    raise ConfigError(f"{where}: {exc}") from exc
                if not (math.isfinite(t) and math.isfinite(value)):
                    raise ConfigError(f"{where}: T and {observable} must be finite")
                if length < 1:
                    raise ConfigError(f"{where}: L={length} is not a positive chain length")
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


def _lmg_field(param):
    """The h of an lmg CSV row's ``param`` h=<number>; ValueError if not of that form."""
    if not (param or "").startswith("h="):
        raise ValueError(f"lmg param {param!r} is not h=<number>")
    return float(param[2:])


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
        if model == "lmg":
            h = _lmg_field(param)
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
        # _execute sets the same policy in a pool worker, under any start method
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
