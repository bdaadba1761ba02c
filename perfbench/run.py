"""Benchmark of mpotrace sweeps: end-to-end metrics and a traced per-layer pass.

Usage, from the repository root:

    python3 perfbench/run.py --workload lmg_sweep --seed 0 --seconds 5 --trace 0
    python3 perfbench/run.py --smoke

Everything runs in this one process and calls the package from ``src/``;
only the repeated timing of the package import uses child interpreters.
Set-up (import, config validation and, for a warm workload, filling the run
cache) is timed separately from the sweep passes, which repeat until
``--seconds`` have passed. The exact reference (``oracle`` on the MPO the
package builds) is computed once per invocation, after the timed region and
after peak memory is read, and every completed sweep point is checked
against it. ``--trace 1`` adds one pass, with ``workers=1``, under the
per-layer tracer. The last line of output is the JSON result; the lines
before it repeat every metric with its unit, plus failures, Lanczos run
counts, the BLAS pin and a machine note.
"""

import os

# Pin BLAS before numpy loads, so pool workers inherit the pin too.
BLAS_PIN = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_PIN:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import csv  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
# Loose sanity limits for "correct": a wrong formula or a mixed-up output is
# off by far more than these; truncation error is reported, not judged, here.
TOLERANCE = {"err_logz": 1e-3, "err_c": 0.1, "err_czz": 0.1}
# Seconds between speed-probe samples; a sample takes 1 to 8 ms.
PROBE_INTERVAL = 0.25
# Relative tolerance below the exact ground energy before a node counts as
# lying outside the spectrum.
NODE_TOL = 1e-9
SETUP_TRACED = ("mpo.compress.calls", "mpo.compress.s", "lanczos.run_lanczos.calls",
                "lanczos.run_lanczos.s", "lanczos.save_run.calls", "lanczos.save_run.s",
                "lanczos.save_run.bytes")


def _import_package():
    """Import mpotrace from this checkout's src/; exits if the sources are absent."""
    src = ROOT / "src"
    if not (src / "mpotrace" / "__init__.py").is_file():
        sys.exit(f"benchmark: no package sources at {src}")
    sys.path.insert(0, str(src))
    import mpotrace
    import mpotrace.cli  # noqa: F401
    if Path(mpotrace.__file__).resolve().parent != src / "mpotrace":
        sys.exit(f"benchmark: mpotrace imported from {mpotrace.__file__}, not {src}")
    return mpotrace


def import_seconds():
    """Median time of a fresh interpreter to import the package.

    An import cannot be repeated in this process, so each repeat runs in a
    child interpreter, which inherits the BLAS pin and is waited for.
    """
    code = ("import sys, time; t0 = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
            "import mpotrace, mpotrace.cli; print(time.perf_counter() - t0)")
    return statistics.median(
        float(subprocess.run([sys.executable, "-c", code, str(ROOT / "src")], check=True,
                             capture_output=True, text=True).stdout)
        for _ in range(IMPORT_REPEATS))


mpotrace = _import_package()
import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.linalg  # noqa: E402
from mpotrace import cli, oracle  # noqa: E402
from mpotrace.lanczos import NumericalError  # noqa: E402
from mpotrace.thermal import BetaGrid  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


# ---------------------------------------------------------------------------
# set-up and timed passes

def set_up(workload, workdir, workers=None):
    """Sweep points with output and cache paths; a warm workload's cache is filled.

    ``workers`` overrides every worker count, so a traced pass stays in-process.
    """
    cache = tempfile.mkdtemp(prefix="cache", dir=workdir) if workload.fill else None
    points = [replace(cfg, out_path=str(Path(workdir) / f"point{i}.csv"), cache_dir=cache,
                      workers=workers or cfg.workers)
              for i, cfg in enumerate(workload.points)]
    for cfg in points:
        cfg.validate()
    if workload.fill:
        cli.run_sweep(replace(workload.fill, cache_dir=cache,
                              workers=workers or workload.fill.workers))
    return points


def sweep_pass(points):
    """Run every sweep point once; a point that raises is counted, not fatal.

    Returns the pass's seconds and each point's (cfg, outcome, error).
    """
    outcomes = []
    t0 = time.perf_counter()
    for cfg in points:
        try:
            outcomes.append((cfg, cli.run_sweep(cfg), None))
        except (NumericalError, ArithmeticError) as exc:
            outcomes.append((cfg, None, f"{type(exc).__name__}: {exc}"))
    return time.perf_counter() - t0, outcomes


_PROBE_RNG = np.random.default_rng(0)
_PROBE_MATRIX = _PROBE_RNG.standard_normal((360, 90))
_PROBE_NODES = np.sort(_PROBE_RNG.standard_normal(40))


def _dense_kernel():
    # one QR of a tall matrix, like the factorizations in mpo.compress
    scipy.linalg.qr(_PROBE_MATRIX, mode="economic", check_finite=False)


def _small_kernel():
    # many numpy calls on a few dozen nodes, like thermal.partition_traces
    for _ in range(400):
        m = np.exp(-0.5 * (_PROBE_NODES - _PROBE_NODES[0]))
        p = m / float(np.sum(m))
        float(np.dot(p, _PROBE_NODES))


def _children_alive():
    """Whether a process started by this one is alive; unknown counts as alive."""
    try:
        return any(Path(f"/proc/self/task/{tid}/children").read_text().strip()
                   for tid in os.listdir("/proc/self/task"))
    except OSError:
        return True


class SpeedProbe:
    """Samples this CPU's speed around and during a pass.

    Other tenants of the host slow this CPU down by up to 1.8x, switching
    within fractions of a second, so one pass can take 25% longer than the
    next. The probe times a short fixed kernel before and after the pass and,
    from a SIGALRM handler, every PROBE_INTERVAL seconds during it. A pass's
    time over its slowdown, the mean of its samples over the kernel's
    reference time, is its time at the reference speed.

    Contention slows dense linear algebra and interpreter-bound numpy calls
    by different factors, so each workload names the kernel shaped like its
    dominant layer: a QR kernel over- or under-corrects a thermal-bound
    pass, and a small-call kernel a compress-bound one.

    No sample is taken while this process has a child alive: a pool worker
    would compete with the kernel, and that load is the program's own, not
    the host's. A pass that keeps its pool busy throughout is normalised by
    the samples before and after it only.
    """

    # kernel and its time on an uncontended core of the host the bounds were
    # set on (2-vCPU Intel Xeon KVM guest, numpy 2.4, one BLAS thread)
    KERNELS = {"dense": (_dense_kernel, 1.0e-3), "small": (_small_kernel, 2.5e-3)}

    def __init__(self, kind):
        self.kernel, self.ref_s = self.KERNELS[kind]
        self.samples = []
        self.in_pass_s = 0.0

    def _sample(self):
        t0 = time.perf_counter()
        self.kernel()
        self.samples.append(time.perf_counter() - t0)

    def _tick(self, *_):
        t0 = time.perf_counter()
        if not _children_alive():
            self._sample()
        self.in_pass_s += time.perf_counter() - t0

    def timed_pass(self, points):
        """sweep_pass with sampling; returns (seconds less the probe's, samples, outcomes)."""
        self.samples, self.in_pass_s = [], 0.0
        self._sample()
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL, PROBE_INTERVAL)
        try:
            wall, outcomes = sweep_pass(points)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        self._sample()
        return wall - self.in_pass_s, self.samples, outcomes


def peak_rss_mb():
    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return usage / 1024.0  # ru_maxrss is in KiB on Linux


# ---------------------------------------------------------------------------
# exact reference and output checks

class Reference:
    """Dense-oracle observables per sweep point, computed once per model."""

    def __init__(self):
        self._cache = {}

    def get(self, spec, cfg):
        pairs = cfg.czz_pairs if "Czz" in cfg.outputs else ()
        temps = cfg.temperatures()
        key = (spec.label(), tuple(temps), cfg.effective_delta_t(), pairs)
        if key not in self._cache:
            spectrum = oracle.exact_spectrum(spec.build())
            grid = BetaGrid.from_temperatures(temps, cfg.effective_delta_t())
            self._cache[key] = (float(spectrum.eigenvalues[0]),
                                oracle.exact_observables(spectrum, grid, pairs))
        return self._cache[key]

    def ground_energies(self, points):
        """Exact ground energy per model label of the given sweep points."""
        return {spec.label(): self.get(spec, cfg)[0]
                for cfg in points for spec in cfg.model_specs()}


def _worst(errors):
    """Largest error; NaN counts as infinite so it can never pass a tolerance."""
    return max((float(e) if e == e else float("inf") for e in errors), default=0.0)


def check_outputs(outcomes, reference):
    """Errors of every completed sweep point against the reference."""
    errors = {"err_logz": [], "err_c": [], "err_czz": []}
    problems = []
    for cfg, outcome, _ in outcomes:
        if outcome is None:
            continue
        for spec, result in outcome.results:
            _, ref = reference.get(spec, cfg)
            if not np.array_equal(result.temperatures, ref.temperatures):
                problems.append(f"{spec.label()}: temperature grid differs from the request")
                continue
            errors["err_logz"].append(np.max(np.abs(result.log_z - ref.log_z)
                                             / np.abs(ref.log_z)))
            errors["err_c"].append(np.max(np.abs(result.heat_capacity - ref.heat_capacity)))
            for pair, values in ref.czz.items():
                if pair not in result.czz:
                    problems.append(f"{spec.label()}: no Czz{pair} in the output")
                    continue
                errors["err_czz"].append(np.max(np.abs(result.czz[pair] - values)))
    return {name: _worst(vals) for name, vals in errors.items()}, problems


def check_csv(outcomes):
    """Each completed point's CSV holds one row per temperature, equal to the result."""
    problems = []
    for cfg, outcome, _ in outcomes:
        if outcome is None:
            continue
        result = outcome.results[0][1]
        with open(outcome.csv_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        logz = [float(row["logZ"]) for row in rows]
        if logz != [float(x) for x in result.log_z]:
            problems.append(f"{outcome.csv_path}: logZ column differs from the sweep result")
    return problems


# ---------------------------------------------------------------------------
# per-layer metrics from a traced pass

_UNITS = {"calls": "count", "s": "s", "self_s": "s", "bytes": "B"}


def layer_metrics(tracer, setup_tracer, outcomes, ground_energies, overhead_s):
    stats = tracer.stats
    metrics = {}
    for module_name, names in tracing.TRACED.items():
        for name in names:
            for kind in ("calls", "s", "self_s"):
                key = f"{module_name}.{name}.{kind}"
                metrics[key] = (stats.get(key, 0.0), _UNITS[kind])
    for span in ("tensor.truncated_svd", "lanczos.save_run", "lanczos.load_run",
                 "cli.write_sweep_csv"):
        metrics[f"{span}.bytes"] = (stats.get(f"{span}.bytes", 0.0), _UNITS["bytes"])
    weight_in = stats.get("mpo.compress.weight_in", 0.0)
    metrics["mpo.compress.bond_in_max"] = (stats.get("mpo.compress.bond_in_max", 0.0), "count")
    metrics["mpo.compress.discarded_rel"] = (
        stats.get("mpo.compress.discarded", 0.0) / weight_in if weight_in else 0.0, "ratio")
    metrics["lanczos.steps"] = (stats.get("lanczos.steps", 0.0), "count")
    for term in ("k-max", "breakdown", "stop-rule"):
        metrics[f"lanczos.term.{term}"] = (stats.get(f"lanczos.term.{term}", 0.0), "count")
    below, gap = node_check(tracer.runs, ground_energies)
    metrics["lanczos.nodes_below_e0"] = (below, "count")
    metrics["lanczos.min_node_gap"] = (gap, "energy")
    requested, counts = run_counts(outcomes)
    distinct = len({(run.model_label, run.start_label) for run in tracer.runs})
    metrics.update({f"cli.runs.{k}": (v, "count") for k, v in counts.items()})
    metrics["cli.runs.distinct"] = (distinct, "count")
    metrics["cli.runs.useful_ratio"] = (distinct / requested if requested else 0.0, "ratio")
    metrics["trace.overhead_s"] = (overhead_s, "s")
    for key in SETUP_TRACED:
        metrics[f"setup.{key}"] = (setup_tracer.stats.get(key, 0.0), _UNITS[key.rsplit(".", 1)[1]])
    return metrics


def node_check(runs, ground_energies):
    """Nodes below the exact ground energy, and the lowest node minus E0."""
    below, gap = 0, float("inf")
    for run in runs:
        e0 = ground_energies[run.model_label]
        nodes = run.quadrature.nodes
        below += int((nodes < e0 - NODE_TOL * max(1.0, abs(e0))).sum())
        gap = min(gap, float(nodes[0]) - e0)
    return below, gap


def run_counts(outcomes):
    counts = {"identity": 0, "projector": 0, "cache_hits": 0}
    for _, outcome, _ in outcomes:
        if outcome is not None:
            counts["identity"] += outcome.stats.identity_runs
            counts["projector"] += outcome.stats.projector_runs
            counts["cache_hits"] += outcome.stats.cache_hits
    return sum(counts.values()), counts


# ---------------------------------------------------------------------------
# one benchmark invocation

def measure(workload, seconds, trace, workdir):
    """Run a workload; returns (result dict for the JSON line, report lines)."""
    repeats = 1 if trace else SETUP_REPEATS
    setup_times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        points = set_up(workload, workdir)
        setup_times.append(time.perf_counter() - t0)

    probe = SpeedProbe(workload.speed_kernel)
    walls, samples, passes = [], [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        wall, pass_samples, outcomes = probe.timed_pass(points)
        walls.append(wall)
        samples.append(pass_samples)
        passes.append(outcomes)
    rss = peak_rss_mb()
    slowdowns = [statistics.mean(pass_samples) / probe.ref_s for pass_samples in samples]
    wall_s = statistics.median(walls)
    wall_norm_s = statistics.median(wall / slow for wall, slow in zip(walls, slowdowns))

    if trace:
        with tracing.Tracer(mpotrace) as setup_tracer:
            traced_points = set_up(workload, workdir, workers=1)
        with tracing.Tracer(mpotrace) as tracer:
            traced_wall, traced_outcomes = sweep_pass(traced_points)
        passes.append(traced_outcomes)

    known = [(cfg, error) for cfg, _, error in sweep_pass(workload.probe)[1]]

    reference = Reference()
    problems = []
    errors = {name: 0.0 for name in TOLERANCE}
    for outcomes in passes:
        pass_errors, pass_problems = check_outputs(outcomes, reference)
        errors = {k: max(errors[k], v) for k, v in pass_errors.items()}
        problems += pass_problems
    problems += [f"{name} = {err!r} exceeds {TOLERANCE[name]}"
                 for name, err in errors.items() if not err <= TOLERANCE[name]]
    problems += check_csv(passes[-1])

    attempted = sum(len(outcomes) for outcomes in passes)
    failures = [(cfg, error) for outcomes in passes for cfg, _, error in outcomes if error]
    if attempted == len(failures):
        problems.append("no sweep point completed")

    lines = [f"workload {workload.name}: {len(points)} sweep points, {len(walls)} timed passes, "
             f"seconds per pass {walls}, speed-probe samples per pass "
             f"{[len(pass_samples) for pass_samples in samples]}, slowdown per pass "
             f"{slowdowns}"]
    extra = {"wall_s": (wall_s, "s"),
             "fail_frac": (len(failures) / attempted, "ratio"),
             "err_czz": (errors["err_czz"], "1"),
             "probe.failed": (sum(1 for _, error in known if error), "count")}
    if trace:
        metrics = layer_metrics(tracer, setup_tracer, traced_outcomes,
                                reference.ground_energies(traced_points),
                                traced_wall - wall_s)
        metrics.update(extra)
    else:
        # import_seconds runs after peak memory is read, so its child
        # interpreters are not counted in peak_rss_mb.
        metrics = {
            "wall_norm_s": (wall_norm_s, "s"),
            "setup_s": (import_seconds() + statistics.median(setup_times), "s"),
            "peak_rss_mb": (rss, "MB"),
            "err_logz": (errors["err_logz"], "1"),
            "err_c": (errors["err_c"], "1"),
        }
        lines += [f"{name} = {value!r} {unit}" for name, (value, unit) in extra.items()]
    _, counts = run_counts(passes[0])
    lines.append("lanczos runs per pass: " + ", ".join(f"{k}={v}" for k, v in counts.items()))
    lines += [f"failed: {_point(cfg)}: {error}" for cfg, error in failures]
    lines += [f"probe (untimed, known defect): {_point(cfg)}: {error or 'completed'}"
              for cfg, error in known]
    lines += [f"problem: {p}" for p in problems]
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, lines


def _point(cfg):
    spec = cfg.model_specs()[0]
    return f"{spec.family} L={spec.length} {spec.param_text()}"


def machine_note():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, "blas": blas,
            "blas_pin": {var: os.environ[var] for var in BLAS_PIN}}


# ---------------------------------------------------------------------------
# smoke mode

def smoke(workdir):
    """Tiny inputs: every metric in BENCHMARK.json is present with its unit,
    the reference check runs and passes, and failures are counted."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ok = True
    for name, make in workloads.WORKLOADS.items():
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result, lines = measure(make(1, small=True), 0, trace, workdir)
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            faults = [line for line in lines if line.startswith("problem:")]
            notes = [line for line in lines if line.startswith(("failed:", "probe"))]
            if got != want:
                faults.append(f"metrics differ from BENCHMARK.json {section}: "
                              f"missing {sorted(set(want) - set(got))}, "
                              f"extra {sorted(set(got) - set(want))}, "
                              f"units {[(k, got[k], want[k]) for k in got if k in want and got[k] != want[k]]}")
            if not result["correct"]:
                faults.append("outputs failed the reference check")
            print(f"smoke {name} trace={trace}: {'ok' if not faults else 'FAILED'}")
            for line in faults + notes:
                print(f"  {line}")
            ok = ok and not faults
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="quick self-check on tiny inputs")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=scratch)
    try:
        if args.smoke:
            return smoke(workdir)
        workload = workloads.WORKLOADS[args.workload](args.seed)
        result, lines = measure(workload, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"machine: {json.dumps(machine_note(), sort_keys=True)}")
    print(f"seed {args.seed}, seconds {args.seconds}, trace {args.trace}")
    for line in lines:
        print(line)
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
