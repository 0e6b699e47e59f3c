"""ngnopt benchmark: one workload per run, end-to-end or traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload census --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload census --seed 0 --seconds 10 --trace 1
    python3 perfbench/run.py --smoke

--trace 0 repeats the workload's unit for --seconds and reports the
end-to-end metrics: wall_s (mean unit wall time), steps_per_s (optimizer
steps per second of wall_s), setup_s (median of three set-ups, this
process's and two fresh ones) and peak_rss_mb. Times are scaled to a
reference machine speed, see CAL_REF_S. --trace 1 runs one plain
unit and one traced unit and reports the per-layer metrics. Both print
the environment and the SHA-256 of the summary CSV, and end with one JSON
line: {"correct", "attempted", "failed", "metrics"}. Spans and a result
record are written under .perfbench_out/ in the checkout.

--smoke runs every workload at minimal size in both modes, and once more
with as many BLAS threads as cores, and fails if a metric declared in
BENCHMARK.json is missing or has the wrong unit, if an output check
fails, or if the CSV hash depends on the BLAS thread count.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from here, before numpy loads

import argparse
import ctypes
import json
import os
import resource
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 2
CHILD_TIMEOUT_S = 170

# The machine the benchmark runs on can change speed by 25% or more from
# one second to the next, and drifts as much over minutes (other tenants
# share its cores). Timings are therefore scaled by a calibration: the
# median time of CAL_REPEATS runs of a fixed kernel (see Calibration),
# taken just before and just after each timed interval. A time t is
# reported as t * CAL_REF_S / calibration, i.e. in seconds at the speed
# at which the calibration reads CAL_REF_S, its median on the 2-vCPU
# machine the benchmark was defined on. For the units of a run, t is
# their mean wall time and the calibration the mean over their brackets;
# on that machine this was steadier from run to run than the median of
# per-unit ratios. Raw times stay in the record.
CAL_REF_S = 0.009
CAL_REPEATS = 5

# ROADMAP "Baseline measurements", measured on a 2-core box.
ROADMAP = {
    "evaluate_d400_fullbatch_us": 318.0,
    "sample_batch_us": 52.0,
    "run_once_1d_us_per_step": (42.0, 55.0),
    "census_full_serial_s": 36.9,
    "census_full_workers2_s": 21.0,
    "polynomial_build_ms": 81.0,
}


def parse_args(argv):
    p = argparse.ArgumentParser(description="ngnopt benchmark")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full")
    p.add_argument("--blas-threads", type=int, default=1,
                   help="BLAS threads per process; the pool workload uses 2 workers, "
                        "so keep 2 x this <= cores")
    p.add_argument("--smoke", action="store_true", help="check every workload at minimal size")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.smoke and args.workload is None:
        p.error("--workload is required")
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _blas_runtime() -> dict:
    """OpenBLAS runtime config and thread count, read from the loaded library."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln})
    except OSError:
        libs = []
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is None or config is None:
                    continue
                threads.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                return {"library": os.path.basename(path), "config": config().decode(),
                        "threads": threads()}
    return {"library": None, "config": None, "threads": None}


def environment(load_before) -> dict:
    import platform

    import numpy as np

    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # NumPy < 1.25 has no mode argument
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_runtime": _blas_runtime(),
        "blas_env_threads": os.environ.get(BLAS_ENV[0]),
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
    }


def _run_child(argv) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.abspath(__file__), *argv], cwd=ROOT,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)


def _probe_setup(args) -> list:
    """(set-up, calibration) times of fresh processes doing exactly this
    run's set-up."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = _run_child(["--setup-probe", "--workload", args.workload, "--seed", str(args.seed),
                           "--size", args.size, "--blas-threads", str(args.blas_threads)])
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        setup_s, cal = proc.stdout.strip().splitlines()[-1].split()
        times.append((float(setup_s), float(cal)))
    return times


class Calibration:
    """Times a fixed kernel that uses no ngnopt code: 500 small NumPy
    operations driven from Python, then 40 row gathers of a 400 x 400
    matrix, each followed by a matvec. The two halves follow the two
    kinds of slow-down seen on the workloads, interpreter-bound and
    memory-bound."""

    def __init__(self):
        import numpy as np

        self._np = np
        self._a = np.random.default_rng(0).standard_normal((400, 400))
        self._v = np.ones(400)
        self._rows = np.arange(400)

    def _kernel(self) -> float:
        x = self._np.zeros(1)
        s = 0.0
        for _ in range(500):
            x = x - 0.001 * x + 1e-9
            s += float(self._np.sum(x * x))
        for _ in range(40):
            s += float((self._a[self._rows] @ self._v)[0])
        return s

    def __call__(self) -> float:
        """Median seconds of CAL_REPEATS runs of the kernel."""
        times = []
        for _ in range(CAL_REPEATS):
            t = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - t)
        return statistics.median(times)


def _timed(fn):
    t = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - t


class Tally:
    """Operations attempted and failed, plus every failed check by name."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failed_checks: list = []

    def add(self, outcome, reference_sha=None, label="unit") -> None:
        checks = dict(outcome.checks)
        if reference_sha is not None:
            checks["csv_matches_serial_reference"] = outcome.csv_sha256 == reference_sha
        self.attempted += outcome.ops + len(checks)
        self.failed += outcome.failed + sum(1 for ok in checks.values() if not ok)
        if outcome.failed:
            self.failed_checks.append(f"{label}: {outcome.failed} failed operations")
        self.failed_checks.extend(f"{label}: {name}" for name, ok in checks.items() if not ok)


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def measure(args, wl, tally, out, calibration) -> tuple:
    """--trace 0: repeat the unit for args.seconds with nothing patched."""
    from tracing import count_steps

    ref, steps = count_steps(lambda: wl.unit(os.path.join(out, "reference.csv"), 1))
    tally.add(ref, label="reference")
    walls, cals = [], [calibration()]
    begin = time.perf_counter()
    while not walls or time.perf_counter() - begin < args.seconds:
        outcome, wall = _timed(lambda: wl.unit(os.path.join(out, "unit.csv"), wl.workers))
        walls.append(wall)
        cals.append(calibration())
        tally.add(outcome, ref.csv_sha256, label=f"unit {len(walls)}")
    # mean unit wall over the mean of the calibrations bracketing each unit
    speed = statistics.fmean((a + b) / 2.0 for a, b in zip(cals, cals[1:]))
    wall = statistics.fmean(walls) * CAL_REF_S / speed
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if wl.workers > 1:
        peak_kb += wl.workers * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return ref, {
        "steps": steps,
        "unit_walls_s": walls,
        "calibrations_s": cals,
        "raw_wall_s": statistics.median(walls),
        "metrics": {
            "wall_s": _metric(wall, "s"),
            "steps_per_s": _metric(steps / wall, "1/s"),
            "peak_rss_mb": _metric(peak_kb / 1024.0, "MB"),
        },
    }


def trace(wl, tally, out) -> tuple:
    """--trace 1: one serial reference, one plain unit, one traced unit."""
    from ngnopt import harness, optimizers

    from tracing import THEORY_SPANS, Tracer

    ref, serial_wall = _timed(lambda: wl.unit(os.path.join(out, "reference.csv"), 1))
    tally.add(ref, label="reference")
    plain, plain_wall = _timed(lambda: wl.unit(os.path.join(out, "unit.csv"), wl.workers))
    tally.add(plain, ref.csv_sha256, label="plain unit")
    tracer = Tracer()
    tracer.install()
    try:
        traced, traced_wall = _timed(lambda: wl.unit(os.path.join(out, "traced.csv"), wl.workers))
    finally:
        tracer.uninstall()
    tally.add(traced, ref.csv_sha256, label="traced unit")
    tracer.save(os.path.join(OUT_DIR, f"{wl.name}.spans.npz"))

    spans = tracer.summary()

    def span(name):
        return spans.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})

    def per_call_us(s):
        return 1e6 * s["busy_s"] / s["calls"] if s["calls"] else 0.0

    step_spans = {n[len("optimizers.apply_step."):]: s for n, s in spans.items()
                  if n.startswith("optimizers.apply_step.")}
    apply_step = {
        "calls": sum(s["calls"] for s in step_spans.values()),
        "busy_s": sum(s["busy_s"] for s in step_spans.values()),
    }
    steps = apply_step["calls"]
    evaluate = span("problems.evaluate")
    statuses = [r["status"] for r in traced.rows]
    audits_failed = traced.failed if wl.name == "audits" else 0

    m = {}
    m["problems.evaluate.calls"] = _metric(evaluate["calls"], "count")
    m["problems.evaluate.busy_s"] = _metric(evaluate["busy_s"], "s")
    m["problems.evaluate.us_per_call"] = _metric(per_call_us(evaluate), "us")
    m["problems.evaluate.bytes_computed"] = _metric(tracer.evaluate_bytes, "B")
    for name in ("sample_batch", "build_problem"):
        s = span(f"problems.{name}")
        m[f"problems.{name}.calls"] = _metric(s["calls"], "count")
        m[f"problems.{name}.busy_s"] = _metric(s["busy_s"], "s")
    m["problems.sample_batch.us_per_call"] = _metric(per_call_us(span("problems.sample_batch")), "us")
    m["optimizers.apply_step.calls"] = _metric(steps, "count")
    m["optimizers.apply_step.busy_s"] = _metric(apply_step["busy_s"], "s")
    m["optimizers.apply_step.us_per_call"] = _metric(per_call_us(apply_step), "us")
    for kind in optimizers.OPTIMIZER_KINDS:
        s = step_spans.get(kind, {"calls": 0, "busy_s": 0.0})
        m[f"optimizers.apply_step.{kind}.us_per_call"] = _metric(per_call_us(s), "us")
    ngn_gamma = span("optimizers.ngn_gamma")
    m["optimizers.ngn_gamma.calls"] = _metric(ngn_gamma["calls"], "count")
    m["optimizers.ngn_gamma.busy_s"] = _metric(ngn_gamma["busy_s"], "s")
    run_once = span("harness.run_once")
    m["harness.run_once.calls"] = _metric(run_once["calls"], "count")
    m["harness.run_once.busy_s"] = _metric(run_once["busy_s"], "s")
    m["harness.run_once.self_s"] = _metric(run_once["self_s"], "s")
    m["harness.run_once.evals_per_step"] = _metric(evaluate["calls"] / steps if steps else 0.0, "ratio")
    run_sweep = span("harness.run_sweep")
    m["harness.run_sweep.busy_s"] = _metric(run_sweep["busy_s"], "s")
    m["harness.run_sweep.self_s"] = _metric(run_sweep["self_s"], "s")
    pool_efficiency = serial_wall / (wl.workers * plain_wall) if wl.workers > 1 else 0.0
    m["harness.run_sweep.pool_efficiency"] = _metric(pool_efficiency, "ratio")
    m["harness.emit_csv.busy_s"] = _metric(span("harness.emit_csv")["busy_s"], "s")
    m["harness.parse_config.busy_s"] = _metric(span("harness.parse_config")["busy_s"], "s")
    m["harness.steps"] = _metric(steps, "count")
    for status in (harness.STATUS_CONVERGED, harness.STATUS_DIVERGED, harness.STATUS_BUDGET,
                   harness.STATUS_ERROR):
        m[f"harness.cells.{status}"] = _metric(statuses.count(status), "count")
    audit = span("verify.audit_theorem_bound")
    m["verify.audit_theorem_bound.calls"] = _metric(audit["calls"], "count")
    m["verify.audit_theorem_bound.busy_s"] = _metric(audit["busy_s"], "s")
    m["verify.audit_theorem_bound.self_s"] = _metric(audit["self_s"], "s")
    m["verify.run_default_audits.busy_s"] = _metric(span("verify.run_default_audits")["busy_s"], "s")
    m["verify.audits.failed"] = _metric(audits_failed, "count")
    m["theory.busy_s"] = _metric(sum(span(n)["busy_s"] for n in THEORY_SPANS), "s")
    m["trace.overhead_s"] = _metric(traced_wall - plain_wall, "s")

    extra = {"steps": steps, "serial_wall_s": serial_wall, "plain_wall_s": plain_wall,
             "traced_wall_s": traced_wall, "spans": spans,
             "crosscheck": crosscheck(wl, spans, steps, plain_wall, len(traced.rows))}
    return ref, {"metrics": m, **extra}


def crosscheck(wl, spans, steps, plain_wall, cells) -> list:
    """This run's figure beside each ROADMAP baseline it can speak to."""
    rows = []

    def add(name, here, unit, basis):
        rows.append({"name": name, "roadmap": ROADMAP[name], "here": here, "unit": unit,
                     "basis": basis})

    def per_call_us(name):
        s = spans.get(name)
        return 1e6 * s["busy_s"] / s["calls"] if s and s["calls"] else None

    if wl.name == "ridge-fullbatch":
        add("evaluate_d400_fullbatch_us", per_call_us("problems.evaluate"), "us",
            "traced problems.evaluate, ridge d=400 full batch")
    elif wl.name == "lsq-minibatch":
        add("sample_batch_us", per_call_us("problems.sample_batch"), "us",
            "traced problems.sample_batch, n=1000, batch 32")
    elif wl.name == "audits":
        add("sample_batch_us", per_call_us("problems.sample_batch"), "us",
            "traced problems.sample_batch in run_default_audits, n=40, batch 10 and 20")
    elif wl.name == "quartic-pool":
        us = per_call_us("problems.build_problem")
        add("polynomial_build_ms", None if us is None else us / 1e3, "ms",
            "traced build_problem, per call, in pool workers")
    elif wl.name == "census":
        add("run_once_1d_us_per_step", 1e6 * plain_wall / steps, "us",
            "untraced census unit wall / optimizer steps")
        from ngnopt import harness

        from workloads import CONFIG_DIR

        full_cells = len(harness.parse_config(os.path.join(CONFIG_DIR, wl.config)).cells())
        serial = plain_wall / cells * full_cells
        basis = (f"extrapolated per cell from {cells} cells at c in {{100, 1000}} "
                 f"to the config's {full_cells} cells")
        add("census_full_serial_s", serial, "s", basis)
        add("census_full_workers2_s", None, "s",
            f"not measured: a {cells}-cell unit cannot amortize pool start-up, so scaling "
            "its 2-worker wall to the full grid would mislead")
    return rows


def smoke() -> int:
    """Every workload at minimal size, in both modes and with more BLAS threads."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        decl = json.load(fh)
    nproc = os.cpu_count() or 1
    problems = []
    for w in decl["workloads"]:
        name = w["name"]
        runs = {
            "trace0": ["--trace", "0"],
            "trace1": ["--trace", "1"],
            f"trace0 blas_threads={nproc}": ["--trace", "0", "--blas-threads", str(nproc)],
        }
        hashes = {}
        for label, extra in runs.items():
            proc = _run_child(["--workload", name, "--seed", "0", "--seconds", "1",
                               "--size", "smoke", *extra])
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{name} {label}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
                continue
            result = json.loads(lines[-1])
            hashes[label] = next((ln.split()[1] for ln in lines if ln.startswith("csv_sha256 ")), None)
            declared = decl["end_to_end"] if extra[1] == "0" else decl["per_layer"]
            for metric in declared:
                got = result["metrics"].get(metric["name"])
                if got is None or got.get("unit") != metric["unit"]:
                    problems.append(f"{name} {label}: metric {metric['name']} missing or not in {metric['unit']}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{name} {label}: {result['failed']} of {result['attempted']} "
                                f"operations failed")
        if len(set(hashes.values())) > 1:
            problems.append(f"{name}: summary CSV hash depends on the run mode: {hashes}")
        print(f"smoke {name}: {'ok' if not any(p.startswith(name) for p in problems) else 'FAILED'}")
    for p in problems:
        print(f"  {p}")
    return 1 if problems else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.smoke:
        return smoke()
    for var in BLAS_ENV:
        os.environ[var] = str(args.blas_threads)
    for needed in ("src/ngnopt/__init__.py", "configs"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            return _fail(f"{needed} not found under {ROOT}; run from an ngnopt checkout")
    sys.path.insert(0, os.path.join(ROOT, "src"))

    import workloads

    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; expected one of {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload](args.seed, args.size)
    wl.setup()
    setup_s = time.perf_counter() - _T0
    calibration = Calibration()
    setup_cal = calibration()
    if args.setup_probe:
        print(repr(setup_s), repr(setup_cal))
        return 0

    load_before = os.getloadavg()
    out = os.path.join(OUT_DIR, wl.name)
    os.makedirs(out, exist_ok=True)
    wl.prepare()
    tally = Tally()
    if args.trace:
        ref, record = trace(wl, tally, out)
    else:
        ref, record = measure(args, wl, tally, out, calibration)
        setups = [(setup_s, setup_cal)] + _probe_setup(args)
        record["setup_samples_s"] = setups
        record["metrics"]["setup_s"] = _metric(
            statistics.median(t * CAL_REF_S / cal for t, cal in setups), "s")
    metrics = record["metrics"]
    if args.trace:
        metrics["error_rate"] = _metric(tally.failed / tally.attempted, "ratio")

    env = environment(load_before)
    record.update(workload=wl.name, seed=args.seed, size=args.size, trace=args.trace,
                  env=env, csv_sha256=ref.csv_sha256, failed_checks=tally.failed_checks)
    with open(os.path.join(OUT_DIR, f"{wl.name}.trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print("env " + json.dumps(env, sort_keys=True))
    print(f"csv_sha256 {ref.csv_sha256}")
    for row in record.get("crosscheck", []):
        here = "n/a" if row["here"] is None else f"{row['here']:.4g} {row['unit']}"
        print(f"crosscheck {row['name']}: roadmap {row['roadmap']} {row['unit']}, "
              f"here {here} ({row['basis']})")
    for check in tally.failed_checks:
        print(f"FAILED {check}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
