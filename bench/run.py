"""stabletori benchmark: time to a verified verdict on four CLI workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload lens_tower --seed 1 --seconds 32 --trace 0

One process imports the package from ``src/`` once and runs the workload's
passes in-process, each checked against references computed in
``workloads.py``. The first pass uses the shipped defaults; later passes
draw their inputs from ``--seed``.

``--trace 0`` measures the end-to-end metrics: ``wall_s`` (median seconds of
one timed pass, from its first call to its last output check), ``setup_s``
(median seconds for a fresh interpreter to import ``stabletori.cli``, over
four interpreters), ``peak_rss_mb`` and ``verified_share`` (verified over
attempted operations, that is 1 - fail_share, which is never 0). First-call
costs after the import count in the first pass, which is timed like the
others and also printed as ``first_pass_s``. Both times are scaled to a
reference host speed (see ``reference.py``): each pass and each spawn is
multiplied by ``reference.REF_S`` over the mean of the reference kernel's
seconds timed just before and just after it. The raw seconds are printed
beside them and kept in the result file.

``--trace 1`` runs the known-defect probes, alternates untraced and traced
passes, prints the per-layer table (self time per layer, counts, the
unattributed rest and the tracing overhead) and writes the spans to
``.bench_out/``.

``--seconds`` bounds the whole run from its start, set-up spawns and probes
included: passes go on while the next one, at the median time of a pass
with its kernel reading, ends before the deadline. A run makes at least three passes, or two untraced and
two traced ones with ``--trace 1``, even when that takes longer.

All load comes from this one process and its set-up interpreters, with one
BLAS thread (OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS set to
1 here, before numpy is imported), so a pass does not depend on how OpenBLAS
threads share the cores. Every run prints the environment it measured in.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SPAWNS = 4
# Passes a run makes even past its deadline. A traced run alternates
# untraced and traced passes, so four give two of each.
MIN_PASSES = {0: 3, 1: 4}

WORKLOADS = ["lens_tower", "lens_tower_coarse", "systole_verdict",
             "sections_elliptic"]

# Per-layer metric: (end-to-end metric it should move, where). Names and
# units are those of BENCHMARK.json.
LT, LC, SV, SE = ("lens_tower", "lens_tower_coarse", "systole_verdict",
                  "sections_elliptic")
TOWERS = f"{LT}, {LC}"
PER_LAYER = {
    "stability.min_eigenvalue.self_s": ("wall_s", f"{TOWERS}, {SV}"),
    "stability.min_eigenvalue.calls": ("wall_s", f"{TOWERS}, {SV}"),
    "stability.min_eigenvalue.dof": ("wall_s", f"{TOWERS}, {SV}"),
    "stability.min_eigenvalue.dense_calls": ("wall_s, peak_rss_mb", LC),
    "stability.min_eigenvalue.sparse_calls":
        ("wall_s, peak_rss_mb", f"{TOWERS}, {SV}"),
    "stability.min_eigenvalue.unique_ratio": ("wall_s", TOWERS),
    "stability.flat_twisted_form.self_s": ("wall_s, peak_rss_mb", TOWERS),
    "stability.flat_twisted_form.calls": ("wall_s", TOWERS),
    "stability.flat_twisted_form.nnz": ("peak_rss_mb", TOWERS),
    "stability.euclidean_index_form.self_s": ("wall_s, peak_rss_mb", SE),
    "stability.log_cutoff.self_s": ("wall_s, peak_rss_mb", SE),
    "stability.log_cutoff.calls": ("wall_s", SE),
    "stability.covering_sweep.self_s": ("wall_s", TOWERS),
    "systole.induced_systole.self_s": ("wall_s", f"{TOWERS}, {SV}"),
    "systole.induced_systole.calls": ("wall_s", f"{TOWERS}, {SV}"),
    "systole.induced_systole.sources": ("wall_s", f"{TOWERS}, {SV}"),
    "systole.trial.self_s": ("wall_s", SV),
    "geometry.kappa_pic_estimate.self_s": ("wall_s", SV),
    "geometry.kappa_pic_estimate.samples": ("wall_s", SV),
    "geometry.kappa_pic_estimate.samples_per_s": ("wall_s", SV),
    "geometry.surface_quantities.self_s": ("wall_s", SE),
    "geometry.elliptic_curve_immersion.self_s": ("wall_s", SE),
    "weierstrass.wp.self_s": ("wall_s", SE),
    "weierstrass.wp.points": ("wall_s", SE),
    "scenarios.stability_audit.self_s": ("wall_s, peak_rss_mb", SE),
    "scenarios.level.self_s": ("wall_s", TOWERS),
    "scenarios.level.calls": ("wall_s", TOWERS),
    "scenarios.cover_form.self_s": ("wall_s", f"{TOWERS}, {SV}"),
    "scenarios.flat_chart_immersion.self_s":
        ("wall_s", f"{TOWERS}, {SV}, {SE}"),
    "scenarios.sublattice_growth_table.self_s": ("wall_s", SE),
    "bundles.decompose_commuting_pair.self_s": ("wall_s", SE),
    "bundles.decompose_commuting_pair.calls": ("wall_s", SE),
    "bundles.line_section.self_s": ("wall_s", SE),
    "sections.dbar.self_s": ("wall_s", SE),
    "sections.dbar.calls": ("wall_s", SE),
    "stability.self_s": ("wall_s", "all"),
    "systole.self_s": ("wall_s", f"{TOWERS}, {SV}"),
    "geometry.self_s": ("wall_s", f"{SV}, {SE}"),
    "weierstrass.self_s": ("wall_s", SE),
    "scenarios.self_s": ("wall_s", "all"),
    "bundles.self_s": ("wall_s", SE),
    "sections.self_s": ("wall_s", SE),
    "serialize.self_s": ("wall_s", "all"),
    "serialize.bytes": ("wall_s", "all"),
    "cli.unattributed_s": ("diagnostic", "all"),
    "run.cpu_s": ("diagnostic", "all"),
    "trace.overhead": ("diagnostic", "all"),
    "probe.stability_kmax4_exit": ("defect (a), untimed", "probe"),
    "probe.systole_default_applicable": ("defect (b), untimed", "probe"),
    "probe.decompose_seed69_exit": ("defect (e), untimed", "probe"),
    "probe.decompose_seed254_exit": ("defect (e), untimed", "probe"),
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def measure_setup(kernel_s) -> tuple[list[float], list[float]]:
    """Seconds from a fresh interpreter to an imported ``stabletori.cli``,
    and the reference kernel's seconds around each spawn."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    times, kernels = [], [kernel_s()]
    for _ in range(SETUP_SPAWNS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import stabletori.cli"],
                       env=env, cwd=ROOT, check=True, timeout=120)
        times.append(time.perf_counter() - t0)
        kernels.append(kernel_s())
    return times, kernels


def environment() -> dict:
    import ctypes
    import platform

    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas, threads = {}, {}
    for pkg in (numpy, scipy):
        deps = pkg.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas[pkg.__name__] = f"{deps.get('name')} {deps.get('version')}"
        site = Path(pkg.__file__).resolve().parent.parent
        libdir = site / f"{pkg.__name__}.libs"
        for lib in sorted(libdir.glob("*openblas*")):
            handle = ctypes.CDLL(str(lib))
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    threads[lib.name] = fn()
                    break
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": threads,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_sha": sha,
    }


def run_pass(workload, cli, inputs):
    t0 = time.perf_counter()
    c0 = time.process_time()
    ops = workload.run(cli, inputs)
    return ops, time.perf_counter() - t0, time.process_time() - c0


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.perf_counter() + args.seconds
    if not (SRC / "stabletori" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}/stabletori", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    if args.trace and set(units) != set(PER_LAYER):
        print("error: PER_LAYER differs from BENCHMARK.json: "
              f"{sorted(set(units) ^ set(PER_LAYER))}", file=sys.stderr)
        return 1
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    import reference

    setup, setup_kernels = ([], []) if args.trace else measure_setup(
        reference.kernel_s)

    import stabletori.cli
    import stabletori.scenarios
    import tracing
    import workloads

    workload = workloads.make(args.workload, stabletori.scenarios)
    cli = workloads.Cli(stabletori.cli.main, OUT)
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))

    probes = {}
    if args.trace == 1:
        print("known-defect probes (their failures below are expected):",
              file=sys.stderr, flush=True)
        probes = workloads.probes(cli)

    ops_all = []

    def record(index, ops, wall, traced):
        ops_all.extend(ops)
        bad = [f"{o.name}: {o.detail}" for o in ops if not o.ok]
        print(f"pass {index} {'traced' if traced else 'untraced'} "
              f"{wall:.4f} s "
              f"{'ok' if not bad else 'FAILED ' + '; '.join(bad)}",
              flush=True)

    walls, traced_walls, cpus, steps = [], [], [], []
    # The reference kernel around every timed pass of an untraced run.
    kernels = [reference.kernel_s()] if args.trace == 0 else []
    tracer = tracing.Tracer()
    summaries = []
    index = 0
    while True:
        t0 = time.perf_counter()
        traced = args.trace == 1 and index % 2 == 1
        inputs = workload.inputs(args.seed, index)
        if traced:
            tracer.begin_pass(index)
            with tracer.installed():
                ops, wall, cpu = run_pass(workload, cli, inputs)
            traced_walls.append(wall)
            cpus.append(cpu)
            summaries.append(tracer.pass_summary(index, wall))
        else:
            ops, wall, cpu = run_pass(workload, cli, inputs)
            walls.append(wall)
            if args.trace == 0:
                kernels.append(reference.kernel_s())
        record(index, ops, wall, traced)
        index += 1
        steps.append(time.perf_counter() - t0)
        if (index >= MIN_PASSES[args.trace]
                and time.perf_counter() + statistics.median(steps) > deadline):
            break

    attempted = len(ops_all)
    failed = sum(not o.ok for o in ops_all)
    result = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "env": env,
              "pass_walls": walls, "traced_walls": traced_walls,
              "pass_kernels": kernels, "setup_walls": setup,
              "setup_kernels": setup_kernels,
              "failures": [f"{o.name}: {o.detail}" for o in ops_all
                           if not o.ok]}

    if args.trace == 0:
        pass_s = reference.scale(walls, kernels)
        setup_s = reference.scale(setup, setup_kernels)
        lo, _, hi = statistics.quantiles(pass_s, n=4)
        print(f"first_pass_s {pass_s[0]:.4f} (raw {walls[0]:.4f})")
        print(f"wall_s over {len(walls)} timed passes: median "
              f"{statistics.median(pass_s):.4f} s, "
              f"quartiles {lo:.4f}..{hi:.4f}"
              f"; raw median {statistics.median(walls):.4f} s")
        print("reference kernel s " + " ".join(f"{t:.4f}" for t in kernels)
              + f" (REF_S {reference.REF_S})")
        print("setup_s spawns " + " ".join(f"{t:.4f}" for t in setup_s)
              + "; raw " + " ".join(f"{t:.4f}" for t in setup))
        values = {
            "wall_s": statistics.median(pass_s),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "verified_share": (attempted - failed) / attempted,
        }
    else:
        values = {k: statistics.median(s[k] for s in summaries)
                  for k in summaries[0]}
        values["run.cpu_s"] = statistics.median(cpus)
        values["trace.overhead"] = (statistics.median(traced_walls)
                                    / statistics.median(walls) - 1)
        values.update(probes)

    if set(values) != set(units):
        print("error: metrics differ from BENCHMARK.json: "
              f"{sorted(set(values) ^ set(units))}", file=sys.stderr)
        return 1
    values = {k: values[k] for k in units}

    if args.trace == 1:
        print(f"per-layer split of {args.workload}: median of "
              f"{len(summaries)} traced passes "
              f"(traced wall {statistics.median(traced_walls):.4f} s, "
              f"untraced {statistics.median(walls):.4f} s)")
        print(f"  {'metric':44s} {'value':>14s} {'unit':6s} "
              f"{'should move':22s} where")
        for name, value in values.items():
            moves, where = PER_LAYER[name]
            print(f"  {name:44s} {value:14.6g} {units[name]:6s} "
                  f"{moves:22s} {where}")
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(tracer.dump()))
        print(f"spans written to {spans_path.relative_to(ROOT)}")

    result["metrics"] = values
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(result, indent=1))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
