"""sslsq benchmark: one workload per invocation, metrics as JSON on the last line.

    python3 bench/run.py --workload large-fit --seed 1 --seconds 20 --trace 0

Run from the repository root (or any checkout of it). The benchmark draws
its inputs from ``--seed``, starts fresh worker processes that import
``sslsq`` from ``src/``, checks every output with its own numpy code and
prints a table of metrics followed by one JSON object. ``--trace 0`` gives
the end-to-end metrics, ``--trace 1`` the per-layer ones from a traced run.
A full record (environment, sample counts, per-pass figures, output
digests, quality figures) goes to ``bench/results/``. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402
from calibrate import CAL_REF_S, Calibrator  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 10
# The window is split between this many fresh workers, one after another:
# a process keeps its memory layout for life, and one process's luck with
# it moved a whole run's figures by several percent.
WORKERS = 2
WORKER_GRACE_S = 120.0
READY_TIMEOUT_S = 60.0
# BLAS stays single-threaded, and every workload passes --threads 1.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "PYTHONDONTWRITEBYTECODE": "1"}


class BenchError(Exception):
    """The benchmark could not run: no result is printed."""


def start_worker(*args):
    env = dict(os.environ, **WORKER_ENV)
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(ROOT / "src"), *args],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
                            cwd=ROOT)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        _, err = proc.communicate()
        raise BenchError(f"worker did not start: {err.strip()}")
    return proc, setup


def finish_worker(proc, timeout):
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker ran past {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {err.strip()[-2000:]}")


def run_worker(stem, spec, timeout):
    """Run one worker on ``spec`` and return the result it writes."""
    spec = dict(spec, result=str(stem.with_suffix(".result.json")))
    spec_path = stem.with_suffix(".spec.json")
    spec_path.write_text(json.dumps(spec))
    proc, _ = start_worker(str(spec_path))
    finish_worker(proc, timeout)
    return json.loads(Path(spec["result"]).read_text())


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, timeout=10,
                             capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def judge(commands, passes, ctx):
    """Check the first worker's warm-up outputs; every other pass must repeat its bytes.

    ``passes`` come from all workers in order, each tagged with its
    ``worker``. Returns ``(attempted, failed, problems, quality)``. A
    command fails when it exits non-zero, when its outputs fail a check, or
    when its stdout or output files differ from the same command's in the
    first warm-up pass, within one worker or across workers.
    """
    first = passes[0]["commands"]
    verdicts = [checks.check(c, r["code"], r["stdout"], ctx) for c, r in zip(commands, first)]
    problems = [p for v in verdicts for p in v.problems]
    attempted = failed = 0
    for record in passes:
        where = "passes" if record["worker"] == passes[0]["worker"] else "processes"
        for i, r in enumerate(record["commands"]):
            attempted += 1
            bad = r["code"] != 0 or verdicts[i].problems or r["digest"] != first[i]["digest"]
            if r["digest"] != first[i]["digest"]:
                problems.append(f"{commands[i].kind} #{i}: output bytes differ between {where}")
            failed += bool(bad)
    converged = [c for v in verdicts for c in v.converged]
    residuals = [r for v in verdicts for r in v.soft_residuals]
    quality = {
        "failed_ratio": failed / attempted,
        "unconverged_ratio": (converged.count(False) / len(converged)) if converged else None,
        "fits_reporting_convergence": len(converged),
        "soft_residual_max": max(residuals) if residuals else None,
        "soft_weight_vectors": len(residuals),
    }
    return attempted, failed, problems, quality


def reference_time(passes, phase, key):
    """Median over a phase's passes of ``key`` in reference seconds.

    Each pass is scaled by the bursts sampled during it: wall time by their
    wall time, CPU time by their CPU time.
    """
    cal = "cal_cpu_s" if key == "cpu_s" else "cal_wall_s"
    return CAL_REF_S * statistics.median(p[key] / p[cal] for p in passes
                                         if p["phase"] == phase)


def measure_setup():
    """Start probe workers; returns (raw seconds, burst wall seconds) per probe."""
    samples = []
    with Calibrator(dict(os.environ, **WORKER_ENV)) as calibrator:
        for _ in range(SETUP_PROBES):
            calibrator.lap()
            proc, setup = start_worker("--probe")
            finish_worker(proc, READY_TIMEOUT_S)
            samples.append((setup, calibrator.lap()[0]))
    return samples


def per_layer(results, passes, quality):
    layers = [m for r in results for m in r["layers"]]
    metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
    metrics.update(tracing.fit_percentiles(
        {fit: [ms for r in results for ms in r["fit_ms"][fit]] for fit in tracing.FITS}))
    metrics["trace.overhead_s"] = (reference_time(passes, "traced", "wall_s")
                                   - reference_time(passes, "timed", "wall_s"))
    metrics["cli.bytes_written"] = sum(c["bytes"] for c in passes[0]["commands"])
    metrics["quality.unconverged_ratio"] = quality["unconverged_ratio"] or 0.0
    metrics["quality.soft_residual_max"] = quality["soft_residual_max"] or 0.0
    unstable = sorted(k for k, v in layers[0].items()
                      if isinstance(v, int) and len({m[k] for m in layers}) > 1)
    return metrics, unstable


def load_spec():
    """Workload reasons and metric units, as ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    units = {kind: {m["name"]: m["unit"] for m in spec[kind]}
             for kind in ("end_to_end", "per_layer")}
    return why, units


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    # Pin this process, and so every process it starts, to one CPU: the
    # calibration bursts then run on the core they are meant to gauge. On a
    # shared VM the two vCPUs slowed independently of each other.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workload = WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = HERE / "_work" / f"{tag}-{os.getpid()}"
    results_dir = HERE / "results"
    try:
        (work / "in").mkdir(parents=True)
        (work / "out").mkdir()
        results_dir.mkdir(exist_ok=True)
        return run(args, workload, tag, work, results_dir)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, workload, tag, work, results_dir):
    written = inputs.materialize(workload.inputs, args.seed, work / "in")
    paths = {name: path for name, (path, _) in written.items()}
    commands = workload.build(args.seed, paths, work / "out")

    setups = measure_setup()

    spec = {
        "commands": [{"argv": list(c.argv), "outputs": [str(o) for o in c.outputs]}
                     for c in commands],
        "seconds": args.seconds / WORKERS, "trace": bool(args.trace),
        "spans": str(results_dir / f"{tag}.spans.csv"),
    }
    results = [run_worker(work / f"worker{k}", spec, args.seconds / WORKERS + WORKER_GRACE_S)
               for k in range(WORKERS)]
    passes = [dict(p, worker=k) for k, r in enumerate(results) for p in r["passes"]]

    ctx = checks.Context(written.values())
    attempted, failed, problems, quality = judge(commands, passes, ctx)

    timed = [p for p in passes if p["phase"] == "timed"]
    end_to_end = {
        "wall_s": reference_time(passes, "timed", "wall_s"),
        "cpu_s": reference_time(passes, "timed", "cpu_s"),
        "peak_rss_mb": max(r["peak_rss_kb"] for r in results) / 1024.0,
        "setup_s": CAL_REF_S * statistics.median(setup / cal for setup, cal in setups),
    }
    samples = {"wall_s": len(timed), "cpu_s": len(timed), "peak_rss_mb": WORKERS,
               "setup_s": len(setups)}
    raw = {
        "wall_raw_s": statistics.median(p["wall_s"] for p in timed),
        "cpu_raw_s": statistics.median(p["cpu_s"] for p in timed),
        "setup_raw_s": statistics.median(setup for setup, _ in setups),
        "cal_wall_s": statistics.median(p["cal_wall_s"] for p in timed),
        "cal_cpu_s": statistics.median(p["cal_cpu_s"] for p in timed),
    }

    why, units = load_spec()
    print(f"workload {args.workload} (seed {args.seed}): {why[args.workload]}")
    print(f"  env: {json.dumps(results[0]['env'])}")
    print(f"  commands attempted {attempted}, failed {failed}")
    for problem in dict.fromkeys(problems):
        print(f"  CHECK FAILED: {problem}")
    if args.trace:
        metrics, unstable = per_layer(results, passes, quality)
        for name, unit in units["per_layer"].items():
            print(f"  {name:<44} {metrics[name]:>16.6g} {unit}")
        if unstable:
            print(f"  counts that differ between traced passes: {', '.join(unstable)}")
        out = {k: {"value": metrics[k], "unit": u} for k, u in units["per_layer"].items()}
    else:
        for name, value in end_to_end.items():
            print(f"  {name:<20} {value:>12.6g} {units['end_to_end'][name]:<6} n={samples[name]}")
        for name, value in raw.items():
            print(f"  {name:<20} {value:>12.6g} {'s':<6} (measured, not scaled)")
        for name in ("failed_ratio", "unconverged_ratio", "soft_residual_max"):
            value = quality[name]
            print(f"  {name:<20} {'n/a' if value is None else f'{value:>12.6g}':>12} "
                  f"{'ratio' if name != 'soft_residual_max' else 'rel':<6}")
        out = {k: {"value": end_to_end[k], "unit": u} for k, u in units["end_to_end"].items()}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": git_commit(), "env": results[0]["env"],
        "inputs": {name: {"sha256": digest} for name, (_, digest) in written.items()},
        "setup_samples": [{"setup_s": setup, "cal_wall_s": cal} for setup, cal in setups],
        "passes": [{k: p[k] for k in ("worker", "phase", "wall_s", "cpu_s", "cal_wall_s",
                                      "cal_cpu_s")} for p in passes],
        "output_digests": [c["digest"] for c in passes[0]["commands"]],
        "samples": samples, "end_to_end": end_to_end, "measured": raw,
        "quality": quality,
        "attempted": attempted, "failed": failed, "problems": problems, "metrics": out,
    }
    (results_dir / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
