"""One benchmark worker: imports ``sslsq`` from a source tree and runs passes.

Usage: ``python3 worker.py SRC_DIR --probe`` imports the package, reports
ready and exits; ``python3 worker.py SRC_DIR SPEC_JSON`` then runs the
workload's command sequence through ``sslsq.cli.main`` back to back and
writes a result JSON. The parent times setup as the interval from process
start until the ``ready`` line arrives. Every timed pass is paired with the
calibration bursts sampled during it (see calibrate.py).

Passes: one warm-up pass (checked, not timed), then timed passes until the
measuring window closes. With tracing on, untraced and traced passes take
turns, so both medians come from the same processes and the same minutes.
"""

import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

MIN_PASSES = 3
MIN_TRACED_PASSES = 2


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def run_command(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed command, not a failed benchmark
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def run_pass(cli, commands, calibrator):
    if calibrator:
        calibrator.lap()
    results = []
    cpu0, wall0 = time.process_time(), time.perf_counter()
    for command in commands:
        results.append(run_command(cli, command["argv"]))
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    cal_wall, cal_cpu = calibrator.lap() if calibrator else (None, None)
    records = []
    for command, (code, stdout, stderr) in zip(commands, results):
        digests = [_sha256(stdout.encode())]
        size = 0
        for path in command["outputs"]:
            try:
                blob = Path(path).read_bytes()
            except OSError:
                blob = b""
            digests.append(_sha256(blob))
            size += len(blob)
        records.append({"code": code, "digest": _sha256("".join(digests).encode()),
                        "bytes": size, "stdout": stdout, "stderr": stderr[-2000:]})
    return {"wall_s": wall, "cpu_s": cpu, "cal_wall_s": cal_wall, "cal_cpu_s": cal_cpu,
            "commands": records}


def run_window(cli, commands, seconds, minimum, phase, passes, calibrator=None):
    deadline = time.perf_counter() + seconds
    count = 0
    while count < minimum or time.perf_counter() < deadline:
        record = run_pass(cli, commands, calibrator)
        record["phase"] = phase
        passes.append(record)
        count += 1


def environment(cli):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.26 has no dict form
        vendor = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": vendor,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "sslsq": cli.__version__,
    }


def load_cli(src):
    """Import ``sslsq.cli`` from ``src`` only; exit 3 if that is impossible."""
    sys.path.insert(0, str(src))
    try:
        cli = importlib.import_module("sslsq.cli")
    except ImportError as exc:
        print(f"cannot import sslsq from {src}: {exc}", file=sys.stderr)
        sys.exit(3)
    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"sslsq imported from {cli.__file__}, not from {src}", file=sys.stderr)
        sys.exit(3)
    return cli


def main(argv):
    cli = load_cli(Path(argv[0]).resolve())
    print("ready", flush=True)
    if argv[1] == "--probe":
        return 0
    spec = json.loads(Path(argv[1]).read_text())
    commands = spec["commands"]
    passes = []
    run_window(cli, commands, 0.0, 1, "warmup", passes)
    result = {"env": environment(cli)}
    import calibrate  # after the ready line: numpy must not count as setup

    with calibrate.Calibrator() as calibrator:
        measure(cli, spec, passes, calibrator, result)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["passes"] = passes
    # Keep stdout only where the checker reads it: the warm-up pass.
    for record in passes[1:]:
        for command in record["commands"]:
            command.pop("stdout")
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


def measure(cli, spec, passes, calibrator, result):
    """The timed passes; with tracing on, untraced and traced passes take turns.

    Taking turns keeps drift within the window (memory the first passes
    must still fault in, a neighbour's load) out of the tracing overhead.
    """
    commands = spec["commands"]
    if not spec["trace"]:
        run_window(cli, commands, spec["seconds"], MIN_PASSES, "timed", passes, calibrator)
        return
    import tracing

    tracer = tracing.Tracer()
    layers, fit_ms, spans = [], {fit: [] for fit in tracing.FITS}, []
    deadline = time.perf_counter() + spec["seconds"]
    count = 0
    while count < 2 * MIN_TRACED_PASSES or time.perf_counter() < deadline:
        traced = count % 2 == 1
        uninstall = tracing.install(tracer, "sslsq") if traced else None
        try:
            record = run_pass(cli, commands, calibrator)
        finally:
            if uninstall:
                uninstall()
        record["phase"] = "traced" if traced else "timed"
        passes.append(record)
        count += 1
        if traced:
            spans = tracer.take()
            layers.append(tracing.layer_metrics(spans))
            for s in spans:
                if s.name in fit_ms:
                    fit_ms[s.name].append((s.end - s.start) * 1e3)
            tracer.pass_id += 1
    with open(spec["spans"], "w", encoding="utf-8") as handle:
        handle.write("id,parent,pass,name,start,end\n")
        for s in spans:
            handle.write(f"{s.id},{s.parent},{s.pass_id},{s.name},{s.start!r},{s.end!r}\n")
    result["layers"] = layers
    result["fit_ms"] = fit_ms

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
