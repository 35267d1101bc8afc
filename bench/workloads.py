"""The benchmark's four workloads: their inputs and CLI command sequences.

Each workload is a fixed list of ``sslsq`` command lines that one worker
issues back to back (a closed loop with one client). Why each workload
exists is recorded in ``BENCHMARK.json`` and README.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from inputs import InputSpec

LARGE_U = 20_000
STARTS = 100
# Ten labeled points per class keep the supervised start, and with it the
# spread of the random starts and the round count, from swinging with the
# seed: with two per class one seed in ten needed twice the rounds. Two
# basin files halve what is left of that swing (the round count of one file
# still moved by about 5% between seeds).
BASIN_LABELED_PER_CLASS = 10
BASIN_FILES = ("basin396a", "basin396b")
RESTARTS = 50
LC_LABELED = 10
LC_REPEATS = 100
LC_U_VALUES = (1, 2, 4, 8, 16, 32, 64, 128, 256)
# One worker thread: at --threads 2 the two threads hand the GIL back and
# forth across both vCPUs of a 2-core machine, which made the fastest pass
# of a run swing by 30% between runs of one seed, beyond any usable bound.
LC_THREADS = 1


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what its checker needs to know about it."""

    kind: str
    argv: tuple
    outputs: tuple = ()
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    inputs: tuple
    build: object  # (seed, input paths by name, output dir) -> list[Command]


def experiment_outputs(out):
    """The report, aggregate and manifest paths an experiment subcommand writes."""
    return (out, out.with_name(out.stem + ".agg" + out.suffix),
            out.with_name(out.stem + ".manifest.txt"))


def _fit(data, method, out, lam=0.0):
    argv = ["fit", "--data", str(data), "--method", method, "--trace", str(out)]
    if lam:
        argv += ["--lambda", repr(lam)]
    return Command("fit", tuple(argv), (out, out.with_name(out.stem + ".manifest.txt")),
                   {"data": data, "method": method, "lam": lam})


def _large_fit(seed, paths, out):
    commands = []
    for name in ("cluster20k", "gauss20k"):
        for method in ("soft", "hard"):
            commands.append(_fit(paths[name], method, out / f"fit-{name}-{method}.csv"))
    commands.append(_fit(paths["cluster20k"], "soft", out / "fit-cluster20k-soft-lam1.csv", 1.0))
    return commands


def _restart_study(seed, paths, out):
    commands = []
    for name in BASIN_FILES:
        for method in ("soft", "hard"):
            report = out / f"{name}-{method}.csv"
            argv = ["basin", "--data", str(paths[name]), "--method", method,
                    "--starts", str(STARTS), "--seed", str(seed), "--threads", "1",
                    "--out", str(report)]
            outputs = experiment_outputs(report)
            path_file = None
            if method == "soft":
                path_file = out / f"{name}-soft-paths.csv"
                argv += ["--paths", str(path_file)]
                outputs += (path_file,)
            commands.append(Command("basin", tuple(argv), outputs, {
                "data": paths[name], "method": method, "lam": 0.0,
                "starts": STARTS, "paths": path_file}))
    report = out / "local-optima.csv"
    pools = (paths["poolA"], paths["poolB"])
    argv = ["local-optima", "--data", *map(str, pools), "--restarts", str(RESTARTS),
            "--seed", str(seed), "--threads", "1", "--out", str(report)]
    commands.append(Command("local-optima", tuple(argv), experiment_outputs(report),
                            {"pools": pools, "restarts": RESTARTS}))
    return commands


def _learning_curve(seed, paths, out):
    report = out / "learning-curve.csv"
    argv = ["learning-curve", "--data", str(paths["pool600"]),
            "--labeled", str(LC_LABELED), "--u-values", ",".join(map(str, LC_U_VALUES)),
            "--repeats", str(LC_REPEATS), "--seed", str(seed),
            "--threads", str(LC_THREADS), "--out", str(report)]
    return [Command("learning-curve", tuple(argv), experiment_outputs(report), {
        "data": paths["pool600"], "labeled": LC_LABELED, "u_values": LC_U_VALUES,
        "repeats": LC_REPEATS})]


def _oracle(seed, paths, out):
    return [Command("diagnose", ("diagnose", "--data", str(paths[name])), (),
                    {"data": paths[name], "lam": 0.0})
            for name in ("cluster20", "cluster396")]


WORKLOADS = {
    "large-fit": Workload(
        (InputSpec("cluster20k", 1, 2, LARGE_U), InputSpec("gauss20k", 2, 2, LARGE_U)),
        _large_fit),
    "restart-study": Workload(
        (*(InputSpec(name, 1, BASIN_LABELED_PER_CLASS, 396) for name in BASIN_FILES),
         InputSpec("poolA", 1, 100), InputSpec("poolB", 2, 100)),
        _restart_study),
    "learning-curve": Workload((InputSpec("pool600", 2, 300),), _learning_curve),
    "oracle": Workload(
        (InputSpec("cluster20", 1, 2, 20), InputSpec("cluster396", 1, 2, 396)),
        _oracle),
}
