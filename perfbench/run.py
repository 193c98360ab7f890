#!/usr/bin/env python3
"""Benchmark of the fockdyn command line.

    python3 perfbench/run.py --workload truncate --seed 1 --seconds 30 --trace 0

Run from the root of a fockdyn checkout: the program is imported from
./src.  One process, one client, closed loop: each round runs the
workload's fixed list of commands through fockdyn.cli.main on the next
input set of a pool generated from --seed, and rounds are timed as a whole.
Every report is checked apart from the program, outside the timed
interval.  The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 passes
over the pool alternate between untraced and traced, and the metrics are
per-layer figures per traced round.  Details of each run go to
.perfbench/results/ and the spans of one traced round to .perfbench/traces/.
"""

import time

START = time.perf_counter()

import os  # noqa: E402

# One BLAS/OpenMP thread: with two threads on a 2-core machine the spread
# of round times doubles.  This must happen before numpy is first imported.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "FOCK_DYNAMICS_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import hostspeed  # noqa: E402
import workloads  # noqa: E402
from tracer import COUNTS, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
# Extra processes that only set up, spread over the timed phase so that
# setup_s, a median of 7, samples the machine at the same times as the rounds.
SETUP_PROBES = 6
TAIL_BEYOND = 10  # round_tail_s has at least this many rounds above it


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("truncate", "decide", "expand", "interactive"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_cli():
    """fockdyn.cli from this checkout's src/, never from elsewhere."""
    cli_path = ROOT / "src" / "fockdyn" / "cli.py"
    if not cli_path.is_file():
        raise SystemExit(f"perfbench: {cli_path} is missing; run from the root of a fockdyn checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import fockdyn.cli

    if Path(fockdyn.cli.__file__).resolve() != cli_path:
        raise SystemExit(f"perfbench: imported {fockdyn.cli.__file__}, not {cli_path}")
    return fockdyn.cli


class Bench:
    """The pool on disk, the CLI calls of a round and the checks of their reports."""

    def __init__(self, cli, pool, work: Path):
        self.main = cli.main
        self.pool = pool
        self.work = work
        self.reference = {}  # (round, command) -> report bytes of the checked first run
        self.errors = []  # check failures
        self.failures = []  # commands that did not exit 0
        work.mkdir(parents=True)
        self.argv = []
        for r, commands in enumerate(pool):
            row = []
            for k, cmd in enumerate(commands):
                path = work / f"in-{r}-{k}.json"
                path.write_text(json.dumps(cmd.doc))
                row.append([cmd.verb, str(path), *cmd.flags, "--output", str(work / f"out-{r}-{k}.json")])
            self.argv.append(row)

    def call(self, argv) -> str | None:
        """Run one command; None on exit 0, else what went wrong."""
        try:
            code = self.main(argv)
        except (Exception, SystemExit) as exc:  # a traceback or usage exit is a failed command
            return f"{type(exc).__name__}: {exc}"
        return None if code == 0 else f"exit {code}"

    def run_round(self, r: int, tracer=None):
        outcomes = []
        start = time.perf_counter()
        for k, argv in enumerate(self.argv[r]):
            if tracer is not None:
                tracer.request = k
            outcomes.append(self.call(argv))
        return time.perf_counter() - start, outcomes

    def verify(self, r: int, outcomes) -> int:
        """Check a round's reports; returns the number of failed commands."""
        failed = 0
        for k, (cmd, outcome) in enumerate(zip(self.pool[r], outcomes)):
            label = f"round {r} command {k} ({cmd.verb} {' '.join(cmd.flags)})"
            if outcome is not None:
                failed += 1
                self.failures.append(f"{label}: {outcome}")
                continue
            data = (self.work / f"out-{r}-{k}.json").read_bytes()
            if (r, k) in self.reference:
                if data != self.reference[(r, k)]:
                    self.errors.append(f"{label}: report differs from the earlier run on the same input")
                continue
            self.reference[(r, k)] = data
            try:
                companion = None
                if cmd.companion is not None:
                    path = self.work / f"companion-{r}-{k}.json"
                    argv = [cmd.verb, str(self.work / f"in-{r}-{k}.json"), *cmd.companion, "--output", str(path)]
                    outcome = self.call(argv)
                    if outcome is not None:
                        raise checks.CheckError(f"companion run {cmd.companion}: {outcome}")
                    companion = json.loads(path.read_text())
                cmd.check(json.loads(data), companion)
            except (checks.CheckError, KeyError, IndexError, TypeError, ValueError) as exc:
                # a report without the fields a check reads is wrong too
                self.errors.append(f"{label}: {type(exc).__name__}: {exc}")
        return failed


def probe_setup(args) -> tuple:
    """(set-up time, reference job time) of a fresh process doing the same
    set-up on the same pool; the reference job is timed just before the
    process starts, in it just after its set-up, and after it has ended."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed), "--setup-probe"]
    reference = hostspeed.measure(3)
    with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        try:
            out, err = proc.communicate(timeout=150)
        except BaseException:
            proc.terminate()  # the probe removes its work files on SIGTERM
            proc.wait()
            raise
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: set-up probe failed:\n{err}")
    probe = json.loads(out.strip().splitlines()[-1])
    return probe["setup_s"], (reference + probe["reference_s"] + hostspeed.measure(3)) / 3


def tail(values) -> float:
    """Highest round time with at least TAIL_BEYOND rounds above it."""
    ordered = sorted(values)
    return ordered[-TAIL_BEYOND - 1] if len(ordered) > TAIL_BEYOND else ordered[-1]


def normalized(samples) -> list:
    """Times scaled to the host speed at which the reference job takes
    hostspeed.REFERENCE_S; samples are (time, reference job time)."""
    return [t * hostspeed.REFERENCE_S / ref for t, ref in samples]


def end_to_end(times, n_commands, setups) -> dict:
    return {
        "cmds_per_s": {"value": len(times) * n_commands / sum(times), "unit": "1/s"},
        "round_p50_s": {"value": statistics.median(times), "unit": "s"},
        "round_tail_s": {"value": tail(times), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MiB"},
    }


def per_layer(tracer, traced_times, untraced_times) -> dict:
    n = len(traced_times)
    out = {}
    for name in tracer.calls:
        out[f"{name}.calls"] = {"value": tracer.calls[name] / n, "unit": "count"}
        out[f"{name}.self_s"] = {"value": tracer.self_s[name] / n, "unit": "s"}
    for name, unit in COUNTS:
        out[name] = {"value": tracer.counts[name] / n, "unit": unit}
    search_s = tracer.self_s["relations.numeric_relation_search"]
    enum_s = tracer.self_s["fockmat.enumeration.enumerate_lambda_desc"]
    out["relations.candidates_per_s"] = {
        "value": tracer.counts["relations.candidates"] / search_s if search_s else 0.0,
        "unit": "1/s",
    }
    out["fockmat.enumeration.values_per_s"] = {
        "value": tracer.counts["fockmat.enumeration.values"] / enum_s if enum_s else 0.0,
        "unit": "1/s",
    }
    out["trace.overhead_s"] = {
        "value": statistics.median(traced_times) - statistics.median(untraced_times),
        "unit": "s",
    }
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    # on SIGTERM, unwind: remove the work files and end a running set-up probe
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seconds <= 0:
        raise SystemExit("perfbench: --seconds must be positive")
    cli = load_cli()
    work = OUT / f"work-{os.getpid()}"
    try:
        bench = Bench(cli, workloads.build_pool(args.workload, args.seed), work)
        _, outcomes = bench.run_round(0)  # warm-up: pays for the lazy imports
        setup = time.perf_counter() - START
        reference = hostspeed.measure(3)
        if args.setup_probe:
            print(json.dumps({"setup_s": setup, "reference_s": reference}))
            return 0
        bench.verify(0, outcomes)
        setups = [(setup, reference)]

        # traced and untraced passes over the pool alternate, so both see
        # every input and the same stretches of machine time
        tracer = Tracer() if args.trace else None
        untraced, traced = [], []  # (round time, reference job time around it)
        attempted = failed = 0
        pool_size = len(bench.pool)
        begin = time.perf_counter()
        deadline = begin + args.seconds
        probe_times = [] if tracer else [begin + args.seconds * (i + 0.5) / SETUP_PROBES for i in range(SETUP_PROBES)]
        r = 0
        while time.perf_counter() < deadline or not untraced or (tracer and not traced):
            if probe_times and time.perf_counter() >= probe_times[0]:
                probe_times.pop(0)
                setups.append(probe_setup(args))
            active = tracer if tracer is not None and (r // pool_size) % 2 == 1 else None
            if tracer is not None and r % pool_size == 0:
                if active is not None:
                    tracer.install()
                    tracer.record = not traced
                else:
                    tracer.uninstall()
            gc.collect()
            before = hostspeed.measure()
            elapsed, outcomes = bench.run_round(r % pool_size, active)
            after = hostspeed.measure()
            if active is not None:
                tracer.record = False
            (traced if active is not None else untraced).append((elapsed, (before + after) / 2))
            attempted += len(outcomes)
            failed += bench.verify(r % pool_size, outcomes)
            r += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    n_commands = len(bench.pool[0])
    raw_untraced = [t for t, _ in untraced]
    raw_traced = [t for t, _ in traced]
    if tracer is None:
        metrics = end_to_end(normalized(untraced), n_commands, normalized(setups))
    else:
        metrics = per_layer(tracer, raw_traced, raw_untraced)
    for message in (bench.failures + bench.errors)[:20]:
        print(f"perfbench: {message}", file=sys.stderr)
    result = {"correct": not bench.errors, "attempted": attempted, "failed": failed, "metrics": metrics}

    import numpy
    import scipy

    details = {
        "args": vars(args),
        "result": result,
        "rounds": len(untraced) + len(traced),
        "commands_per_round": n_commands,
        "pool_size": pool_size,
        "reference_s": hostspeed.REFERENCE_S,
        "raw_round_p50_s": statistics.median(raw_untraced),
        "raw_cmds_per_s": len(raw_untraced) * n_commands / sum(raw_untraced),
        "raw_setup_s": statistics.median([t for t, _ in setups]),
        "round_times_s": raw_untraced,
        "round_reference_s": [ref for _, ref in untraced],
        "traced_round_times_s": raw_traced,
        "setup_samples_s": [t for t, _ in setups],
        "setup_reference_s": [ref for _, ref in setups],
        "tail_percentile": 100.0 * (1 - TAIL_BEYOND / max(len(untraced), 1)),
        "failures": bench.failures,
        "check_errors": bench.errors,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpus": os.cpu_count(),
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{stem}.json").write_text(json.dumps(details, indent=1))
    if tracer is not None:
        spans = [
            {"id": i, "parent": p, "request": q, "name": n, "start": s, "end": e}
            for i, p, q, n, s, e in tracer.spans
        ]
        (OUT / "traces").mkdir(parents=True, exist_ok=True)
        (OUT / "traces" / f"{stem}.json").write_text(json.dumps(spans))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
