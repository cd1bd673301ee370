"""Benchmark of nucleal: one seeded workload per run, with checked outputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 32 --trace 0

Workloads (see BENCHMARK.json and perfbench/README.md):

* `verify-all`: `cli.run_suite("all", 200, seed)`, i.e. `nucleal report`;
* `exhaustive-rel`: star-laws and nuclear checks swept exhaustively on
  partial injections (sets of size <= 3) and relations (size <= 2);
* `cli-ops`: a closed loop of one-operation `cli.main` calls over JSON files.

A run repeats whole passes of the workload, in this one process and
thread, for about `--seconds`.  With `--trace 0` the last line of
standard output is a JSON object with the end-to-end metrics, whose
times are scaled by the host speed sampled during each pass (see
`hostspeed.py`); with
`--trace 1` the same object carries the per-layer metrics of a traced run
instead (see `tracing.py`), and the spans go to `.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter, thread_time

import batch
import cliops
import hostspeed
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("verify-all", "exhaustive-rel", "cli-ops")
SETUP_REPEATS = 9
TAIL_BEYOND = 10


class Pass:
    """Outcome of one pass: operations attempted and failed, law cases
    checked, operation latencies in seconds, and what must repeat."""

    def __init__(self, attempted, failed, cases, latencies, signature=None, notes=()):
        self.attempted, self.failed, self.cases = attempted, failed, cases
        self.latencies, self.signature, self.notes = latencies, signature, list(notes)
        self.wall = sum(latencies)
        self.elapsed = 0.0  # wall time of the whole pass, output checks included
        self.probes: list[float] = []  # host speed probes taken during the pass
        self.peak_rss_mb = 0.0  # of the process, at the end of this pass
        self.layers: dict = {}  # per-layer metrics of a traced pass


def prepare(workload: str, seed: int, workdir: Path, tracer=None, clock=perf_counter):
    """Import the program, build the workload's inputs, return its pass
    function, which times the program on `clock`."""
    import importlib

    from nucleal import cli
    from nucleal.core import harness

    if tracer is not None:
        tracer.install(cli, harness)

    if workload == "verify-all":
        suites = tracing.suite_names(cli)

        def verify_all():
            t0 = clock()
            if tracer is None:
                reports = cli.run_suite("all", batch.VERIFY_BUDGET, seed)
            else:  # suite by suite, the same reports in the same order
                reports = []
                for name in suites:
                    reports += tracer.span("cli", f"suite.{name}", cli.run_suite,
                                           name, batch.VERIFY_BUDGET, seed)
            wall = clock() - t0
            return Pass(len(reports), batch.verify_all_failures(reports),
                        sum(r.cases for r in reports), [wall], batch.signature(reports),
                        [r.summary() for r in reports if not r.ok and not r.is_finding])

        return verify_all

    if workload == "exhaustive-rel":
        budget = batch.EXHAUSTIVE_BUDGET
        plan = []
        for model, size in batch.EXHAUSTIVE_MODELS:
            triple = importlib.import_module(f"nucleal.{model}").structures()
            if tracer is not None:
                triple = tracer.triple(triple)
            plan.append((triple[0], triple[1], size, batch.expected_cases(model, size)))

        def exhaustive_rel():
            done = []
            t0 = clock()
            for inst, nuc, size, expected in plan:
                done.append(("star-laws", expected, harness.check_star_laws(
                    inst, budget, seed, max_size=size)))
                done.append(("nuclear", expected, harness.check_nuclear_axioms(
                    inst, nuc, budget, seed, max_size=size)))
            wall = clock() - t0
            reports = [rep for _, _, rep in done]
            bad = [rep.summary() for check, expected, rep in done
                   if not batch.exhaustive_ok(rep, check, expected[check])]
            return Pass(len(reports), len(bad), sum(r.cases for r in reports), [wall],
                        batch.signature(reports), bad)

        return exhaustive_rel

    ops = cliops.build(seed, workdir)
    main = cli.main if tracer is None else (
        lambda argv: tracer.span("cli", "main", cli.main, argv)
    )

    def cli_ops():
        latencies, failures = cliops.run_pass(ops, main, clock)
        return Pass(len(ops), len(failures), len(ops), latencies, None, failures)

    return cli_ops


def measure(run_pass, seconds: float, min_passes: int, between=None,
            tracer=None, speed=None) -> list[Pass]:
    """Run passes while the next one is expected to end within `seconds`.

    `speed` probes the host during each pass.  `between()` runs after
    each pass; its time does not count."""
    passes = []
    used = 0.0
    while True:
        t0 = perf_counter()
        if speed is not None:
            speed.start()
        p = run_pass()
        if speed is not None:
            p.probes = speed.stop()
        p.elapsed = perf_counter() - t0
        used += p.elapsed
        p.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            p.layers = tracer.end_pass(p.wall)
        passes.append(p)
        if between is not None:
            between()
        typical = statistics.median(p.elapsed for p in passes)
        if len(passes) >= min_passes and used + typical > seconds:
            return passes


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond) of the highest percentile with
    TAIL_BEYOND samples beyond it; the maximum when there are too few."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return 100.0, xs[-1], 0
    k = n - TAIL_BEYOND
    return 100 * k / n, xs[k - 1], TAIL_BEYOND


def setup_only(args, workdir: Path) -> None:
    """Import the program and build the inputs in this fresh interpreter;
    print the CPU time its main thread has used so far, interpreter
    start-up included, and host speed probes taken right after.  Threads
    that numpy's BLAS starts at import are left out: they only spin."""
    prepare(args.workload, args.seed, workdir)
    used = thread_time()
    print(json.dumps({"setup_s": used, "probes": hostspeed.burst()}))


class SetupTimer:
    """Set-up times of fresh interpreters (see `setup_only`), taken
    between passes at even intervals of the run, so that the samples
    spread over it like the passes do."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.argv = [sys.executable, str(Path(__file__).resolve()),
                     "--workload", workload, "--seed", str(seed), "--setup-only"]
        self.times: list[float] = []
        self.probes: list[list[float]] = []
        self.start, self.every = perf_counter(), seconds / SETUP_REPEATS

    def sample(self) -> None:
        out = subprocess.run(self.argv, check=True, cwd=ROOT, capture_output=True,
                             text=True).stdout
        child = json.loads(out.splitlines()[-1])
        self.times.append(child["setup_s"])
        self.probes.append(child["probes"])

    def __call__(self) -> None:
        due = self.start + self.every * len(self.times)
        if len(self.times) < SETUP_REPEATS and perf_counter() >= due:
            self.sample()

    def finish(self) -> None:
        while len(self.times) < SETUP_REPEATS:
            self.sample()


def end_to_end(passes: list[Pass], setup: SetupTimer, tail_passes: int,
               scaled: bool = True) -> tuple[dict, str]:
    """Each time is scaled by the host speed probed while it was measured
    (see hostspeed.py); `scaled=False` gives the times as measured.
    `op_tail_ms` is the median over windows of `tail_passes` passes, so
    that it is read over the same number of operations on every commit."""
    run_scale = hostspeed.scale([x for p in passes for x in p.probes]) if scaled else 1.0
    scales = [hostspeed.scale(p.probes) if scaled and p.probes else run_scale
              for p in passes]
    setups = [t * (hostspeed.scale(probes, statistics.median) if scaled else 1.0)
              for t, probes in zip(setup.times, setup.probes)]
    lats = [[x * k for x in p.latencies] for p, k in zip(passes, scales)]
    walls = [p.wall * k for p, k in zip(passes, scales)]
    lat = [x for xs in lats for x in xs]
    windows = [
        tail([x for xs in lats[i:i + tail_passes] for x in xs])
        for i in range(0, len(passes) - tail_passes + 1, tail_passes)
    ]
    pct, _, beyond = windows[0]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "cases_per_s": (sum(p.cases for p in passes) / sum(walls), "1/s"),
        "ops_per_s": (len(lat) / sum(walls), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms": (statistics.median(t for _, t, _ in windows) * 1e3, "ms"),
        # after the first pass, so that it does not grow with the pass count
        "peak_rss_mb": (passes[0].peak_rss_mb, "MB"),
    }
    size = len(passes[0].latencies) * tail_passes
    note = (f"op_tail_ms is the median over {len(windows)} window(s) of "
            f"p{pct:.4g} of {size} operations ({beyond} beyond it)")
    return metrics, note


def per_layer(passes: list[Pass], suites: list[str]) -> dict:
    """Median over passes; exact counts, equal in every pass, as integers."""
    counts = tracing.exact_counts(passes[0].layers)
    return {
        name: (counts[name] if name in counts
               else statistics.median(p.layers[name] for p in passes), unit)
        for name, unit, _ in tracing.per_layer_names(suites)
    }


def run(args) -> int:
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        if args.setup_only:
            setup_only(args, workdir)
            return 0
        tracer = tracing.Tracer() if args.trace else None
        setup = None if args.trace else SetupTimer(args.workload, args.seed,
                                                   args.seconds)
        speed = None if args.trace else hostspeed.HostSpeed()
        run_pass = prepare(args.workload, args.seed, workdir, tracer,
                           perf_counter if speed is None else speed.clock)
        # cli-ops reads its tail over windows of several passes
        tail_passes = cliops.TAIL_PASSES if args.workload == "cli-ops" else 1
        passes = measure(run_pass, args.seconds, 2 if args.trace else tail_passes,
                         setup, tracer, speed)
        if setup is not None:
            setup.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run is still using it

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    correct = failed == 0
    for i, p in enumerate(passes):
        for note in p.notes[:5]:
            print(f"pass {i + 1} failed: {note}", file=sys.stderr)
        if p.signature != passes[0].signature:
            correct = False
            print(f"pass {i + 1}: reports differ from pass 1 with the same seed",
                  file=sys.stderr)

    if args.trace:
        for i, p in enumerate(passes):
            if tracing.exact_counts(p.layers) != tracing.exact_counts(passes[0].layers):
                correct = False
                print(f"pass {i + 1}: exact counts differ from pass 1", file=sys.stderr)
        metrics = per_layer(passes, tracer.suites)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        print(f"traced passes: {len(passes)}, traced wall_s "
              f"{metrics['trace.wall_s'][0]:.3f} s (overhead: minus the untraced "
              f"wall_s as measured)")
    else:
        metrics, note = end_to_end(passes, setup, tail_passes)
        measured, _ = end_to_end(passes, setup, tail_passes, scaled=False)
        for name, (value, unit) in metrics.items():
            print(f"{name} = {value:.6g} {unit} (as measured: {measured[name][0]:.6g})")
        print(note)
        probes = [x for p in passes for x in p.probes]
        print(f"host speed: {len(probes)} probes, mean {statistics.fmean(probes) * 1e3:.4g} ms "
              f"against the reference {hostspeed.REF_S * 1e3:.4g} ms")
        print("setup_s samples as measured: " + " ".join(f"{t:.3f}" for t in setup.times))
        print(f"failed_frac = {failed}/{attempted} operations "
              f"({'reports' if args.workload != 'cli-ops' else 'CLI calls'}) "
              f"over {len(passes)} passes")

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=32.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import and build the inputs, then exit (times set-up)")
    args = ap.parse_args(argv)
    if not (SRC / "nucleal" / "cli.py").is_file():
        print(f"perfbench: no nucleal sources under {SRC}", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
