"""pfta benchmark: seeded CLI workloads, closed loop, one client.

Usage, from the repository root:

    python3 bench/run.py --workload reference --seed 1 --seconds 25 --trace 0

Each request is one `pfta` command, run in this process through
`pfta.cli.main(argv)` on model files generated from the seed, and its
output is checked against the closed forms in `families`. With
`--trace 0` whole passes of the workload run until `--seconds` have
passed, the calibration kernel of `calibrate` runs before every request,
and the end-to-end metrics are reported. With
`--trace 1` an untraced, a traced and an untraced pass run, and the
per-layer metrics of the traced pass are reported (a fixed pass, so that
the search counters repeat exactly for a seed). `--tiny` swaps in small
models; `selfcheck.py` uses it.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Lines before it repeat the metrics for people, including the per-command
means that only some workloads produce.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from calibrate import kernel
from checks import check
from families import model_text
from workloads import WORKLOADS, Plan, Request, shared_analysis_pairs

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_build" / "pfta-bench"
SETUP_SAMPLES = 9
# Before each request the calibration kernel runs for this share of the
# latest latency of the request's kind, between 1 and KERNEL_MAX_RUNS times.
KERNEL_SHARE = 0.2
KERNEL_MAX_RUNS = 40
TICK_S = 0.1
# Kernel runs before and after each set-up sample, and the kernel time of
# the reference speed at which `setup_s` is reported (RATIONALE.md).
SETUP_KERNEL_RUNS = 10
KERNEL_REF_S = 0.005
PROBE_TIMEOUT_S = 60

COMMAND_MEANS = ("mcs", "mcs_posterior", "unrel", "curve", "posterior", "oracle",
                 "compile", "validate")


def _import_pfta():
    """Import pfta from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "pfta" / "cli.py").is_file():
        raise SystemExit(f"error: no pfta sources under {src}")
    sys.path.insert(0, str(src))
    import pfta.cli
    if Path(pfta.cli.__file__).resolve().parent != (src / "pfta").resolve():
        raise SystemExit(f"error: imported pfta from {pfta.cli.__file__}, not {src}")
    return pfta.cli


def _set_up(plan: Plan) -> None:
    os.makedirs(plan.model_dir, exist_ok=True)
    for spec in plan.models:
        Path(plan.path(spec)).write_text(model_text(spec), encoding="utf-8")


def _probe(args) -> int:
    """Child side of a set-up sample: import, write the models, say ready."""
    start = time.perf_counter()
    _import_pfta()
    import_s = time.perf_counter() - start
    _set_up(Plan(args.workload, args.seed, args.tiny, args.probe))
    print(f"ready {import_s!r}", flush=True)
    return 0


def _setup_sample(args, tag: str) -> tuple[float, float]:
    """Wall time from spawning a fresh interpreter until it is ready to send,
    and the part of it spent importing pfta."""
    model_dir = WORK / f"probe-{os.getpid()}-{tag}"
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--probe", str(model_dir)]
    if args.tiny:
        cmd.append("--tiny")
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
        try:
            line = child.stdout.readline()
            wall = time.perf_counter() - start
            child.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
    shutil.rmtree(model_dir, ignore_errors=True)
    if child.returncode != 0 or not line.startswith("ready "):
        raise SystemExit(f"error: set-up probe failed with exit code {child.returncode}")
    return wall, float(line.split()[1])


@dataclass
class Record:
    req: Request
    latency: float
    failure: str | None  # why the request failed, None when its output checked
    bound_width: float | None  # upper - lower of a bounded unrel answer
    ticks: list[float]  # kernel times sampled while the request ran


class Ticker:
    """Runs the calibration kernel from a timer signal every TICK_S seconds
    while a request runs, so that a long request also gets speed samples
    from its own duration; the request's latency leaves them out."""

    def __init__(self):
        self.samples: list[float] = []
        self.armed = False

    def _tick(self, signum, frame):
        if self.armed:
            self.samples.append(kernel())

    def __enter__(self):
        self.previous = signal.signal(signal.SIGALRM, self._tick)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)

    @contextlib.contextmanager
    def during(self):
        """Collect the ticks of one request; yields the list they go to."""
        self.samples = []
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield self.samples
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self.armed = False


def _send(main, req: Request, tracer=None, ticker: Ticker | None = None) -> Record:
    out, err = io.StringIO(), io.StringIO()
    gc.collect()  # start from a clean heap, as a fresh pfta process does
    ticks: list[float] = []
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                (ticker.during() if ticker else contextlib.nullcontext(ticks)) as ticks:
            rc = main(list(req.argv))
    except SystemExit as exc:  # argparse rejected the command line
        rc = 0 if exc.code is None else exc.code
    except Exception as exc:  # a traceback a user would see
        latency = time.perf_counter() - start - sum(ticks)
        return Record(req, latency, f"raised {type(exc).__name__}: {exc}", None, ticks)
    latency = time.perf_counter() - start - sum(ticks)
    if tracer is not None:
        tracer.counts["cli.output_bytes"] += len(out.getvalue().encode())
    failure, width = check(req, rc, out.getvalue())
    if failure is not None and err.getvalue():
        failure += f" (stderr: {err.getvalue().strip()[:200]})"
    return Record(req, latency, failure, width, ticks)


def _run_pass(main, plan: Plan, tracer=None) -> list[Record]:
    records = []
    for req in plan.next_pass():
        if tracer is not None:
            tracer.request += 1
        records.append(_send(main, req, tracer))
    return records


def _report(metrics: dict[str, tuple[float, str]], extra: dict[str, tuple[float, str]],
            records: list[Record], notes: list[str]) -> None:
    for req_record in records:
        if req_record.failure is not None:
            print(f"FAILED {' '.join(req_record.req.argv)}: {req_record.failure}",
                  file=sys.stderr)
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{name:<40} {value:.6g} {unit}")
    for note in notes:
        print(note)


def _finish(records: list[Record], metrics: dict[str, tuple[float, str]]) -> None:
    shared = shared_analysis_pairs([r.req for r in records])
    if shared:
        raise SystemExit(f"error: analysis requests shared (model, time) pairs: {shared[:3]}")
    failed = sum(r.failure is not None for r in records)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def _calibration(last: float, kernel_s: list[float]) -> list[float]:
    """Kernel times of the calibration block run before a request whose kind
    last took `last` seconds: KERNEL_SHARE of that, at least one run."""
    runs = round(KERNEL_SHARE * last / statistics.fmean(kernel_s))
    block = [kernel() for _ in range(min(KERNEL_MAX_RUNS, max(1, runs)))]
    kernel_s.extend(block)
    return block


def _calibrated_setup(args, tag: str) -> tuple[float, float]:
    """A set-up sample's wall time and the mean kernel time around it."""
    before = [kernel() for _ in range(SETUP_KERNEL_RUNS)]
    wall = _setup_sample(args, tag)[0]
    after = [kernel() for _ in range(SETUP_KERNEL_RUNS)]
    return wall, statistics.fmean(before + after)


def _timed(args, main, plan: Plan) -> None:
    """Whole passes until --seconds have passed, a calibration block before
    every request and one after the last; report the end-to-end metrics."""
    records: list[Record] = []
    blocks: list[list[float]] = []  # blocks[i] ran just before records[i]
    kernel_s = [kernel()]
    last: dict = {}  # request kind -> its latest latency
    setup: list[tuple[float, float]] = []  # (wall time, kernel time around it)
    samples = 1 if args.tiny else SETUP_SAMPLES
    start = time.perf_counter()
    passes = 0
    with Ticker() as ticker:
        while not passes or time.perf_counter() - start < args.seconds:
            # set-up samples are spread over the run, so that they meet the
            # same mix of host speeds as the requests
            elapsed = (time.perf_counter() - start) / args.seconds
            if len(setup) < min(samples, 1 + int(elapsed * samples)):
                setup.append(_calibrated_setup(args, str(len(setup))))
            for req in plan.next_pass():
                blocks.append(_calibration(last.get(req.template, 0.0), kernel_s))
                records.append(_send(main, req, ticker=ticker))
                last[req.template] = records[-1].latency
            passes += 1
    blocks.append(_calibration(max(last.values()), kernel_s))
    while len(setup) < samples:
        setup.append(_calibrated_setup(args, str(len(setup))))

    # Each request's latency in units of the kernel runs just before, during
    # and just after it (RATIONALE.md): for each request kind, total latency
    # over total kernel time around it, summed over the kinds of a pass.
    around = [statistics.fmean(blocks[i] + records[i].ticks + blocks[i + 1])
              for i in range(len(records))]
    pass_kernels = 0.0
    for tpl in plan.templates:
        mine = [i for i, r in enumerate(records) if r.req.template == tpl]
        pass_kernels += sum(records[i].latency for i in mine) / sum(around[i] for i in mine)
    metrics = {
        "setup_s": (statistics.median(wall / k for wall, k in setup) * KERNEL_REF_S, "s"),
        "pass_kernels": (pass_kernels, "kernels"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    latencies = [r.latency for r in records]
    request_s = sum(latencies)
    completed = sum(r.failure is None for r in records)
    extra = {
        "setup_wall_s": (statistics.median(wall for wall, _ in setup), "s"),
        "kernel_mean_s": (statistics.fmean(kernel_s), "s"),
        "kernel_runs": (len(kernel_s), "count"),
        "kernel_ticks": (sum(len(r.ticks) for r in records), "count"),
        "requests_per_s": (completed / request_s, "1/s"),
        "request_p50_s": (statistics.median(latencies), "s"),
        "failed_ratio": (1 - completed / len(records), "ratio"),
        "requests": (len(records), "count"),
        "passes": (passes, "count"),
    }
    if len(records) >= 100:
        extra["request_p90_s"] = (statistics.quantiles(latencies, n=10)[-1], "s")
    for label in COMMAND_MEANS:
        mine = [r.latency for r in records if r.req.template.label == label]
        if mine:
            extra[f"{label}_mean_s"] = (statistics.fmean(mine), "s")
    widths = [r.bound_width for r in records if r.bound_width is not None]
    if widths:
        extra["bound_width_mean"] = (statistics.fmean(widths), "probability")
    _report(metrics, extra, records, [])
    _finish(records, metrics)


def _traced(args, main, plan: Plan) -> None:
    from tracing import Tracer

    samples = 1 if args.tiny else SETUP_SAMPLES
    imports = [_setup_sample(args, str(i))[1] for i in range(samples)]

    # an untraced pass on each side of the traced one, so that the first
    # pass's cold start does not land on either side of the overhead ratio
    before = _run_pass(main, plan)
    tracer = Tracer()
    with tracer.installed():
        traced = _run_pass(tracer.span("cli.main", main), plan, tracer)
    after = _run_pass(main, plan)
    plain_s = sum(r.latency for r in before + after) / 2
    traced_s = sum(r.latency for r in traced)
    metrics = {"setup.import_s": (statistics.median(imports), "s")}
    metrics.update(tracer.metrics())
    metrics["trace.request_s"] = (traced_s, "s")
    metrics["trace.overhead_ratio"] = (plain_s / traced_s, "ratio")
    notes = [f"share of traced request time, {name}: {share:.1%}"
             for name, share in tracer.shares().items()]
    notes += [f"not traced (name not found): {name}" for name in tracer.missing]
    records = before + traced + after
    _report(metrics, {}, records, notes)
    _finish(records, metrics)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small models, for self-checks")
    parser.add_argument("--probe", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe:
        return _probe(args)

    cli = _import_pfta()
    plan = Plan(args.workload, args.seed, args.tiny, str(WORK / f"run-{os.getpid()}"))
    try:
        _set_up(plan)
        if args.trace:
            _traced(args, cli.main, plan)
        else:
            _timed(args, cli.main, plan)
    finally:
        shutil.rmtree(plan.model_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
