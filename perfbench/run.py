"""Benchmark of the ``sgnn`` engine: one command per workload and seed.

    python3 perfbench/run.py --workload rollout --seed 3 --seconds 20 --trace 0

Run from the root of a source tree; the package is imported from ``src/``
of that tree.  Everything runs in this process on one thread.  With
``--trace 0`` the loop runs untraced and the last line of standard output is
a JSON object with the end-to-end metrics; with ``--trace 1`` the loop runs
twice from fresh state, untraced and then traced, and the JSON holds the
per-layer metrics and the tracing overhead.  Earlier lines give the run
record and every metric by the name used in README.md.  Outputs (run
record, spans) go to ``.perfbench-out/`` in the tree.
"""

from __future__ import annotations

import os

# pinned before numpy loads its BLAS
THREADS = {"SGNN_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
os.environ.update(THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from hostspeed import NOMINAL_S, HostSpeed  # noqa: E402
from layer_metrics import per_layer  # noqa: E402
from tracer import Patches, SpanRecorder, UnitClock, span_cost_s  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_REPEATS = 11
# later claims must also hold on this seed; do not tune against it
HELD_OUT_SEED = 7919
# the keys of workloads.WORKLOADS, which cannot be imported before src/ is checked
WORKLOAD_NAMES = ("generate", "train", "train_gns", "rollout")


@dataclass
class Timed:
    seconds: float = 0.0
    intervals: list[float] = field(default_factory=list)


class Session:
    """Times the loop's calls into the program and switches the recorder to
    the loop phase while they run."""

    def __init__(self, recorder, clock):
        self.recorder = recorder
        self.clock = clock
        self.measured = 0.0

    @contextmanager
    def timed(self):
        """Yields a ``Timed`` that holds, on exit, the call's duration and
        the durations of the units the unit clock saw end inside it, both
        without the clock's pauses."""
        t = Timed()
        self.clock.take()
        if self.recorder is not None:
            self.recorder.phase = "loop"
        start = time.perf_counter()
        try:
            yield t
        finally:
            t.intervals, paused = self.clock.take()
            t.seconds = time.perf_counter() - start - paused
            self.measured += t.seconds
            if self.recorder is not None:
                self.recorder.phase = None


def run_pass(workload, seconds: float, recorder=None) -> dict:
    """Set up, then run requests while the measured time plus half a mean
    request stays below ``seconds``, so a run ends within half a request of
    ``seconds`` (training epochs last seconds).  Set-up runs ``SETUP_REPEATS``
    times: once for the loop's state, and the other times spread over the
    loop between requests, their states discarded, so that the median set-up
    samples the host over the whole run as the loop does (the host's speed
    changes from one second to the next by up to a factor of two).  An
    untraced pass probes the host's speed between units and between
    requests, outside the measured time; a traced pass does not, so that
    no span holds a probe."""
    patches = Patches()
    setups = []
    host = HostSpeed() if recorder is None else None

    def timed_setup():
        if recorder is not None:
            recorder.phase = "setup"
        start = time.perf_counter()
        try:
            return workload.setup()
        finally:
            setups.append(time.perf_counter() - start)
            if recorder is not None:
                recorder.phase = None

    try:
        if recorder is not None:
            recorder.install(patches)
        state = timed_setup()
        tags, boundary = workload.start(state)
        if recorder is not None:
            recorder.tags.update(tags)
        clock = UnitClock(boundary[2] if boundary else 1, host.probe if host else None)
        if boundary is not None:
            owner, name, _ = boundary
            patches.set(owner, name, clock.wrap(vars(owner)[name]))
        session = Session(recorder, clock)
        ops = []
        while not ops or session.measured + 0.5 * session.measured / len(ops) < seconds:
            ops.append(workload.op(state, len(ops), session))
            if host is not None:
                host.probe()
            due = 1 + (SETUP_REPEATS - 1) * min(session.measured / seconds, 1.0)
            while len(setups) < int(due):
                timed_setup()
        while len(setups) < SETUP_REPEATS:
            timed_setup()
        checks = workload.final_checks(state)
    finally:
        patches.restore()
    return {"setups": setups, "ops": ops, "checks": checks, "measured": session.measured,
            "host": host}


def summarize(result: dict) -> dict:
    """Figures of one pass as measured, and, for an untraced pass, the same
    timings on the nominal host (``norm_*``, see hostspeed.py)."""
    units = sum(op.units for op in result["ops"])
    intervals = np.array([x for op in result["ops"] for x in op.intervals])
    out = {
        "units": units,
        "units_per_s": units / result["measured"],
        "setup_s": statistics.median(result["setups"]),
        "n_intervals": int(intervals.size),
        "attempted": units + len(result["checks"]),
        "failed": sum(op.failed for op in result["ops"])
                  + sum(not c.ok for c in result["checks"]),
        "digests": [op.digest for op in result["ops"]],
        "notes": [op.notes for op in result["ops"]],
        "checks": result["checks"],
    }
    for q in (50, 90, 95, 99):
        out[f"p{q}"] = float(np.percentile(intervals, q)) * 1e3 if intervals.size else float("nan")
    host = result["host"]
    if host is not None:
        scale = out["host_scale"] = host.scale()
        out["probes"] = len(host.samples)
        out["norm_units_per_s"] = out["units_per_s"] / scale
        for key in ("setup_s", "p50", "p90", "p95", "p99"):
            out[f"norm_{key}"] = out[key] * scale
    return out


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "sgnn").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def blas_version() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def run_record(args, load_at_start) -> dict:
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "workload": args.workload, "seed": args.seed, "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpus_allowed": affinity,
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas_version(),
        "git_revision": git_revision(), "source_sha256": source_digest(),
        "loadavg_at_start": list(load_at_start), "threads": THREADS,
    }


def metric_lines(workload, summary: dict) -> list[str]:
    """Every end-to-end metric under its workload-specific name, on the
    nominal host, then as measured."""
    rate, p50, p90 = workload.labels
    n = summary["n_intervals"]
    beyond = lambda q: int(n * (100 - q) / 100)  # noqa: E731
    lines = [
        f"{rate} = {summary['norm_units_per_s']:.6g} 1/s ({summary['units']} {workload.unit}s)",
        f"{p50} = {summary['norm_p50']:.6g} ms (n={n})",
        f"{p90} = {summary['norm_p90']:.6g} ms (n={n}, {beyond(90)} beyond)",
    ]
    for q in (95, 99):
        lines.append(f"{workload.name}_{workload.unit}_ms_p{q} = {summary[f'norm_p{q}']:.6g} ms "
                     f"(n={n}, {beyond(q)} beyond; not a metric below 10)")
    lines.append(f"setup_s = {summary['norm_setup_s']:.6g} s (median of {SETUP_REPEATS})")
    lines.append(f"host scale = {summary['host_scale']:.6g} (nominal kernel {NOMINAL_S * 1e3:.3g} ms "
                 f"over the median of {summary['probes']} probes); as measured: "
                 f"{rate} = {summary['units_per_s']:.6g} 1/s, {p50} = {summary['p50']:.6g} ms, "
                 f"{p90} = {summary['p90']:.6g} ms, setup_s = {summary['setup_s']:.6g} s")
    return lines


def outcome_lines(summary: dict) -> list[str]:
    """Failed requests, the largest value of each numeric note, the checks
    and the failed fraction."""
    lines = []
    largest = {}
    for k, notes in enumerate(summary["notes"]):
        for key, value in notes.items():
            if key == "error":
                lines.append(f"request {k} failed: {value}")
            else:
                largest[key] = max(value, largest.get(key, value))
    lines += [f"largest {key} = {value:.3g}" for key, value in largest.items()]
    for check in summary["checks"]:
        lines.append(f"check {check.name}: {'ok' if check.ok else 'FAILED'} ({check.detail})")
    frac = summary["failed"] / summary["attempted"]
    lines.append(f"failed_fraction = {frac:.6g} ({summary['failed']}/{summary['attempted']})")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    load_at_start = os.getloadavg()

    if not (SRC / "sgnn" / "__init__.py").is_file():
        print(f"error: no sgnn package under {SRC}; run from a source tree", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import sgnn
    if Path(sgnn.__file__).resolve().parent != (SRC / "sgnn").resolve():
        print(f"error: imported sgnn from {sgnn.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    record = run_record(args, load_at_start)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    try:
        workload.prepare(args.seed, workdir)
        # a traced run splits its time between an untraced and a traced pass
        seconds = args.seconds / 2 if args.trace else args.seconds
        untraced = summarize(run_pass(workload, seconds))
        traced = recorder = None
        if args.trace:
            recorder = SpanRecorder()
            traced = summarize(run_pass(workload, seconds, recorder))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines = metric_lines(workload, untraced) + outcome_lines(untraced)
    attempted, failed = untraced["attempted"], untraced["failed"]
    record["inputs_sha256"] = workload.inputs_digest
    record["first_request_digest"] = untraced["digests"][0]
    if args.trace:
        shared = min(len(untraced["digests"]), len(traced["digests"]))
        same = shared > 0 and untraced["digests"][:shared] == traced["digests"][:shared]
        attempted += traced["attempted"] + 1
        failed += traced["failed"] + (not same)
        overhead = (untraced["units_per_s"] / traced["units_per_s"] - 1.0) * 100.0
        lines += [f"traced pass: {line}" for line in outcome_lines(traced)]
        lines.append(f"digests of the untraced and traced passes agree on {shared} requests: {same}")
        lines.append(f"tracing overhead = {overhead:.4g} % ({traced['units_per_s']:.6g} traced vs "
                     f"{untraced['units_per_s']:.6g} untraced {workload.unit}s/s)")
        cost_us = span_cost_s() * 1e6
        metrics = per_layer(recorder, traced["units"], SETUP_REPEATS,
                            {"trace.overhead_pct": overhead, "trace.span_cost_us": cost_us})
        spans_per_s = metrics["trace.spans_per_unit"]["value"] * traced["units_per_s"]
        lines.append(f"estimated tracing cost = {spans_per_s * cost_us * 1e-4:.3g} % "
                     f"({metrics['trace.spans_per_unit']['value']:.4g} spans/{workload.unit} "
                     f"at {cost_us:.3g} us each)")
        recorder.write_jsonl(OUT / f"{args.workload}-seed{args.seed}.spans.jsonl")
        lines.append(f"{len(recorder.spans)} spans written to .perfbench-out/")
    else:
        metrics = {
            "units_per_s": {"value": untraced["norm_units_per_s"], "unit": "1/s"},
            "unit_ms_p50": {"value": untraced["norm_p50"], "unit": "ms"},
            "unit_ms_p90": {"value": untraced["norm_p90"], "unit": "ms"},
            "setup_s": {"value": untraced["norm_setup_s"], "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(
        {"record": record, "request_digests": untraced["digests"], "result": result}, indent=1))
    print("record " + json.dumps(record))
    for line in lines:
        print(line)
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
