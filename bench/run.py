"""Benchmark of the dompoly command line, driven in-process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports dompoly from ./src.  One
closed-loop client calls ``dompoly.cli.main(argv)`` with the workload's
calls (see workloads.py), one after another, and replays the whole list
for up to S seconds, stopping before a pass that would end past S, so every
run measures whole passes of the same mix.  The program's own thread pools
keep their default size.

Times are scaled to a machine of fixed speed.  A shared 2-core VM runs the
same code up to 1.4 times slower for seconds to minutes at a time, so
wall-clock means over 30-second windows spread by 15-17% (IQR over median)
with nothing else running.  A fixed reference kernel (pure-Python integer
arithmetic and big-int products, about 6 ms, no dompoly code) is therefore
timed between every two calls, and each call's wall time is multiplied by
REF_NOMINAL_S over the mean of the kernel times just before and just after
it; that brought the same windows to a 4-5% spread.  Set-up time is spent
mostly starting an interpreter and importing numpy, which that kernel does
not track, so each set-up probe is scaled instead by a fresh interpreter
that imports numpy and the standard modules dompoly uses, timed just before
and just after it (single probes: 36% spread raw, 10% scaled).  Reported
times thus read as wall-clock times on a machine where the references take
their nominal times; the raw wall-clock values are in the record line.

Every call is timed on each pass, and its latency is the median of those
repeats, so a cold first pass or a single stalled repeat does not move it.

--trace 0 prints the end-to-end metrics.  --trace 1 measures S/2 seconds
untraced and S/2 seconds with every dompoly module wrapped in spans
(spans.py), then prints the per-layer metrics (span times unscaled;
trace.overhead_frac from the scaled rates) and writes the spans to
.bench_out/.  Set-up time is measured in fresh interpreters, several times.

Each call's output is checked the first time the call is made; repeats
must reproduce it byte for byte.  The last line of stdout is the result
object; the line before it records the seed, the environment and the
tail percentile used.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from spans import UNITS, Tracer
from workloads import WORKLOADS, Mismatch, Outcome

ROOT = Path.cwd()
SRC = ROOT / "src"

#: Fresh-interpreter set-ups per run; setup_s is their median.
SETUP_PROBES = 5

#: Reference times that scaled times are expressed at: their medians on a
#: 2-core VM with CPython 3.11.7, numpy 2.4 and no gmpy2.
REF_NOMINAL_S = 0.0059
REF_START_NOMINAL_S = 0.19

#: What the set-up reference interpreter runs: dompoly's imports, minus dompoly.
REF_START_CODE = "import argparse, concurrent.futures, dataclasses, fractions, json, pathlib, numpy"

#: call_ms_tail is the latency with this many calls beyond it, or the call
#: just above the median when a pass has too few calls for that.
TAIL_BEYOND = 10


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup(workload: str, seed: int, work: Path):
    """Everything before the first timed call: import, inputs, input files."""
    sys.path.insert(0, str(SRC))
    import dompoly.cli as cli  # also imports numpy

    work.mkdir(parents=True)
    return cli, WORKLOADS[workload](random.Random(seed), work)


def reference_kernel() -> float:
    """Seconds taken by a fixed mix of interpreted and big-int arithmetic."""
    t0 = time.perf_counter()
    s = 0
    for i in range(40_000):
        s += i * i % 7
    a = 3**4000
    for _ in range(60):
        a = (a * a) >> a.bit_length()
    return time.perf_counter() - t0


class SpeedScale:
    """Scales wall times to REF_NOMINAL_S by the kernel timed around them."""

    def __init__(self) -> None:
        reference_kernel()  # warm-up
        self.before = reference_kernel()

    def __call__(self, wall: float) -> float:
        after = reference_kernel()
        scaled = wall * REF_NOMINAL_S / ((self.before + after) / 2)
        self.before = after
        return scaled


def reference_start() -> float:
    """Seconds for a fresh interpreter to run REF_START_CODE."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", REF_START_CODE], check=True, timeout=60)
    return time.perf_counter() - t0


def probe_setup(args: argparse.Namespace) -> float:
    """Seconds from starting a fresh interpreter until its set-up is done."""
    argv = [sys.executable, __file__, "--probe-setup", "--workload", args.workload]
    argv += ["--seed", str(args.seed), "--seconds", "0"]
    t0 = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - t0
        child.stdout.read()
        code = child.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    return elapsed


def run_call(call, cli):
    if call.out:
        call.out.unlink(missing_ok=True)  # a stale file must not pass for output
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(call.argv)
        except (Exception, SystemExit) as e:  # a traceback is a failed call
            code = f"{type(e).__name__}: {e}"
        elapsed = time.perf_counter() - t0
    out_text = call.out.read_text(encoding="utf-8") if call.out and call.out.exists() else None
    return elapsed, Outcome(code, out.getvalue(), err.getvalue(), out_text)


class Measurement:
    def __init__(self, calls) -> None:
        self.samples: list[list[float]] = [[] for _ in calls]  # per call, one per pass
        self.wall = 0.0  # unscaled seconds inside the calls
        self.instances_per_pass = sum(c.instances for c in calls)
        self.failures: list[str] = []
        self.passes = 0

    @property
    def attempted(self) -> int:
        return sum(map(len, self.samples))

    @property
    def rate(self) -> float:
        """Instances per scaled second spent inside the CLI calls."""
        return self.instances_per_pass * self.passes / sum(map(sum, self.samples))

    @property
    def latencies(self) -> list[float]:
        """Each call's latency as the median of its repeats, in ascending order."""
        return sorted(map(statistics.median, self.samples))


def measure(calls, seconds: float, cli, verified: dict) -> Measurement:
    """Replay whole passes over the calls; stop before one would end past `seconds`."""
    result = Measurement(calls)
    scale = SpeedScale()
    start = time.perf_counter()
    while True:
        for call, samples in zip(calls, result.samples):
            elapsed, outcome = run_call(call, cli)
            result.wall += elapsed
            samples.append(scale(elapsed))
            key = tuple(call.argv)
            digest = hashlib.sha256(
                repr((outcome.code, outcome.stdout, outcome.stderr, outcome.out_text)).encode()
            ).digest()
            try:
                if key not in verified:
                    call.check(outcome)
                    verified[key] = digest
                elif verified[key] != digest:
                    raise Mismatch("output differs from the first run of this call")
            except Exception as e:  # any check that cannot complete fails the call
                result.failures.append(f"{' '.join(call.argv)}: {type(e).__name__}: {e}")
        result.passes += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / result.passes > seconds:
            return result


def environment() -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "sched_affinity": len(os.sched_getaffinity(0)),
        "DOMPOLY_THREADS_set": "DOMPOLY_THREADS" in os.environ,
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "src_dompoly_lines": sum(
            len(p.read_text(encoding="utf-8").splitlines())
            for p in (SRC / "dompoly").glob("*.py")
        ),
    }


def main() -> int:
    args = parse_args()
    if not (SRC / "dompoly" / "__init__.py").is_file():
        print(f"error: {SRC / 'dompoly'} not found; run from the repository root", file=sys.stderr)
        return 2
    out_dir = ROOT / ".bench_out"
    work = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"

    if args.probe_setup:
        try:
            setup(args.workload, args.seed, work)
            print("ready", flush=True)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        return 0

    setup_wall, setup_times = [], []
    before = reference_start()
    for _ in range(SETUP_PROBES):
        setup_wall.append(probe_setup(args))
        after = reference_start()
        setup_times.append(setup_wall[-1] * REF_START_NOMINAL_S / ((before + after) / 2))
        before = after
    try:
        cli, calls = setup(args.workload, args.seed, work)

        verified: dict = {}
        if args.trace == 0:
            m = measure(calls, args.seconds, cli, verified)
            timed = [m]
        else:
            plain = measure(calls, args.seconds / 2, cli, verified)
            tracer = Tracer()
            tracer.install()
            traced = measure(calls, args.seconds / 2, cli, verified)
            timed = [plain, traced]
            tracer.write(out_dir / f"spans-{args.workload}-{args.seed}.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(m.attempted for m in timed)
    failures = [f for m in timed for f in m.failures]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "calls_per_pass": len(calls),
        "instances_per_pass": sum(c.instances for c in calls),
        "passes": [m.passes for m in timed],
        "setup_probes_s": setup_times,
        "ref_nominal_s": REF_NOMINAL_S,
        "wall": {
            "setup_s": statistics.median(setup_wall),
            "instances_per_s": [m.instances_per_pass * m.passes / m.wall for m in timed],
        },
        "environment": environment(),
    }
    if args.trace == 0:
        lat = m.latencies
        tail_index = max(len(lat) - 1 - TAIL_BEYOND, len(lat) // 2)
        record["tail"] = {"percentile": 100.0 * (tail_index + 1) / len(lat), "calls": len(lat)}
        values = {
            "setup_s": (statistics.median(setup_times), "s"),
            "instances_per_s": (m.rate, "1/s"),
            "call_ms_p50": (1000 * statistics.median(lat), "ms"),
            "call_ms_tail": (1000 * lat[tail_index], "ms"),
            "ok_frac": ((attempted - len(failures)) / attempted, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        layer = tracer.metrics(traced.passes)
        layer["trace.overhead_frac"] = 1 - traced.rate / plain.rate
        values = {name: (value, UNITS[name]) for name, value in layer.items()}
    record["failures"] = failures[:20]
    for f in failures[:20]:
        print(f"failed: {f}", file=sys.stderr)
    print(json.dumps(record))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
