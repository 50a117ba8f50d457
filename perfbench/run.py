"""Benchmark for dominsert: one closed-loop client, one op at a time.

Usage (from the repository root):

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 20 --trace 0

The next op starts only after the previous one has returned; there is no
worker pool, and no two processes run ops at the same time.  Every op is
timed from outside the library with ``time.perf_counter`` and its output is
checked (see ``workloads.py``); a failed check or an exception counts as a
failed op and makes the command exit 1 after printing its result.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:

* ``setup_s``: import of ``dominsert``, building the inputs and one warm-up
  pass over the workload's ops, which also fills the library's
  ``lru_cache``s.  It is the median of three set-ups: this process and two
  fresh interpreters.
* ``ops_per_s``: ops of one pass divided by the sum of their latencies.
* ``op_ms_p50``: median op latency over the ops of one pass; the sample
  count is printed with it.
* ``peak_rss_mb``: peak resident memory of this process.

The measured loop repeats one pass (every record in a seeded order, or the
same few round-trip words) until ``--seconds`` of op time have been
measured.  Each run of an op is one sample, and an op's latency is the
median of its samples.  A short op is run several times in a row (at most
``MAX_REPEATS``), so that the yardstick below is read about once every
``GROUP_S`` of op time.

Times are given at a fixed reference speed of the machine.  On a machine
shared with other tenants the same code runs up to 1.7 times slower for
seconds or minutes at a time, on every core, and process CPU time slows
with it.  So between samples the benchmark times the ``Yardstick``, a
fixed pure-Python loop of tuple, dict and sort work that does not touch
``dominsert``; such work slows with the library far more closely than
plain arithmetic does.  Each latency is scaled by ``YARDSTICK_REF_S`` over
the mean of the two yardstick readings around it, and a set-up time by
``YARDSTICK_REF_S`` over the median of the readings taken during it.  A
figure in ms is therefore the wall-clock time the op would take at the
speed where the loop takes ``YARDSTICK_REF_S``.  The wall-clock figures and
the machine's measured speed are printed as well.  A change to
``dominsert`` does not move the yardstick, so the scaled figures compare
two versions of the library run with the same interpreter on the same
machine.

Two more figures are printed but are not metrics of ``BENCHMARK.json``,
whose metrics every workload must report: ``op_ms_p90``, only when a pass
has at least ``P90_MIN_OPS`` ops (``verify-all``), and ``fail_ratio``, which
is 0 on a correct run and is carried by ``failed``/``attempted`` in the
last line.

``--trace 1`` runs one pass once untraced and once under the tracer of
``spans.py`` and reports the per-layer metrics; ``calls`` counts are exact
and repeat for a given seed.  Spans and results are written under
``perfbench/out/``.

The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1
SETUP_PROBES = 2
GROUP_S = 0.025
SETUP_READ_S = 0.25
MAX_REPEATS = 20
YARDSTICK_LOOPS = 2000
YARDSTICK_SHARE = 0.1
# The yardstick's time at the reference speed: about its fastest reading on
# a 2-core Intel Xeon VM under CPython 3.11.
YARDSTICK_REF_S = 0.0014
PROBE_TIMEOUT_S = 170
P90_MIN_OPS = 100

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def load_json(path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        fail(f"cannot read {path.name}: {exc}")


def import_library():
    """Import ``dominsert`` from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "dominsert" / "__init__.py").is_file():
        fail(f"no dominsert sources under {src}")
    sys.path.insert(0, str(src))
    import dominsert
    import dominsert.verify

    if Path(dominsert.__file__).resolve().parent != (src / "dominsert").resolve():
        fail(f"dominsert was imported from {dominsert.__file__}")
    return dominsert


class Run:
    """Counts every op this process runs and its latency."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def run_op(self, op, call=None):
        """Run one op; return its latency in seconds."""
        self.attempted += 1
        call = call or op.call
        started = time.perf_counter()
        try:
            out = call()
        except Exception as exc:  # an op that raises is a failed op
            latency = time.perf_counter() - started
            self._failed(op, f"{type(exc).__name__}: {exc}")
            return latency
        latency = time.perf_counter() - started
        try:
            ok = op.check(out)
        except Exception as exc:  # so is one whose output cannot be checked
            ok = False
            self._failed(op, f"check raised {type(exc).__name__}: {exc}")
            return latency
        if not ok:
            self._failed(op, "output differs from the expected output")
        return latency

    def _failed(self, op, why):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{op.label}: {why}")


def _loop():
    counts = {}
    pairs = []
    for i in range(YARDSTICK_LOOPS):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + 1
        pairs.append((i % 31, key))
    pairs.sort()
    return len(counts)


class Yardstick:
    """Times a fixed pure-Python loop, the machine's speed at that moment."""

    def __init__(self):
        self.readings = []
        self.spent = 0.0

    def read(self, after_s=0.0):
        """Return the median time of the loop, in seconds.

        The loop runs at least three times, and for at least
        ``YARDSTICK_SHARE`` of ``after_s``, the op time since the last
        reading, so that a long op is bracketed by a long reading.
        """
        started = time.perf_counter()
        times = []
        while len(times) < 3 or sum(times) < YARDSTICK_SHARE * after_s:
            t0 = time.perf_counter()
            _loop()
            times.append(time.perf_counter() - t0)
        self.spent += time.perf_counter() - started
        self.readings.append(statistics.median(times))
        return self.readings[-1]


def set_up(workload, seed, run, yardstick):
    """Import, build inputs and run the warm-up pass.

    Returns the set-up time in reference seconds, leaving out the time the
    yardstick took, and each op's warm-up latency in wall-clock seconds.
    """
    first = len(yardstick.readings)
    spent = yardstick.spent
    started = time.perf_counter()
    yardstick.read()
    lib = import_library()
    workload.build(lib, seed, load_json(HERE / "expected.json"))
    warm = {}
    since = 0.0
    for op in workload.ops:
        warm[op.label] = run.run_op(op)
        since += warm[op.label]
        if since >= SETUP_READ_S:
            yardstick.read(since)
            since = 0.0
    yardstick.read(since)
    wall = time.perf_counter() - started - (yardstick.spent - spent)
    return wall * YARDSTICK_REF_S / statistics.median(yardstick.readings[first:]), warm


def probe_setup(args):
    """Time a set-up in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if done.returncode != 0:
        fail(f"set-up probe failed: {done.stderr.strip()[-500:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def end_to_end(args, workload, run):
    yardstick = Yardstick()
    setup, warm = set_up(workload, args.seed, run, yardstick)
    setups = [setup]
    repeats = {label: max(1, min(MAX_REPEATS, math.ceil(GROUP_S / max(t, 1e-9))))
               for label, t in warm.items()}
    scaled = {op.label: [] for op in workload.ops}
    wall = {op.label: [] for op in workload.ops}
    measured = 0.0
    passes = 0
    before = yardstick.read()
    while measured < args.seconds or len(setups) <= SETUP_PROBES:
        if measured < args.seconds:
            passes += 1
            for op in workload.one_pass():
                latencies = [run.run_op(op) for _ in range(repeats[op.label])]
                after = yardstick.read(sum(latencies))
                scale = 2 * YARDSTICK_REF_S / (before + after)
                scaled[op.label].extend(t * scale for t in latencies)
                wall[op.label].extend(latencies)
                measured += sum(latencies)
                before = after
        if len(setups) <= SETUP_PROBES:
            probe = probe_setup(args)
            run.attempted += probe["attempted"]
            run.failed += probe["failed"]
            setups.append(probe["setup_s"])
            before = yardstick.read()
    latencies = [statistics.median(v) for v in scaled.values()]
    wall_latencies = [statistics.median(v) for v in wall.values()]
    samples = sum(len(v) for v in scaled.values())
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(latencies) / sum(latencies),
        "op_ms_p50": percentile(latencies, 50) * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    per_op = f"{len(latencies)} ops, each the median of its samples: {samples} in {passes} passes"
    notes = {
        "setup_s": f"median of {len(setups)} set-ups: " + ", ".join(f"{s:.3f}" for s in setups),
        "ops_per_s": f"{per_op}; wall clock {len(wall_latencies) / sum(wall_latencies):.6g}",
        "op_ms_p50": f"{per_op}; wall clock {percentile(wall_latencies, 50) * 1000:.6g}",
    }
    speed = YARDSTICK_REF_S / statistics.median(yardstick.readings)
    extra = [f"machine speed {speed:.3f} of reference (median of {len(yardstick.readings)} yardstick readings)"]
    if len(latencies) >= P90_MIN_OPS:
        extra.append(f"op_ms_p90 {percentile(latencies, 90) * 1000:.6g} ms  ({per_op})")
    return values, notes, extra


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def per_layer(args, workload, run, names, spans_path):
    set_up(workload, args.seed, run, Yardstick())
    from dominsert.verify import SUITES
    from spans import COUNTERS, SPANS, Tracer

    batch = workload.one_pass()
    untraced = sum(run.run_op(op) for op in batch)
    tracer = Tracer()
    with tracer.installed():
        traced = 0.0
        for op in batch:
            label = f"verify.suite.{op.suite}" if op.suite else "op"
            traced += run.run_op(op, tracer.wrap(label, op.call))
    summary = tracer.summary()
    known = {s[2] for s in SPANS} | {c[2] for c in COUNTERS} | {f"verify.suite.{s}" for s in SUITES}
    values = {}
    for name in names:
        base, field = name.rsplit(".", 1)
        if name == "trace.overhead_ratio":
            values[name] = traced / untraced
            continue
        if base not in known:
            raise KeyError(f"per-layer metric {name} has no span or counter")
        span = summary.get(base, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        if field == "calls":
            values[name] = span["calls"] or tracer.counts[base]
        elif field in ("ms", "self_ms"):
            values[name] = span[field]
        elif field == "results":
            values[name] = tracer.results[base]
        elif field == "repeat_ratio":
            distinct = len(tracer.distinct[base])
            values[name] = span["calls"] / distinct if distinct else 0.0
        else:
            raise KeyError(f"per-layer metric {name} has no field {field}")
    notes = {"trace.overhead_ratio": f"{len(batch)} ops: {traced:.3f} s traced, {untraced:.3f} s untraced"}
    tracer.write(spans_path)
    return values, notes, [f"spans: {spans_path.relative_to(ROOT)}"]


def git_sha():
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(args):
    cpu = platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    spec = load_json(ROOT / "BENCHMARK.json")
    workload = WORKLOADS[args.workload]
    run = Run()
    if args.setup_probe:
        seconds, _ = set_up(workload, args.seed, run, Yardstick())
        print(json.dumps({"setup_s": seconds, "attempted": run.attempted, "failed": run.failed}))
        return 0
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        names = [m["name"] for m in metrics]
        values, notes, extra = per_layer(args, workload, run, names, out_dir / f"{stem}-spans.json")
    else:
        values, notes, extra = end_to_end(args, workload, run)
    extra.append(f"fail_ratio {run.failed / run.attempted:.6g} ratio  ({run.failed} of {run.attempted} ops)")
    info = stamp(args)
    print("# " + json.dumps(info, sort_keys=True))
    for metric in metrics:
        name = metric["name"]
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {values[name]:.6g} {metric['unit']}{note}")
    for line in extra + [f"failed: {line}" for line in run.failures]:
        print(line)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }
    record = {"stamp": info, "notes": notes, "extra": extra, **result}
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
