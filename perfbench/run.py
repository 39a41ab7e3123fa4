"""fincat benchmark: time to a verdict for each CLI invocation.

Run from the root of a fincat checkout:

    python3 perfbench/run.py --workload corpus|tables|sets --seed N \\
        --seconds S --trace 0|1

One workload per process, one thread.  The workload's inputs are generated
from the seed (see gen.py) into ``.perfbench_work/`` and each invocation is
one in-process call of ``fincat.cli.run(argv, out=buffer)``.  The invocation
list is run in passes until ``--seconds`` have passed (at least two passes).
Every output is checked against its expected answer on the first pass and
must be byte-identical on every later pass (the infer timer masked).

Every timing is calibrated against a reference kernel run right before and
after it (see calibrate.py), which cancels changes of machine speed.
``--trace 0`` reports the end-to-end metrics.  A timing sample is one
distinct invocation's median over the passes; an undecided invocation
(exit 3, any other unexpected exit, or an exception escaping ``run``)
counts as slower than every decided one.  ``--trace 1`` alternates untraced
and traced passes (see layertrace.py) and reports the per-layer metrics.

The last line of standard output is the JSON result.  The exit code is 1
when any verdict was wrong, 2 when the checkout has no fincat sources.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
FIXTURES = os.path.join(SRC, "fincat", "fixtures")
WORK = os.path.join(ROOT, ".perfbench_work")

SETUP_IMPORTS = 11
MIN_PASSES = 2
TIMER = re.compile(r"\[\d+\.\d+s\]")
IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:3]; import calibrate; "
    "before = calibrate.reference_seconds(); start = time.perf_counter(); "
    "import fincat.cli; took = time.perf_counter() - start; "
    "after = calibrate.reference_seconds(); "
    "print(took * calibrate.REF_SECONDS * 2 / (before + after))"
)

sys.path.insert(0, HERE)
import calibrate  # noqa: E402
import gen  # noqa: E402
import layertrace  # noqa: E402


def measure_setup():
    """Median calibrated import time of fincat.cli over fresh interpreters.

    The first import is not counted: it writes the bytecode cache under
    ``src/``, which an installed fincat already has, so the import timed is
    the one users pay whatever PYTHONDONTWRITEBYTECODE says.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    samples = []
    for i in range(SETUP_IMPORTS + 1):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, SRC, HERE],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
            env=env,
        )
        if i:
            samples.append(float(proc.stdout))
    return statistics.median(samples)


def invoke(cli, case):
    """Run one case; returns (seconds, exit code or None, output)."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        code = cli.run(case.argv, out=buf)
    except Exception as exc:  # an escaping exception is an undecided verdict
        code = None
        buf.write(f"exception escaped run(): {exc!r}\n")
    elapsed = time.perf_counter() - start
    return elapsed, code, buf.getvalue()


class Ledger:
    """Outcome of every invocation of a run."""

    def __init__(self, cases):
        self.cases = cases
        self.first = [None] * len(cases)
        self.times = [[] for _ in cases]
        self.decided = [False] * len(cases)
        self.references = []
        self.attempted = 0
        self.decided_count = 0
        self.wrong = {}

    def record(self, i, seconds, code, text):
        case = self.cases[i]
        self.attempted += 1
        self.times[i].append(seconds)
        masked = TIMER.sub("[_s]", text)
        if self.first[i] is None:
            self.first[i] = masked
            if code not in (0, 1, 3):
                self.wrong[i] = f"exit {code}: {text.strip()[:200]}"
            elif code != 3:
                reason = case.check(code, text)
                if reason:
                    self.wrong[i] = reason
            self.decided[i] = code in (0, 1)
        elif masked != self.first[i]:
            self.wrong.setdefault(i, "output differs between passes")
        if code in (0, 1):
            self.decided_count += 1
        elif self.decided[i]:
            self.wrong.setdefault(i, f"decided on an earlier pass, exit {code} now")

    def run_pass(self, cli, tracer=None):
        """One pass over every case; returns the summed calibrated seconds.

        The garbage collector runs before each invocation, outside the
        timed region, so every call starts from a clean heap as a fresh
        process would.
        """
        total = 0.0
        before = calibrate.reference_seconds()
        for i, case in enumerate(self.cases):
            if tracer is not None:
                tracer.invocation += 1
            gc.collect()
            elapsed, code, text = invoke(cli, case)
            after = calibrate.reference_seconds()
            seconds = elapsed * calibrate.REF_SECONDS * 2 / (before + after)
            self.references.append(after)
            before = after
            total += seconds
            self.record(i, seconds, code, text)
        return total


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(p / 100 * len(ordered)) - 1, 0)]


def end_to_end(ledger, cli, seconds):
    passes = 0
    started = time.monotonic()
    while passes < MIN_PASSES or time.monotonic() - started < seconds:
        ledger.run_pass(cli)
        passes += 1
    typical = [statistics.median(times) for times in ledger.times]
    samples = [t if ledger.decided[i] else math.inf for i, t in enumerate(typical)]
    decided = sum(ledger.decided)
    return passes, {
        "verdict_s.p50": (percentile(samples, 50), "s"),
        "verdict_s.p95": (percentile(samples, 95), "s"),
        "verdicts_per_s": (decided / sum(typical), "1/s"),
        "decided_ratio": (ledger.decided_count / ledger.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced(ledger, cli, seconds, workdir):
    tracer = layertrace.Tracer()
    plain = with_trace = 0.0
    pairs = 0
    started = time.monotonic()
    while pairs < 1 or time.monotonic() - started < seconds:
        plain += ledger.run_pass(cli)
        tracer.install()
        try:
            with_trace += ledger.run_pass(cli, tracer)
        finally:
            tracer.uninstall()
        pairs += 1
    tracer.write_spans(os.path.join(workdir, "spans.tsv"))
    values = tracer.metrics(pairs)
    values["trace.overhead_ratio"] = with_trace / plain
    units = {name: unit for name, unit, _better in layertrace.METRICS}
    return 2 * pairs, {name: (value, units[name]) for name, value in values.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fincat", "cli.py")):
        print(f"no fincat sources under {SRC}; run from a fincat checkout", file=sys.stderr)
        return 2

    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    cases = gen.build(args.workload, args.seed, workdir, FIXTURES)

    sys.path.insert(0, SRC)
    from fincat import cli

    ledger = Ledger(cases)
    if args.trace:
        passes, metrics = traced(ledger, cli, args.seconds, workdir)
    else:
        setup_s = measure_setup()
        passes, metrics = end_to_end(ledger, cli, args.seconds)
        metrics["setup_s"] = (setup_s, "s")

    print(f"workload {args.workload}, seed {args.seed}: {len(cases)} invocations x {passes} passes")
    reference = statistics.median(ledger.references)
    print(f"  reference kernel {reference * 1000:.3f} ms (calibrated to {calibrate.REF_SECONDS * 1000:g} ms)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:55s} {value:.6g} {unit}")
    undecided = [c.label for c, d in zip(cases, ledger.decided) if not d]
    print(f"  {'wrong_verdicts':55s} {len(ledger.wrong)} count")
    print(f"  undecided ({len(undecided)}): {', '.join(undecided) or '-'}")
    for i, reason in sorted(ledger.wrong.items()):
        print(f"  WRONG {cases[i].label}: {' '.join(cases[i].argv)}: {reason}")
    result = {
        "correct": not ledger.wrong,
        "attempted": ledger.attempted,
        "failed": len(ledger.wrong),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not ledger.wrong else 1


if __name__ == "__main__":
    sys.exit(main())
