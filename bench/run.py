"""germcone benchmark: closed-loop workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from `src/`.  One
caller in this process starts each operation only after the previous one
returned.  Inputs are written to `.bench_work/`.  Every line but the last is
detail (machine notes, each metric with its unit and sample count, stopped
cases); the last line is the result object.

--trace 0 measures the end-to-end metrics with no hooks, except the stage
deadline of large-union.  A fixed reference kernel runs between operations
so that pass times can also be given in units of its time, measured at the
same moments.  --trace 1 runs untraced passes for half the time
and traced passes for the other half, and reports the per-layer metrics of
the traced passes, per pass, with the difference of the two medians as the
tracing overhead.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

SETUP_LAUNCHES = 7         # fresh interpreters per run for setup_s
IMPORT_LAUNCHES = 3        # fresh interpreters per traced run for import.*
LAUNCH_TIMEOUT_S = 60
REF_SHARE = 0.05           # reference burst after an operation, share of its time
REF_START_S = 0.5          # reference burst before the first operation
# large-union: time in the singular-locus basis before a case is stopped, in
# reference-kernel runs (about 5 s), and the overall cap per case in seconds.
# The allowance follows the host's speed as the rest of the case does, so a
# stopped case divides evenly by the reference.  Cone and minors of
# union(5,3,3,2) take about 15 s, so the cap only catches a regression in
# those stages.
SINGULAR_ALLOWANCE_REFS = 700
CASE_CAP_S = 40


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args()


def launch_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def launch(argv):
    """Wall time, exit code and stdout of one fresh interpreter."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *argv], cwd=ROOT, env=launch_env(),
                          capture_output=True, text=True,
                          timeout=LAUNCH_TIMEOUT_S)
    return time.perf_counter() - start, done.returncode, done.stdout, done.stderr


def reference_kernel():
    """A fixed pure-Python job timed between operations: the 8th power of
    x + 2/3 y - 3/5 z + 1 over the rationals, term by term (165 terms,
    about 6 ms at full speed on a 2 vCPU Xeon).

    It does what the program's hot loops do, Fraction products and sums in
    a dict keyed by exponent tuples, and imports nothing from germcone, so
    no change to the program moves it.  Its time follows the speed the
    shared host gives this process at that moment.
    """
    base = {(1, 0, 0): Fraction(1), (0, 1, 0): Fraction(2, 3),
            (0, 0, 1): Fraction(-3, 5), (0, 0, 0): Fraction(1)}
    power = base
    for _ in range(7):
        product = {}
        for ma, ca in power.items():
            for mb, cb in base.items():
                m = (ma[0] + mb[0], ma[1] + mb[1], ma[2] + mb[2])
                product[m] = product.get(m, 0) + ca * cb
        power = product
    return len(power)


def parse_importtime(text):
    """Cumulative seconds of `germcone` and of the outermost numpy/scipy imports."""
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        rows.append((depth, name.strip(), int(cumulative) * 1e-6))

    def numeric(name):
        return name.split(".")[0] in ("numpy", "scipy")

    total = next(c for d, n, c in rows if d == 0 and n == "germcone")
    deps = 0.0
    for i, (depth, name, cumulative) in enumerate(rows):
        if not numeric(name):
            continue
        # importtime lists a module after its children: the parent is the
        # first later row that is less deeply nested.
        parent = next((n for d, n, _ in rows[i + 1:] if d < depth), None)
        if parent is None or not numeric(parent):
            deps += cumulative
    return total, deps


class Runner:
    """Runs a workload's operations in closed loop and checks every output."""

    def __init__(self, workload, deadline, goldens, exact):
        from hooks import DidNotFinish
        from workloads import check
        self.expected_stop = DidNotFinish
        self.check_output = check
        self.workload = workload
        self.deadline = deadline
        self.goldens = goldens
        self.exact = exact
        self.attempted = 0
        self.failed = 0
        self.wrong = []
        self.errors = []
        self.stopped = []
        self.op_seconds = {}
        self.op_refs = {}       # operation time / reference time around it
        self.ref_seconds = []
        self.last_ref = None

    def ref(self, seconds):
        """Mean time of the reference kernel over a burst of at least one
        run and at least `seconds`: one run can catch the host in a slow or
        a fast moment, and a long operation spans many of them."""
        times = []
        start = time.perf_counter()
        while not times or time.perf_counter() - start < seconds:
            t = time.perf_counter()
            reference_kernel()
            times.append(time.perf_counter() - t)
        self.ref_seconds.extend(times)
        self.last_ref = statistics.fmean(times)
        return self.last_ref

    def check(self, op, result):
        self.attempted += 1
        message = self.check_output(op, result, self.goldens, self.exact)
        if message:
            self.failed += 1
            self.wrong.append(f"{op.label}: {message}")

    def setup(self, launches):
        times = []
        for _ in range(launches):
            seconds, code, out, _ = launch(["-m", "germcone",
                                            *self.workload.setup_argv])
            times.append(seconds)
            self.check(self.workload.setup, (code, out))
        return times

    def warm_up(self):
        self.check(self.workload.setup, self.workload.setup.call())

    def one(self, op, tracer):
        """Seconds the call took; the check runs after the clock stops."""
        scope = tracer.root(op.label) if tracer else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with scope:
                if op.deadline:
                    result = self.deadline.run(
                        op.call, SINGULAR_ALLOWANCE_REFS * self.last_ref)
                else:
                    result = op.call()
        except self.expected_stop as e:
            seconds = time.perf_counter() - start
            self.attempted += 1
            self.stopped.append({"op": op.label, "stage": e.stage,
                                 "divide_calls": e.divides,
                                 "seconds": round(e.seconds, 3)})
            return seconds
        except Exception as e:
            seconds = time.perf_counter() - start
            self.attempted += 1
            self.failed += 1
            self.errors.append(f"{op.label}: {type(e).__name__}: {e}")
            return seconds
        seconds = time.perf_counter() - start
        self.check(op, result)
        return seconds

    def passes(self, seconds, tracer=None):
        """Pass times (sum of operation times), as many passes as fit in
        `seconds` (at least one): a pass starts only if one as long as the
        longest so far would end in time.

        The reference kernel runs in bursts, outside the operations' time:
        for REF_START_S before the first operation, then after each one for
        REF_SHARE of its time.  Each operation's time is also kept divided
        by the mean of the bursts just before and just after it.
        """
        times = []
        start = time.perf_counter()
        before = self.ref(REF_START_S)
        while not times or time.perf_counter() - start + max(times) <= seconds:
            total = 0.0
            for op in self.workload.ops:
                took = self.one(op, tracer)
                after = self.ref(REF_SHARE * took)
                self.op_seconds.setdefault(op.label, []).append(took)
                self.op_refs.setdefault(op.label, []).append(
                    2 * took / (before + after))
                total += took
                before = after
            times.append(total)
        return times


def metric(value, unit, n, **extra):
    return {"value": value, "unit": unit, "n": n, **extra}


def tail(times):
    """Highest percentile with at least ten passes beyond it; the maximum
    when there are fewer than eleven passes."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100
    return ordered[n - 11], (100 * (n - 10)) // n


def end_to_end(runner, seconds):
    """The result metrics, and the detail-only metrics.

    pass_s is the sum over operations of each one's median time.  pass_ref
    is the same sum over each operation's time divided by the reference
    kernel's time around it: the pass measured in reference-kernel runs.
    The shared host's speed drifts by up to 40% over twenty minutes, for
    numpy code as well as for pure Python, so seconds measured at different
    times differ by more than any bound allows; the ratio cancels most of
    the drift, and pass_ref stands in for pass_s and ops_per_s in the result.
    pass_s.tail is detail only too: a 25 s run has 1 to 12 passes, too few
    for the percentile it is defined by.  failed_frac is 0 on every
    workload today, so ok_frac carries it.
    """
    setup = runner.setup(SETUP_LAUNCHES)
    runner.warm_up()
    times = runner.passes(seconds)
    per_pass = len(runner.workload.ops)
    pass_s = sum(statistics.median(v) for v in runner.op_seconds.values())
    pass_ref = sum(statistics.median(v) for v in runner.op_refs.values())
    value, pct = tail(times)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed_frac = runner.failed / runner.attempted
    return {
        "setup_s": metric(statistics.median(setup), "s", len(setup)),
        "pass_ref": metric(pass_ref, "ref", len(times)),
        "ok_frac": metric(1 - failed_frac, "frac", runner.attempted),
        "peak_rss_mb": metric(rss_mb, "MB", 1),
    }, {
        "pass_s": metric(pass_s, "s", len(times)),
        "ops_per_s": metric(per_pass / pass_s, "1/s", per_pass * len(times)),
        "reference_s": metric(statistics.median(runner.ref_seconds), "s",
                              len(runner.ref_seconds)),
        "pass_s.tail": metric(value, "s", len(times), percentile=pct),
        "failed_frac": metric(failed_frac, "frac", runner.attempted),
        "did_not_finish_frac": metric(len(runner.stopped) / (per_pass * len(times)),
                                      "frac", per_pass * len(times)),
    }


def per_layer(runner, seconds, spans_path):
    from hooks import Tracer, self_times
    untraced = runner.passes(seconds / 2)
    tracer = Tracer()
    tracer.install()
    stopped_before = len(runner.stopped)
    try:
        traced = runner.passes(seconds / 2, tracer)
    finally:
        tracer.remove()
    spans = tracer.spans
    n = len(traced)
    totals = self_times(spans)

    def total(name):
        return totals.get(name, (0.0, 0.0, 0))[0] / n

    def own(name):
        return totals.get(name, (0.0, 0.0, 0))[1] / n

    def calls(name):
        return totals.get(name, (0.0, 0.0, 0))[2] / n

    def count(name, key):
        return sum(s["counts"][key] for s in spans
                   if s["name"] == name and s["counts"]) / n

    divides = calls("polyring.divide")
    kept = count("singular.jacobian_minors", "kept")
    possible = count("singular.jacobian_minors", "possible")
    cells = count("numtopo.count_components", "cells")
    cc_s = total("numtopo.count_components")
    stopped = runner.stopped[stopped_before:]
    imports = [parse_importtime(launch(["-X", "importtime", "-c",
                                        "import germcone"])[3])
               for _ in range(IMPORT_LAUNCHES)]
    out = {
        "groebner.tangent_cone.s": metric(total("groebner.tangent_cone"), "s", n),
        "groebner.tangent_cone.calls": metric(calls("groebner.tangent_cone"),
                                              "count", n),
        **{f"groebner.buchberger.{role}.s": metric(
            total("groebner.buchberger." + role), "s", n)
           for role in ("cone", "cone_rerun", "report_rerun", "singular")},
        "groebner.reductions": metric(count("groebner.buchberger",
                                            "reductions"), "count", n),
        "groebner.basis_len": metric(count("groebner.buchberger", "basis_len"),
                                     "count", n),
        "polyring.divide.s": metric(total("polyring.divide"), "s", n),
        "polyring.divide.calls": metric(divides, "count", n),
        "polyring.divide.zero_remainder_frac": metric(
            count("polyring.divide", "zero_remainder") / divides
            if divides else 0.0, "frac", n),
        "singular.jacobian_minors.s": metric(total("singular.jacobian_minors"),
                                             "s", n),
        "singular.minors_kept": metric(kept, "count", n),
        "singular.minors_kept_frac": metric(kept / possible if possible else 0.0,
                                            "frac", n),
        "singular.singular_dimension.self_s": metric(
            own("singular.singular_dimension"), "s", n),
        "hilbert.hilbert_series.s": metric(total("hilbert.hilbert_series"),
                                           "s", n),
        "hilbert.leading_ideal.s": metric(total("hilbert.leading_ideal"), "s", n),
        "parser.parse_ideal.s": metric(total("parser.parse_ideal"), "s", n),
        "parser.parse_ideal.calls": metric(calls("parser.parse_ideal"),
                                           "count", n),
        "parser.terms": metric(count("parser.parse_ideal", "terms"), "count", n),
        "polyring.pow.s": metric(total("polyring.pow"), "s", n),
        "polyring.pow.calls": metric(calls("polyring.pow"), "count", n),
        "localforms.initial_part.s": metric(total("localforms.initial_part"),
                                            "s", n),
        "localforms.initial_part.calls": metric(
            calls("localforms.initial_part"), "count", n),
        "report.build_report.self_s": metric(own("report.build_report"), "s", n),
        "bounds.s": metric(sum(total(k) for k in totals
                               if k.startswith("bounds.")), "s", n),
        "crofton.crofton_matrix.s": metric(total("crofton.crofton_matrix"),
                                           "s", n),
        "parser.emit_report.s": metric(total("parser.emit_report"), "s", n),
        "cli.self_s": metric(own("cli.main"), "s", n),
        "numtopo.count_components.s": metric(cc_s, "s", n),
        "numtopo.cells_examined": metric(cells, "count", n),
        "numtopo.cells_per_s": metric(cells / cc_s if cc_s else 0.0, "1/s", n),
        "deadline.did_not_finish": metric(len(stopped) / n, "count", n),
        "deadline.divide_calls": metric(
            sum(s["divide_calls"] for s in stopped) / n, "count", n),
        "import.s": metric(statistics.median(t for t, _ in imports), "s",
                           len(imports)),
        "import.numeric_deps.s": metric(statistics.median(d for _, d in imports),
                                        "s", len(imports)),
        "trace.overhead_s": metric(statistics.median(traced)
                                   - statistics.median(untraced), "s",
                                   len(traced) + len(untraced)),
    }
    with open(spans_path, "w") as fh:
        json.dump(spans, fh)
    self_table = sorted(((v[1] / n, k) for k, v in totals.items()
                         if not k.startswith("op ")), reverse=True)
    return out, [(k, round(v, 4)) for v, k in self_table[:8]]


def machine_notes():
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": platform.platform()}


def main():
    args = parse_args()
    if not os.path.isfile(os.path.join(SRC, "germcone", "__init__.py")):
        print("bench: src/germcone not found; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads
    from hooks import Deadline
    if args.workload not in workloads.BUILDERS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              + ", ".join(workloads.BUILDERS), file=sys.stderr)
        return 2

    workdir = os.path.join(WORK, args.workload)
    workload = workloads.build(args.workload, args.seed, workdir)
    deadline = Deadline(CASE_CAP_S)
    if any(op.deadline for op in workload.ops):
        deadline.install()
    runner = Runner(workload, deadline, workloads.load_goldens(),
                    exact=args.seed == 0)
    detail = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "machine": machine_notes(),
              "closed_loop": "1 caller", **workload.notes}
    try:
        if args.trace:
            runner.warm_up()
            metrics, self_top = per_layer(
                runner, args.seconds,
                os.path.join(WORK, f"spans-{args.workload}-{args.seed}.json"))
            detail["largest_self_s_per_pass"] = self_top
            extra = {}
        else:
            metrics, extra = end_to_end(runner, args.seconds)
    finally:
        deadline.remove()
    detail["op_median_s"] = {k: round(statistics.median(v), 4)
                             for k, v in runner.op_seconds.items()}
    detail["did_not_finish"] = runner.stopped
    detail["wrong"] = runner.wrong[:20]
    detail["errors"] = runner.errors[:20]

    for name, m in {**metrics, **extra}.items():
        pct = f" p{m['percentile']}" if "percentile" in m else ""
        print(f"{args.workload:13s} {name:40s} {m['value']:<14.6g} "
              f"{m['unit']:6s} n={m['n']}{pct}")
    for stop in runner.stopped:
        print(f"{args.workload:13s} did_not_finish {stop['op']} stage="
              f"{stop['stage']} divide_calls={stop['divide_calls']} "
              f"after {stop['seconds']} s")
    detail["metrics"] = {**metrics, **extra}
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not runner.wrong,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in metrics.items()},
    }))
    return 0 if not runner.wrong else 1


if __name__ == "__main__":
    sys.exit(main())
