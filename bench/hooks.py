"""Module-boundary hooks: the span tracer and the large-union deadline.

Both wrap public names as the calling module imported them (for example
`germcone.report.tangent_cone` or `germcone.groebner.divide`), so `src/` is
never edited.  A hook point that no longer exists is skipped; its metrics
then read as zero calls.
"""

import contextlib
import functools
import signal
import time
from collections import defaultdict
from math import comb

from germcone import (cli, groebner, hilbert, numtopo, polyring, report,
                      singular)

_BOUNDS = ("classify", "betti_sum_bound", "sigma_bound",
           "lipschitz_killing_bound", "op_bound")


def _buchberger_counts(args, out):
    return {"reductions": out.reductions, "basis_len": len(out.basis)}


def _minor_counts(args, out):
    gens, c = args[0], args[1]
    return {"kept": len(out),
            "possible": comb(len(gens), c) * comb(len(gens[0].vars), c)}


def _parse_counts(args, out):
    return {"terms": sum(len(g.terms) for g in out.generators)}


# (owner, attribute, span name, counters read from the return value)
HOOK_POINTS = [
    (cli, "main", "cli.main", None),
    (cli, "parse_ideal", "parser.parse_ideal", _parse_counts),
    (cli, "build_report", "report.build_report", None),
    (cli, "emit_report", "parser.emit_report", None),
    (report, "tangent_cone", "groebner.tangent_cone", None),
    (report, "buchberger", "groebner.buchberger", _buchberger_counts),
    (report, "hilbert_series", "hilbert.hilbert_series", None),
    (report, "leading_ideal", "hilbert.leading_ideal", None),
    (report, "singular_dimension", "singular.singular_dimension", None),
    (report, "crofton_matrix", "crofton.crofton_matrix", None),
    *[(report, name, "bounds." + name, None) for name in _BOUNDS],
    (groebner, "buchberger", "groebner.buchberger", _buchberger_counts),
    (groebner, "divide", "polyring.divide",
     lambda args, out: {"zero_remainder": int(out[1].is_zero())}),
    (groebner, "initial_part", "localforms.initial_part", None),
    (hilbert, "germ_multiplicity", "hilbert.germ_multiplicity", None),
    (hilbert, "tangent_cone", "groebner.tangent_cone", None),
    (hilbert, "buchberger", "groebner.buchberger", _buchberger_counts),
    (hilbert, "hilbert_series", "hilbert.hilbert_series", None),
    (hilbert, "leading_ideal", "hilbert.leading_ideal", None),
    (singular, "jacobian_minors", "singular.jacobian_minors", _minor_counts),
    (singular, "buchberger", "groebner.buchberger", _buchberger_counts),
    (singular, "hilbert_series", "hilbert.hilbert_series", None),
    (singular, "leading_ideal", "hilbert.leading_ideal", None),
    (numtopo, "count_components", "numtopo.count_components",
     lambda args, out: {"cells": out.cells_examined}),
    (polyring.Polynomial, "__pow__", "polyring.pow", None),
]


class _Patches:
    """Replaces module attributes with wrappers and puts the originals back."""

    def __init__(self):
        self.saved = []

    def wrap(self, owner, attr, make):
        fn = owner.__dict__.get(attr)
        if fn is None:
            return
        self.saved.append((owner, attr, fn))
        setattr(owner, attr, make(fn))

    def undo(self):
        while self.saved:
            owner, attr, fn = self.saved.pop()
            setattr(owner, attr, fn)


class Tracer:
    """Keeps one span per hooked call in memory: id, parent, name, times, counts.

    Spans of one operation share the id of the operation's root span.
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.patches = _Patches()

    def install(self):
        for owner, attr, name, counts in HOOK_POINTS:
            self.patches.wrap(owner, attr,
                              lambda fn, n=name, c=counts: self._wrapper(fn, n, c))

    def remove(self):
        self.patches.undo()

    def _open(self, name):
        parent = self.stack[-1] if self.stack else None
        span = {"id": len(self.spans),
                "parent": None if parent is None else parent["id"],
                "root": len(self.spans) if parent is None else parent["root"],
                "name": name, "start": time.perf_counter(), "end": None,
                "counts": None}
        self.spans.append(span)
        self.stack.append(span)
        return span

    def _close(self, span):
        span["end"] = time.perf_counter()
        while self.stack and self.stack.pop() is not span:
            pass

    def _wrapper(self, fn, name, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
                if counts is not None:
                    try:
                        span["counts"] = counts(args, out)
                    except (AttributeError, IndexError, KeyError, TypeError):
                        pass    # the hook point changed shape: no counts
                return out
            finally:
                self._close(span)
        return traced

    @contextlib.contextmanager
    def root(self, label):
        """The span of one benchmark operation, parent of all its spans."""
        span = self._open("op " + label)
        try:
            yield
        finally:
            self._close(span)
            self.stack.clear()


def self_times(spans):
    """Per span name: total seconds, seconds minus traced children, calls.

    Buchberger runs are named by their role, as groebner.buchberger.<role>.
    """
    roles = buchberger_roles(spans)
    child = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    out = defaultdict(lambda: [0.0, 0.0, 0])
    for s in spans:
        d = s["end"] - s["start"]
        name = s["name"]
        if s["id"] in roles:
            name += "." + roles[s["id"]]
        row = out[name]
        row[0] += d
        row[1] += d - child[s["id"]]
        row[2] += 1
    return dict(out)


def buchberger_roles(spans):
    """Names each Buchberger run by its parent: cone, cone_rerun, report_rerun or singular."""
    seen = defaultdict(int)
    roles = {}
    for s in spans:
        if s["name"] != "groebner.buchberger":
            continue
        parent = None if s["parent"] is None else spans[s["parent"]]["name"]
        if parent == "groebner.tangent_cone":
            roles[s["id"]] = "cone_rerun" if seen[s["parent"]] else "cone"
            seen[s["parent"]] += 1
        elif parent == "singular.singular_dimension":
            roles[s["id"]] = "singular"
        else:
            roles[s["id"]] = "report_rerun"
    return roles


class DidNotFinish(Exception):
    """An analyze ran out of its singular-stage allowance."""

    def __init__(self, stage, divides, seconds):
        super().__init__(f"did not finish: stage {stage}, {divides} divide "
                         f"calls, {seconds:.1f} s")
        self.stage, self.divides, self.seconds = stage, divides, seconds


class _Expired(BaseException):
    pass


class Deadline:
    """Bounds one analyze: `allowance` seconds, given with each run, once
    the singular-locus basis starts, and `cap` seconds overall.

    Running out of the allowance raises DidNotFinish with the stage and the
    number of completed `divide` calls.  Hitting the cap in an earlier stage
    raises TimeoutError: cone and minors are expected to finish well inside
    it, so that is a failure.
    """

    STAGES = [(report, "tangent_cone", "cone"),
              (singular, "jacobian_minors", "minors"),
              (singular, "buchberger", "singular"),
              (report, "crofton_matrix", "bounds")]

    def __init__(self, cap):
        self.cap, self.allowance = cap, None
        self.patches = _Patches()
        self.stage, self.divides, self.ends = None, 0, 0.0

    def install(self):
        for owner, attr, stage in self.STAGES:
            self.patches.wrap(owner, attr,
                              lambda fn, st=stage: self._entering(fn, st))
        self.patches.wrap(groebner, "divide", self._counting)

    def remove(self):
        self.patches.undo()

    def _entering(self, fn, stage):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.stage = stage
            if stage != "singular":
                return fn(*args, **kwargs)
            signal.setitimer(signal.ITIMER_REAL, self.allowance)
            out = fn(*args, **kwargs)
            # finished inside the allowance: the rest runs under the cap again
            signal.setitimer(signal.ITIMER_REAL,
                             max(self.ends - time.perf_counter(), 1e-3))
            return out
        return wrapper

    def _counting(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.divides += 1
            return out
        return wrapper

    @staticmethod
    def _alarm(signum, frame):
        raise _Expired()

    def run(self, call, allowance):
        self.allowance = allowance
        self.stage, self.divides = "parse", 0
        start = time.perf_counter()
        self.ends = start + self.cap
        previous = signal.signal(signal.SIGALRM, self._alarm)
        signal.setitimer(signal.ITIMER_REAL, self.cap)
        try:
            return call()
        except _Expired:
            seconds = time.perf_counter() - start
            if self.stage == "singular":
                raise DidNotFinish(self.stage, self.divides, seconds) from None
            raise TimeoutError(f"cap of {self.cap} s hit in stage {self.stage} "
                               f"after {self.divides} divide calls") from None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
