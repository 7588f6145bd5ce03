"""Spans and counts around the calls into each equichar module, installed
from outside the program by replacing the module and class attributes that
the callers look up, and restored afterwards.

A span records its inclusive duration and its self time, the duration minus
the time covered by spans that ran inside it. A count records calls only,
for methods too hot to time.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable

# (module, attribute, span name); every caller looks the function up there
SPANS = (
    ("cli", "parse_input", "cli.parse_input"),
    ("cli", "render", "cli.render"),
    ("cli", "generate_group", "groups.generate_group"),
    ("cli", "analyze", "analysis.verdicts"),
    ("analysis", "smith_normal_form", "intmat.smith_normal_form"),
    ("analysis", "dixon_character_table", "characters.dixon_character_table"),
    ("analysis", "ingest_character_table", "characters.ingest_character_table"),
    ("characters", "build_table", "characters.build_table"),
    ("analysis", "class_divisor_data", "analysis.class_divisor_data"),
    ("analysis", "equivariant_qp", "analysis.equivariant_qp"),
    ("analysis", "reciprocity_character", "analysis.reciprocity_character"),
    ("analysis", "check_reciprocity", "analysis.check_reciprocity"),
    ("bruteforce", "differential_check", "bruteforce.differential_check"),
    ("bruteforce", "enumerate_action", "bruteforce.enumerate_action"),
)

# (module, class, method, count name)
COUNTS = (
    ("cyclo", "Cyclotomic", "__mul__", "cyclo.mul"),
    ("cyclo", "Cyclotomic", "__rmul__", "cyclo.mul"),
    ("cyclo", "Cyclotomic", "__add__", "cyclo.add"),
    ("cyclo", "Cyclotomic", "__radd__", "cyclo.add"),
    ("cyclo", "Cyclotomic", "conjugate", "cyclo.conjugate"),
    ("gcdpoly", "GcdQuasiPolynomial", "evaluate", "gcdpoly.evaluate"),
    ("gcdpoly", "GcdQuasiPolynomial", "constituent", "gcdpoly.constituent"),
)


def _group_sizes(tracer: "Tracer", args: tuple, group) -> None:
    tracer.counts["groups.order"] += group.order
    tracer.counts["groups.classes"] += group.class_count


def _points(tracer: "Tracer", args: tuple, result) -> None:
    group, q = args[0], args[1]
    tracer.counts["bruteforce.points"] += q ** group.rank


# span name -> hook(tracer, args, result) recording counts at that boundary
HOOKS: dict[str, Callable] = {
    "groups.generate_group": _group_sizes,
    "bruteforce.enumerate_action": _points,
}


class Tracer:
    """Installs the wrappers on entry and restores every original on exit.
    Totals accumulate until reset()."""

    def __init__(self, modules: dict):
        self.modules = modules
        self._saved: list[tuple[object, str, object]] = []
        self._stack: list[list[float]] = []
        self.reset()

    def reset(self) -> None:
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.root_time = 0.0

    def _replace(self, owner, attr: str, make: Callable) -> None:
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make(original)))

    def _span(self, name: str, original: Callable) -> Callable:
        hook = HOOKS.get(name)

        def wrapper(*args, **kwargs):
            frame = [0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self._stack.pop()
                self.inclusive[name] += elapsed
                self.self_time[name] += elapsed - frame[0]
                self.calls[name] += 1
                if self._stack:
                    self._stack[-1][0] += elapsed
                else:
                    self.root_time += elapsed
            if hook is not None:
                hook(self, args, result)
            return result
        return wrapper

    def _count(self, name: str, original: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    def __enter__(self) -> "Tracer":
        try:
            for module, attr, name in SPANS:
                self._replace(self.modules[module], attr,
                              functools.partial(self._span, name))
            for module, cls, attr, name in COUNTS:
                self._replace(getattr(self.modules[module], cls), attr,
                              functools.partial(self._count, name))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
