"""Per-layer tracer for annealdp, installed from outside the package.

The tracer wraps public functions of the package's modules and records a
span for every call: layer name, step index, parent span, start and end.
Spans stay in memory and are written out once, when the benchmark ends.

A wrapper is installed on every module that binds a traced function, not
only on the module that defines it: ``cli``, ``merged`` and ``rbc`` import
their callees with ``from .x import f``, so patching the defining module
alone would miss their calls. ``Poly.evaluate`` and ``AnnealSchedule.s_at``
run tens of thousands of times per step, so they get pure counters that
read no clock.

A layer's self time is its span's duration minus the part of that interval
covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import asdict, dataclass, field


def _sampler_work(args, result) -> dict:
    """Distinct terminal states and reads of an engine's sample set."""
    return {"distinct": len(result.records), "reads": result.total_reads}


def _brute_force_work(args, result) -> dict:
    return {"states": 1 << args[0].n}


def _quadratize_work(args, result) -> dict:
    return {"aux_vars": len(result.alloc.records)}


# (module, function, work extractor or None); names are <module>.<function>
TRACED = (
    ("cli", "cmd_solve", None),
    ("merged", "build_merged_problem", None),
    ("merged", "one_shot_ppi", None),
    ("merged", "one_shot_ensemble", None),
    ("merged", "multi_anneal_ppi", None),
    ("merged", "greedy_merged_sampler", _sampler_work),
    ("merged", "losses", None),
    ("quadratize", "quadratize_full", _quadratize_work),
    ("pbf", "to_qubo", None),
    ("rbc", "gamma_constants", None),
    ("rbc", "build_gv_pbo", None),
    ("rbc", "build_gp_pbo", None),
    ("rbc", "hybrid_ppi", None),
    ("rbc", "combinatorial_ppi", None),
    ("rbc", "write_iteration_csv", None),
    ("engines", "heuristic_anneal", _sampler_work),
    ("engines", "sequential_greedy", None),
    ("engines", "schrodinger_anneal", _sampler_work),
    ("bqm", "brute_force", _brute_force_work),
    ("svgplot", "line_chart", None),
)

# (module, class, method, counter name): call counts only, no clock reads
COUNTED = (
    ("pbf", "Poly", "evaluate", "pbf.Poly.evaluate"),
    ("schedules", "AnnealSchedule", "s_at", "schedules.s_at"),
)

PACKAGE = "annealdp"


@dataclass
class Span:
    name: str
    step: int
    parent: int  # index of the enclosing span in Tracer.spans; -1 at the root
    start: float
    end: float = 0.0
    work: dict = field(default_factory=dict)


class Tracer:
    """Installs wrappers on demand; collects spans and counts per step."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[int, dict[str, int]] = {}
        self._stack: list[int] = []
        self._cells = {name: [0] for *_, name in COUNTED}
        self._restore: list[tuple[object, str, object]] = []
        self.step = -1

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for mod_name, fn_name, work in TRACED:
            fn = getattr(importlib.import_module(f"{PACKAGE}.{mod_name}"), fn_name)
            wrappers[id(fn)] = (fn, self._wrap(f"{mod_name}.{fn_name}", fn, work))
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])
        for mod_name, cls_name, meth, name in COUNTED:
            cls = getattr(importlib.import_module(f"{PACKAGE}.{mod_name}"), cls_name)
            self._patch(cls, meth, self._count(self._cells[name], vars(cls)[meth]))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, name: str, fn, work):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self.step, stack[-1] if stack else -1, clock())
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if work is not None:
                span.work = work(args, result)
            return result

        return traced

    @staticmethod
    def _count(cell: list[int], fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return counted

    # -- steps -------------------------------------------------------------

    def begin_step(self, step: int) -> None:
        self.step = step
        for cell in self._cells.values():
            cell[0] = 0

    def end_step(self) -> None:
        self.counts[self.step] = {f"{name}.calls": cell[0] for name, cell in self._cells.items()}
        self.step = -1

    # -- results -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the union of its children's intervals."""
        children: list[list[tuple[float, float]]] = [[] for _ in self.spans]
        for span in self.spans:
            if span.parent >= 0:
                children[span.parent].append((span.start, span.end))
        out = []
        for span, kids in zip(self.spans, children):
            covered, reach = 0.0, span.start
            for a, b in sorted(kids):
                a = max(a, reach)
                if b > a:
                    covered += b - a
                    reach = b
            out.append((span.end - span.start) - covered)
        return out

    def per_step_totals(self) -> dict[int, dict[str, float]]:
        """Per step: self time, calls and work of every layer, plus counters."""
        totals: dict[int, dict[str, float]] = {step: dict(c) for step, c in self.counts.items()}
        for span, self_s in zip(self.spans, self.self_times()):
            row = totals.setdefault(span.step, {})
            row[f"{span.name}.self_s"] = row.get(f"{span.name}.self_s", 0.0) + self_s
            row[f"{span.name}.calls"] = row.get(f"{span.name}.calls", 0) + 1
            for key, value in span.work.items():
                row[f"{span.name}.{key}"] = row.get(f"{span.name}.{key}", 0) + value
        return totals

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": [asdict(s) for s in self.spans],
                       "counts": {str(k): v for k, v in self.counts.items()}}, fh)
