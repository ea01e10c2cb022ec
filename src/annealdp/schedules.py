"""Annealing schedules: global and per-variable piecewise-linear anneal
fraction paths and factory functions for the shapes the experiments use."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

Path = tuple[tuple[float, float], ...]


def _validate_path(path: Path, total_time: float, what: str) -> None:
    if not path:
        raise ValueError(f"{what} must have at least one breakpoint")
    last_t = None
    for t, f in path:
        if not 0.0 <= f <= 1.0:
            raise ValueError(f"{what}: fraction {f} outside [0, 1]")
        # written so that NaN, which fails every comparison, is rejected too
        if not 0.0 <= t <= total_time + 1e-9:
            raise ValueError(f"{what}: time {t} outside [0, {total_time}]")
        if last_t is not None and t < last_t:
            raise ValueError(f"{what}: breakpoint times must be nondecreasing")
        last_t = t


def _frozen(path) -> Path:
    # + 0.0 makes a fraction of -0.0 a 0.0, so paths equal by value give
    # the same floats and may share a fraction_table column
    return tuple((t, f + 0.0) for t, f in path)


def _interp(path: Path, t: float) -> float:
    if t <= path[0][0]:
        return path[0][1]
    for (t0, f0), (t1, f1) in zip(path, path[1:]):
        if t <= t1:
            if t1 == t0:
                return f1
            return f0 + (f1 - f0) * (t - t0) / (t1 - t0)
    return path[-1][1]


@dataclass(frozen=True)
class AnnealSchedule:
    """Piecewise-linear anneal fraction s(t) with optional per-variable
    overrides.

    total_time is in microseconds. breakpoints is the global path; a
    variable listed in variable_paths follows its own path instead.
    cycles counts repetitions of the per-group subschedule; reinitialize
    says whether each read restarts from the initial state or continues
    from the previous read's terminal state.
    """

    total_time: float
    breakpoints: Path
    variable_paths: Mapping[int, Path] | None = None
    cycles: int = 1
    reinitialize: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.total_time < math.inf:
            raise ValueError("total_time must be finite and nonnegative")
        if self.cycles < 1:
            raise ValueError("cycles must be >= 1")
        _validate_path(tuple(self.breakpoints), self.total_time, "global path")
        object.__setattr__(self, "breakpoints", _frozen(self.breakpoints))
        if self.variable_paths is not None:
            # variables that share one path object share its frozen copy,
            # which is validated once, under the first variable that has it;
            # done holds each path object, so no id is reused while it runs
            done: dict[int, tuple[object, Path]] = {}
            frozen = {}
            for v, path in self.variable_paths.items():
                if id(path) not in done:
                    out = _frozen(path)
                    _validate_path(out, self.total_time, f"path of variable {v}")
                    done[id(path)] = (path, out)
                frozen[int(v)] = done[id(path)][1]
            object.__setattr__(self, "variable_paths", frozen)

    def s_at(self, t: float, var: int | None = None) -> float:
        if var is not None and self.variable_paths and var in self.variable_paths:
            return _interp(self.variable_paths[var], t)
        return _interp(self.breakpoints, t)

    def needs_initial_state(self, n: int) -> bool:
        # A variable starting above s=0 has no transverse-dominated start:
        # its classical value at t=0 must come from somewhere.
        return any(self.s_at(0.0, v) > 0.0 for v in range(n))


def _interp_all(path: Path, times: np.ndarray) -> np.ndarray:
    """_interp(path, t) for every t in `times` in one numpy pass. The
    first breakpoint at or after t ends t's segment, which is the segment
    _interp picks, and the interpolation is its arithmetic in its order,
    so every value is the same float. That segment starts strictly
    before t, so no division is by zero."""
    t_at = np.array([t for t, _ in path])
    f_at = np.array([f for _, f in path])
    end = np.searchsorted(t_at, times)
    # at or before the first breakpoint, or past the last one (NaN included)
    out = np.where(end == 0, f_at[0], f_at[-1])
    inside = (end > 0) & (end < len(path))
    end = end[inside]
    t0, t1, f0, f1 = t_at[end - 1], t_at[end], f_at[end - 1], f_at[end]
    out[inside] = f0 + (f1 - f0) * (times[inside] - t0) / (t1 - t0)
    return out


def fraction_table(sched: AnnealSchedule, times: Sequence[float], n: int) -> np.ndarray:
    """s_at(t, v) at every time in `times` for variables 0..n-1, as a
    (len(times), n) array, equal to s_at bit for bit. Variables whose paths
    are equal by value share one column, and each distinct path is
    evaluated over all the times in one numpy pass (_interp_all)."""
    paths = sched.variable_paths or {}
    column: dict[Path, int] = {}
    which = np.empty(n, dtype=np.intp)
    for v in range(n):
        which[v] = column.setdefault(paths.get(v, sched.breakpoints), len(column))
    times = np.asarray(times, dtype=np.float64)
    distinct = np.empty((len(times), len(column)))
    for c, path in enumerate(column):
        distinct[:, c] = _interp_all(path, times)
    return distinct[:, which]


def forward_schedule(total_time: float) -> AnnealSchedule:
    """Plain forward anneal: s runs 0 -> 1 over the full time."""
    return AnnealSchedule(total_time, ((0.0, 0.0), (total_time, 1.0)))


def grouped_cycle_schedule(
    total_time: float,
    groups: Sequence[Iterable[int]],
    cycles: int = 1,
    reversal_target: float = 0.0,
    always_active: Iterable[int] = (),
    reinitialize: bool = True,
    down_fraction: float = 0.2,
    hold_fraction: float = 0.0,
) -> AnnealSchedule:
    """Inhomogeneous reverse anneal in group windows.

    Time splits into cycles x len(groups) equal windows. Within window w
    only group w mod len(groups) dips from 1 to reversal_target and back;
    everything else holds at 1. Variables in always_active dip in every
    window, so they relax jointly with whichever group is active.

    The dip is asymmetric: the drop takes down_fraction of the window,
    an optional plateau at the target takes hold_fraction, and the
    recovery the rest. A fast drop unsticks the group from its incoming
    classical state while the slow rise settles it into the conditional
    minimum; a symmetric slow dip would adiabatically return the state
    it started with. The plateau rotates population between the frozen
    basis states while the transverse field dominates, which is the only
    way a unitary window can favor leaving a conditionally stable state.
    """
    if not 0.0 < down_fraction < 1.0:
        raise ValueError("down_fraction must lie strictly between 0 and 1")
    if not 0.0 <= hold_fraction < 1.0 - down_fraction:
        raise ValueError("hold_fraction must lie in [0, 1 - down_fraction)")
    groups = tuple(tuple(g) for g in groups)
    always = tuple(always_active)
    if not groups:
        raise ValueError("need at least one group")
    seen: set[int] = set()
    for g in groups:
        overlap = seen & set(g)
        if overlap:
            raise ValueError(f"variables {sorted(overlap)} appear in more than one group")
        seen |= set(g)
    if seen & set(always):
        raise ValueError("always_active variables cannot also be grouped")

    n_windows = cycles * len(groups)
    width = total_time / n_windows
    # one path per group and one for the always-active variables, each
    # shared by all of its variables
    group_paths: list[list[tuple[float, float]]] = [[(0.0, 1.0)] for _ in groups]
    always_path: list[tuple[float, float]] = [(0.0, 1.0)]
    for w in range(n_windows):
        start = w * width
        low = start + width * down_fraction
        # boundary shared with the next window's start, computed the
        # same way so accumulated rounding cannot reorder breakpoints
        end = (w + 1) * width
        pts = [(start, 1.0), (low, reversal_target)]
        if hold_fraction > 0.0:
            pts.append((low + width * hold_fraction, reversal_target))
        pts.append((end, 1.0))
        group_paths[w % len(groups)].extend(pts)
        always_path.extend(pts)
    shared = [tuple(path) for path in group_paths]
    path_of = {v: path for g, path in zip(groups, shared) for v in g}
    path_of.update(dict.fromkeys(always, tuple(always_path)))
    variable_paths = {v: path_of[v] for v in seen | set(always)}
    return AnnealSchedule(
        total_time,
        ((0.0, 1.0), (total_time, 1.0)),
        variable_paths=variable_paths,
        cycles=cycles,
        reinitialize=reinitialize,
    )
