"""The metrics of the spaces, for the tests that compare points by distance;
no computation of the package reads a distance."""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ergode.systems import (
    DisjointUnion, FullShift, MarkovShift, Point, SpaceDescriptor, Suspension,
    TimeTMap,
)
from stepping import step


class Distance(NamedTuple):
    value: float
    truncated: bool


@dataclass(frozen=True)
class MetricSpec:
    """Names the metric of a space; `distance` dispatches on it.

    Symbolic: 2**-(first disagreement index), so <= 1 with index 0 giving 1.
    Circle/torus: (max) arc distance.  Disjoint union: 1 across components.
    Suspension: max of base distance and fiber gap, also compared through the
    next roof crossing on either side, clamped at the cell diameter 1.
    """

    space: SpaceDescriptor


def metric_for(space) -> MetricSpec:
    if isinstance(space, TimeTMap):
        return MetricSpec(space.flow)
    return MetricSpec(space)


def _symbolic_distance(x: Point, y: Point, horizon: int) -> Distance:
    a = x.prefix(horizon)
    b = y.prefix(horizon)
    neq = a != b
    if not neq.any():
        return Distance(0.0, True)
    return Distance(2.0 ** -int(np.argmax(neq)), False)


def _arc(a: float, b: float) -> float:
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


def distance(metric: MetricSpec, x: Point, y: Point, horizon: int = 256) -> Distance:
    """Distance truncated at `horizon` symbols for symbolic comparisons.

    When no disagreement is found within the horizon the reported value is 0
    with the truncation flag set, so callers can tell "equal as far as we
    looked" from a genuine zero.
    """
    space = metric.space
    if isinstance(space, (FullShift, MarkovShift)):
        return _symbolic_distance(x, y, horizon)
    if space.torus_dim:
        return Distance(max(_arc(a, b) for a, b in zip(x.coords, y.coords)), False)
    if isinstance(space, DisjointUnion):
        if x.component not in (0, 1) or y.component not in (0, 1):
            raise ValueError("disjoint-union points must carry a component tag")
        if x.component != y.component:
            return Distance(1.0, False)
        side = space.side(x.component)
        return distance(MetricSpec(side), Point(x.rule, x.offset), Point(y.rule, y.offset), horizon)
    if isinstance(space, Suspension):
        return _suspension_distance(space, x, y, horizon)
    raise TypeError(f"no metric for {type(space).__name__}")


def _suspension_distance(flow: Suspension, x: Point, y: Point, horizon: int) -> Distance:
    if x.fiber is None or y.fiber is None:
        raise ValueError("suspension points need a fiber coordinate")
    base_metric = MetricSpec(flow.base)
    bx = Point(x.rule, x.offset, x.component)
    by = Point(y.rule, y.offset, y.component)
    rx = flow.roof.value_at(x)
    ry = flow.roof.value_at(y)
    d_xy = distance(base_metric, bx, by, horizon)
    d_sx = distance(base_metric, step(flow.base, bx), by, horizon)
    d_sy = distance(base_metric, bx, step(flow.base, by), horizon)
    candidates = (
        max(d_xy.value, abs(x.fiber - y.fiber)),
        max(d_sx.value, (rx - x.fiber) + y.fiber),   # x crosses its roof first
        max(d_sy.value, (ry - y.fiber) + x.fiber),   # y crosses its roof first
    )
    truncated = d_xy.truncated or d_sx.truncated or d_sy.truncated
    return Distance(min(1.0, *candidates), truncated)
