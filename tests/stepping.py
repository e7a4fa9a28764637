"""One step and n steps of a map on a point, for the tests that follow an
orbit point by point; the package reads orbits through their rules and
never steps a point."""

from ergode.systems import (
    CircleMult, CircleRotation, Coordinate, DisjointUnion, FullShift,
    MarkovShift, Point, TimeTMap, time_t_map,
)


def step(system, x: Point) -> Point:
    """One application of the map."""
    if isinstance(system, (FullShift, MarkovShift)):
        if not x.rule.symbolic:
            raise TypeError("shift systems act on symbolic points")
        return x.shifted(1)
    if isinstance(system, CircleMult):
        return Point(Coordinate(((system.n * x.coords[0]) % 1.0,)))
    if isinstance(system, CircleRotation):
        return Point(Coordinate(((x.coords[0] + system.theta) % 1.0,)))
    if isinstance(system, DisjointUnion):
        if x.component not in (0, 1):
            raise ValueError("disjoint-union points must carry a component tag")
        inner = step(system.side(x.component), Point(x.rule, x.offset))
        return Point(inner.rule, inner.offset, x.component, x.fiber)
    if isinstance(system, TimeTMap):
        return time_t_map(system.flow, system.t, x)
    raise TypeError(f"cannot step {type(system).__name__}")


def iterate(system, x: Point, n: int) -> Point:
    if n < 0:
        raise ValueError("iterate needs n >= 0")
    if system.symbolic:
        return x.shifted(n)
    for _ in range(n):
        x = step(system, x)
    return x
