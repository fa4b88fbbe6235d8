"""Plain-text fixture formats for distributions and function tables.

Distribution files::

    # groupident distribution v1
    group 4x3
    0,0 0.5
    1,2 0.5

Table files carry complex values as a real and an imaginary column; the
domain line is either ``group <orders>`` or ``lattice <base> <depth> <radius>``
and lattice points are written as reduced fractions::

    # groupident table v1
    lattice 2,3,5 2 60
    -1/30 0.987 -0.021

Floats are written with ``repr``, so reading a file back reproduces the
original values bit for bit.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import numpy as np

from .distributions import Distribution
from .errors import DomainError
from .funceq import FunctionTable
from .groups import Group
from .solenoid import RationalLattice

DIST_HEADER = "# groupident distribution v1"
TABLE_HEADER = "# groupident table v1"


def _orders_str(group: Group) -> str:
    return "x".join(str(n) for n in group.orders)


def _parse_orders(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.split("x"))


def dumps_distribution(dist: Distribution) -> str:
    lines = [DIST_HEADER, f"group {_orders_str(dist.group)}"]
    for i, mass in enumerate(dist.masses):
        if mass != 0.0:
            coords = ",".join(str(c) for c in dist.group.element_at(i).coords)
            lines.append(f"{coords} {float(mass)!r}")
    return "\n".join(lines) + "\n"


def loads_distribution(text: str) -> Distribution:
    lines = [ln.strip() for ln in text.splitlines()
             if ln.strip() and not ln.startswith("#")]
    if not lines or not lines[0].startswith("group "):
        raise DomainError("distribution fixture must start with a group line")
    group = Group(_parse_orders(lines[0].split(None, 1)[1]))
    masses = np.zeros(group.size)
    for ln in lines[1:]:
        coords_text, mass_text = ln.split()
        x = group.element([int(c) for c in coords_text.split(",")])
        masses[group.index(x)] += float(mass_text)
    return Distribution(group, masses)


def write_distribution(path, dist: Distribution) -> None:
    Path(path).write_text(dumps_distribution(dist), encoding="utf-8")


def read_distribution(path) -> Distribution:
    return loads_distribution(Path(path).read_text(encoding="utf-8"))


def dumps_table(table: FunctionTable) -> str:
    dom = table.domain
    if isinstance(dom, Group):
        domain_line = f"group {_orders_str(dom)}"
        point_str = [",".join(str(c) for c in p.coords) for p in table.points]
    elif isinstance(dom, RationalLattice):
        base = ",".join(str(a) for a in dom.base)
        domain_line = f"lattice {base} {dom.depth} {dom.radius}"
        point_str = [str(p) for p in table.points]
    else:
        raise DomainError(f"cannot serialize tables on {type(dom).__name__}")
    lines = [TABLE_HEADER, domain_line]
    for ps, v in zip(point_str, table.values):
        lines.append(f"{ps} {float(v.real)!r} {float(v.imag)!r}")
    return "\n".join(lines) + "\n"


def loads_table(text: str) -> FunctionTable:
    lines = [ln.strip() for ln in text.splitlines()
             if ln.strip() and not ln.startswith("#")]
    if not lines:
        raise DomainError("empty table fixture")
    head = lines[0].split()
    if head[0] == "group":
        dom = Group(_parse_orders(head[1]))
        parse_point = lambda s: dom.element([int(c) for c in s.split(",")])
    elif head[0] == "lattice":
        dom = RationalLattice([int(a) for a in head[1].split(",")],
                              int(head[2]), int(head[3]))
        parse_point = Fraction
    else:
        raise DomainError(f"unknown table domain {head[0]!r}")
    points, values = [], []
    for ln in lines[1:]:
        ps, re_s, im_s = ln.split()
        points.append(parse_point(ps))
        values.append(complex(float(re_s), float(im_s)))
    return FunctionTable(dom, tuple(points), np.array(values))


def write_table(path, table: FunctionTable) -> None:
    Path(path).write_text(dumps_table(table), encoding="utf-8")


def read_table(path) -> FunctionTable:
    return loads_table(Path(path).read_text(encoding="utf-8"))
