from fractions import Fraction

import numpy as np
import pytest

from groupident import Distribution, Group
from groupident.errors import DomainError
from groupident.fixtures import (dumps_distribution, dumps_table,
                                 loads_distribution, loads_table,
                                 read_distribution, read_table,
                                 write_distribution, write_table)
from groupident.funceq import FunctionTable
from groupident.solenoid import character_gaussian_values, make_lattice


def test_distribution_roundtrip_exact(tmp_path):
    g = Group([4, 3])
    dist = Distribution.random(g, 7, 0.2)
    path = tmp_path / "d.dist"
    write_distribution(path, dist)
    back = read_distribution(path)
    assert back.group == g
    assert np.array_equal(back.masses, dist.masses)


def test_distribution_text_shape():
    g = Group([2])
    dist = Distribution.from_pairs(g, {g.zero: 0.25, g.element([1]): 0.75})
    text = dumps_distribution(dist)
    lines = text.strip().splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == "group 2"
    assert lines[2] == "0 0.25"
    assert loads_distribution(text).total_variation(dist) == 0.0


def test_distribution_rejects_bad_header():
    with pytest.raises(DomainError):
        loads_distribution("0 1.0\n")


def test_group_table_roundtrip(tmp_path):
    g = Group([6, 6])
    vals = g.pairing_matrix[g.index(g.element([2, 3]))]
    table = FunctionTable(g, g.elements(), vals)
    path = tmp_path / "t.table"
    write_table(path, table)
    back = read_table(path)
    assert back.domain == g
    assert np.array_equal(back.values, table.values)
    assert back.points == table.points


def test_lattice_table_roundtrip(tmp_path):
    lat = make_lattice([2, 3, 5], 2, 12)
    table = character_gaussian_values(lat, Fraction(7, 30), 0.3)
    path = tmp_path / "l.table"
    write_table(path, table)
    back = read_table(path)
    assert back.domain == lat
    assert back.points == table.points
    assert np.array_equal(back.values, table.values)


def test_lattice_points_written_as_fractions():
    lat = make_lattice([2, 3], 1, 3)
    table = FunctionTable.constant(lat)
    text = dumps_table(table)
    assert "-1/2 " in text
    assert "lattice 2,3 1 3" in text


def test_repeated_points_are_rejected():
    g = Group([4])
    e0, e1, e2, e3 = g.elements()
    with pytest.raises(DomainError):
        FunctionTable(g, (e0, e1, e1, e2, e3), np.ones(5))
    for table in (FunctionTable.constant(g),
                  FunctionTable.constant(make_lattice([2, 3], 1, 3))):
        lines = dumps_table(table).splitlines()
        with pytest.raises(DomainError):
            loads_table("\n".join(lines[:3] + lines[2:]) + "\n")


def test_off_window_points_are_rejected():
    lat = make_lattice([2, 3], 1, 3)
    outside = Fraction(100, 6)
    with pytest.raises(DomainError):
        FunctionTable(lat, (outside, Fraction(0)), [1, 2])
    lines = dumps_table(FunctionTable.constant(lat)).splitlines()
    with pytest.raises(DomainError):
        loads_table("\n".join(lines + ["50/3 1.0 0.0"]) + "\n")
    assert outside not in FunctionTable.constant(lat)
