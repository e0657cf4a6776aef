"""A frame is its basis: ``Frame`` takes E alone and derives d, the dual
basis F, the shear and its integer form from one inverse of E."""

import dataclasses
from fractions import Fraction

import pytest

from weylccr import Element, Fock, Frame, TAU
from weylccr import lattice
from weylccr.lattice import mat_identity, mat_inverse, mat_mul, mat_scale, mat_transpose, matrix
from weylccr.scalars import ExactScalar

#: bases for d = 1..3, with and without tau
BASES = [
    [[1]],
    [[2]],
    [[TAU]],
    [[1, Fraction(1, 3)], [0, 2]],
    [[1 + TAU, Fraction(1, 3)], [0, TAU]],
    [[2, 1, 0], [0, 1, 0], [1, 0, 3]],
    [[TAU, 0, 0], [0, TAU, 0], [0, 0, TAU]],
]

DERIVED = ("d", "F", "shear", "shear_over_tau")


def derived(frame: Frame) -> tuple:
    return tuple(getattr(frame, name) for name in DERIVED)


def test_the_basis_is_the_only_init_field():
    fields = dataclasses.fields(Frame)
    assert [f.name for f in fields if f.init] == ["E"]
    assert [f.name for f in fields if f.compare] == ["E"]


def test_the_four_field_constructor_is_gone():
    E = ((ExactScalar.rational(1),),)
    with pytest.raises(TypeError):
        Frame(d=1, E=E, F=((ExactScalar.rational(2),),), shear=((ExactScalar.rational(5),),))
    with pytest.raises(ValueError):
        dataclasses.replace(Frame.standard(1), F=E)


@pytest.mark.parametrize("rows", BASES, ids=range(len(BASES)))
def test_replacing_the_basis_derives_every_other_field_anew(rows):
    M = matrix(rows)
    replaced = dataclasses.replace(Frame.standard(1), E=M)
    built = Frame.from_basis(M)
    assert replaced == built and derived(replaced) == derived(built)
    assert replaced.d == len(rows)


def test_a_replaced_basis_gives_the_values_of_the_new_frame():
    """Fock at u(1) on E = 2 reads |F a|^2 = (tau/2)^2 from the new dual basis."""
    replaced = dataclasses.replace(Frame.standard(1), E=matrix([[2]]))
    built = Frame.from_basis([[2]])
    value = Fock().evaluate(Element.u(built, [1]))
    assert Fock().evaluate(Element.u(replaced, [1])) == value
    assert value == pytest.approx(0.0848, abs=1e-4)


@pytest.mark.parametrize("rows", BASES, ids=range(len(BASES)))
def test_frames_built_apart_from_equal_bases_are_equal_and_hash_equal(rows):
    f1, f2 = Frame(matrix(rows)), Frame.from_basis([list(row) for row in rows])
    assert f1 is not f2 and f1 == f2 and hash(f1) == hash(f2)
    assert len({f1, f2}) == 1


@pytest.mark.parametrize("rows", BASES, ids=range(len(BASES)))
def test_building_a_frame_inverts_its_basis_once(rows, monkeypatch):
    calls = []

    def counted(m):
        calls.append(m)
        return mat_inverse(m)

    monkeypatch.setattr(lattice, "mat_inverse", counted)
    frame = Frame.from_basis(rows)
    assert calls == [frame.E]


@pytest.mark.parametrize("rows", BASES, ids=range(len(BASES)))
def test_the_derived_fields_are_exact(rows):
    frame = Frame.from_basis(rows)
    E, F, d = frame.E, frame.F, frame.d
    assert mat_mul(mat_transpose(F), E) == mat_scale(TAU, mat_identity(d))
    assert frame.shear == mat_mul(mat_inverse(E), F)
    assert frame.shear == mat_scale(1 / TAU, mat_mul(mat_transpose(F), F))
    if frame.shear_over_tau is not None:
        g, rows_g = frame.shear_over_tau
        assert mat_scale(TAU / g, rows_g) == frame.shear


def test_str_shows_the_basis():
    assert str(Frame(matrix([[1]]))) == str(Frame.standard(1)) == "Frame(d=1, E=[1])"
    assert str(Frame.from_basis([[2]])) == "Frame(d=1, E=[2])"
