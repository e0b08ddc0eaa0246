"""Core invariants: validation, paratopism algebra, tables, serialization."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k33free.core import (
    ALL_CONJS,
    CONJ_CL,
    CONJ_ID,
    LatinError,
    LatinRectangle,
    Paratopism,
    apply,
    conjugate,
    group_table,
    is_orthogonal,
    linear_square,
    parse,
    parse_catalog,
    serialize,
    serialize_catalog,
    shape_preserving_conjs,
    supported_group_specs,
    validate,
)

Z3 = LatinRectangle(((0, 1, 2), (1, 2, 0), (2, 0, 1)))


def test_validate_accepts_latin():
    validate(Z3.rows)
    validate(((0, 1, 2, 3), (1, 0, 3, 2)))


@pytest.mark.parametrize(
    "rows",
    [
        ((0, 0, 1),),
        ((0, 1, 2), (0, 2, 1)),
        ((0, 1), (1, 0), (0, 1)),
        ((0, 1, 3),),
        ((),),
    ],
)
def test_validate_rejects(rows):
    with pytest.raises(LatinError):
        validate(rows)


def test_triples_roundtrip():
    triples = set(Z3.triples())
    assert (0, 2, 2) in triples and len(triples) == 9


def perm_strategy(n):
    return st.permutations(range(n))


@st.composite
def paratopisms(draw, m=3, n=4):
    return Paratopism(
        tuple(draw(perm_strategy(m))),
        tuple(draw(perm_strategy(n))),
        tuple(draw(perm_strategy(n))),
        draw(st.sampled_from(ALL_CONJS)),
    )


@given(paratopisms(m=4, n=4), paratopisms(m=4, n=4))
@settings(max_examples=60)
def test_compose_matches_pointwise_action(p, q):
    s = group_table("Z2xZ2")
    assert apply(p.compose(q), s).rows == apply(p, apply(q, s)).rows


@given(paratopisms(m=4, n=4))
@settings(max_examples=60)
def test_inverse_is_inverse(p):
    s = group_table("Z4")
    assert apply(p.inverse(), apply(p, s)).rows == s.rows
    assert p.compose(p.inverse()).conj == CONJ_ID


def test_conjugate_cl_swaps_columns_and_letters():
    t = conjugate(Z3, CONJ_CL)
    assert set(t.triples()) == {(r, l, c) for r, c, l in Z3.triples()}


def test_shape_preserving_conjs():
    assert shape_preserving_conjs(2, 5) == (CONJ_ID, CONJ_CL)
    assert len(shape_preserving_conjs(4, 4)) == 6


def test_group_tables_are_latin():
    for spec in supported_group_specs(12):
        validate(group_table(spec).rows)


def test_group_table_errors():
    with pytest.raises(LatinError):
        group_table("D2")
    with pytest.raises(LatinError):
        group_table("Q8")


def test_linear_square():
    s = linear_square(5, 2, 3)
    validate(s.rows)
    assert s.rows[1][1] == 0
    with pytest.raises(LatinError):
        linear_square(6, 2, 1)


def test_orthogonality():
    assert is_orthogonal(linear_square(5, 1, 1), linear_square(5, 1, 2))
    assert not is_orthogonal(Z3, Z3)


def test_serialize_roundtrip():
    for s in (Z3, group_table("D4")):
        assert parse(serialize(s)).rows == s.rows
    cat = [Z3, group_table("Z4")]
    assert [x.rows for x in parse_catalog(serialize_catalog(cat))] == [
        x.rows for x in cat
    ]


@st.composite
def rectangles(draw):
    """An m-by-n latin rectangle: rows of an isotope of the cyclic square."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, n))
    rho, gamma, lam = (draw(perm_strategy(n)) for _ in range(3))
    return LatinRectangle(
        tuple(tuple(lam[(rho[r] + gamma[c]) % n] for c in range(n)) for r in range(m))
    )


@given(st.lists(st.tuples(rectangles(), st.sampled_from(["", " ", "\t"])),
                min_size=1, max_size=4))
@settings(max_examples=60)
def test_catalog_round_trip_with_whitespace_separator_lines(items):
    text = "".join(serialize(s) + sep + "\n" for s, sep in items)
    assert [x.rows for x in parse_catalog(text)] == [s.rows for s, _ in items]


def test_parse_errors():
    with pytest.raises(LatinError):
        parse("")
    with pytest.raises(LatinError):
        parse("2 2\n0 1\n0 1")
    with pytest.raises(LatinError):
        parse("1 3\n0 1")
