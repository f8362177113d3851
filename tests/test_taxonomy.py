import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hierfish.errors import DuplicateName, EmptyTaxonomy, IndexOutOfRange, MalformedDocument
from hierfish.taxonomy import Taxonomy, default_taxonomy, load_taxonomy


def test_default_six_groups_31_species():
    t = default_taxonomy()
    assert t.G == 6
    assert t.S == 31
    assert t.group_sizes == (2, 2, 11, 9, 5, 2)


def test_minimal_tree():
    t = load_taxonomy('{"groups":[{"name":"A","species":["a"]}]}')
    assert t.G == 1 and t.S == 1
    assert t.to_global(0, 0) == 0
    assert t.to_local(0) == (0, 0)


def test_group_major_order(tiny_taxonomy):
    t = tiny_taxonomy
    assert [t.species_index(n) for n in ("x1", "x2", "y1")] == [0, 1, 2]
    assert t.to_global(1, 0) == 2
    assert t.to_local(1) == (0, 1)


def test_round_trip_exhaustive(six31):
    # independent enumeration oracle: walk the structure directly
    expected = []
    for g, species in enumerate(six31.species_by_group):
        for i in range(len(species)):
            expected.append((g, i))
    for s, (g, i) in enumerate(expected):
        assert six31.to_global(g, i) == s
        assert six31.to_local(s) == (g, i)


def test_index_out_of_range(tiny_taxonomy):
    with pytest.raises(IndexOutOfRange):
        tiny_taxonomy.to_global(2, 0)
    with pytest.raises(IndexOutOfRange):
        tiny_taxonomy.to_global(0, 2)
    with pytest.raises(IndexOutOfRange):
        tiny_taxonomy.to_local(3)
    with pytest.raises(IndexOutOfRange):
        tiny_taxonomy.to_local(-1)


def test_unknown_species_names(tiny_taxonomy):
    for name in ("z9", "", ["x1"], {"x1": 1}, None):
        with pytest.raises(IndexOutOfRange):
            tiny_taxonomy.species_index(name)
    assert tiny_taxonomy.species_names == ("x1", "x2", "y1")


def test_lookup_tables_leave_equality_and_hash_alone(tiny_taxonomy):
    twin = Taxonomy(groups=("X", "Y"), species_by_group=(("x1", "x2"), ("y1",)))
    assert twin == tiny_taxonomy
    assert hash(twin) == hash(tiny_taxonomy)


def test_duplicate_names_rejected():
    with pytest.raises(DuplicateName):
        load_taxonomy('{"groups":[{"name":"A","species":["a"]},{"name":"A","species":["b"]}]}')
    with pytest.raises(DuplicateName):
        load_taxonomy('{"groups":[{"name":"A","species":["a","a"]}]}')
    with pytest.raises(DuplicateName):
        load_taxonomy('{"groups":[{"name":"A","species":["a"]},{"name":"B","species":["a"]}]}')


def test_empty_taxonomy_rejected():
    with pytest.raises((EmptyTaxonomy, MalformedDocument)):
        load_taxonomy('{"groups":[]}')
    with pytest.raises(EmptyTaxonomy):
        load_taxonomy('{"groups":[{"name":"A","species":[]}]}')


def test_malformed_document():
    with pytest.raises(MalformedDocument):
        load_taxonomy("not json")
    with pytest.raises(MalformedDocument):
        load_taxonomy('{"nope": 1}')
    with pytest.raises(MalformedDocument):
        load_taxonomy('{"groups":[{"name":"A"}]}')


def test_deterministic_reload(six31):
    text = six31.to_json()
    a = load_taxonomy(text)
    b = load_taxonomy(text)
    assert a == b == six31
    assert a.digest() == six31.digest()


@st.composite
def taxonomies(draw):
    G = draw(st.integers(1, 5))
    sizes = [draw(st.integers(1, 6)) for _ in range(G)]
    groups = tuple(f"g{k}" for k in range(G))
    species = tuple(
        tuple(f"s{g}_{i}" for i in range(n)) for g, n in enumerate(sizes)
    )
    return Taxonomy(groups=groups, species_by_group=species)


@given(taxonomies())
def test_bijection_property(t):
    seen = set()
    for g in range(t.G):
        for i in range(len(t.species_by_group[g])):
            s = t.to_global(g, i)
            assert 0 <= s < t.S
            assert s not in seen
            seen.add(s)
            assert t.to_local(s) == (g, i)
    assert len(seen) == t.S


@given(taxonomies())
def test_layout_tables_are_read_only_and_follow_the_index_arithmetic(t):
    """`spans`, `starts` and `column_group` are the species axis that
    `to_global` and `group_sizes` give, and no reader can write them."""
    starts = [t.to_global(g, 0) for g in range(t.G)]
    column_group = [None] * t.S
    for g, n in enumerate(t.group_sizes):
        for i in range(n):
            column_group[t.to_global(g, i)] = g
    assert t.starts.tolist() == starts
    assert t.spans.tolist() == [[a, a + n] for a, n in zip(starts, t.group_sizes)]
    assert t.column_group.tolist() == column_group
    for table in (t.spans, t.starts, t.column_group):
        with pytest.raises(ValueError):
            table[0] = 1
