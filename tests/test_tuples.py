"""Unit tests for the tuple data model."""

import pytest

from repro.streams.tuples import CompositeTuple, StreamTuple, joiner, lineage_key, parts_of


def test_stream_tuple_fields():
    t = StreamTuple("R", 7, 42, payload={"x": 1})
    assert t.stream == "R"
    assert t.seq == 7
    assert t.key == 42
    assert t.payload == {"x": 1}


def test_stream_tuple_lineage_is_itself():
    t = StreamTuple("R", 3, 1)
    assert t.lineage == (("R", 3),)


def test_stream_tuple_equality_by_identity_not_key():
    assert StreamTuple("R", 1, 5) == StreamTuple("R", 1, 99)
    assert StreamTuple("R", 1, 5) != StreamTuple("R", 2, 5)
    assert StreamTuple("R", 1, 5) != StreamTuple("S", 1, 5)


def test_stream_tuple_hashable():
    s = {StreamTuple("R", 1, 5), StreamTuple("R", 1, 5), StreamTuple("S", 1, 5)}
    assert len(s) == 2


def test_composite_of_two_base_tuples():
    r = StreamTuple("R", 0, 9)
    s = StreamTuple("S", 1, 9)
    c = CompositeTuple.of(r, s)
    assert c.key == 9
    assert c.lineage == (("R", 0), ("S", 1))
    assert c.streams == frozenset({"R", "S"})


def test_composite_of_composite_and_base():
    r, s, t = StreamTuple("R", 0, 4), StreamTuple("S", 1, 4), StreamTuple("T", 2, 4)
    rs = CompositeTuple.of(r, s)
    rst = CompositeTuple.of(rs, t)
    assert rst.lineage == (("R", 0), ("S", 1), ("T", 2))
    assert rst.part("T") is t


def test_composite_of_two_composites():
    r, s, t, u = (StreamTuple(n, i, 1) for i, n in enumerate("RSTU"))
    left = CompositeTuple.of(r, s)
    right = CompositeTuple.of(t, u)
    both = CompositeTuple.of(left, right)
    assert both.streams == frozenset("RSTU")


def test_composite_lineage_is_sorted_and_order_insensitive():
    r = StreamTuple("R", 0, 4)
    s = StreamTuple("S", 1, 4)
    assert CompositeTuple.of(r, s).lineage == CompositeTuple.of(s, r).lineage


def test_composite_equality_and_hash_by_lineage():
    r, s = StreamTuple("R", 0, 4), StreamTuple("S", 1, 4)
    assert CompositeTuple.of(r, s) == CompositeTuple.of(s, r)
    assert hash(CompositeTuple.of(r, s)) == hash(CompositeTuple.of(s, r))


def test_composite_part_missing_stream_raises():
    c = CompositeTuple.of(StreamTuple("R", 0, 1), StreamTuple("S", 1, 1))
    with pytest.raises(KeyError):
        c.part("T")


def test_composite_min_max_seq():
    c = CompositeTuple.of(StreamTuple("R", 5, 1), StreamTuple("S", 2, 1))
    assert c.max_seq() == 5
    assert c.min_seq() == 2


def test_lineage_key_uniform_over_kinds():
    t = StreamTuple("R", 0, 1)
    assert lineage_key(t) == (("R", 0),)
    c = CompositeTuple.of(t, StreamTuple("S", 1, 1))
    assert lineage_key(c) == c.lineage


def test_parts_of():
    t = StreamTuple("R", 0, 1)
    assert list(parts_of(t)) == [t]
    c = CompositeTuple.of(t, StreamTuple("S", 1, 1))
    assert set(p.stream for p in parts_of(c)) == {"R", "S"}


# -- joiner: ``CompositeTuple.of`` with the shape decided once ----------------------


def streams_of(tup):
    return tuple(p.stream for p in parts_of(tup))


def assert_same_composite(built, expected):
    assert type(built) is CompositeTuple
    assert built.key == expected.key
    assert built.parts == expected.parts
    assert built.ident == expected.ident
    assert built == expected and expected == built
    assert hash(built) == hash(expected)
    assert built.lineage == expected.lineage


@pytest.mark.parametrize("first, second", [("A", "B"), ("B", "A")])
def test_joiner_pairs_two_base_tuples_in_stream_order(first, second):
    x, y = StreamTuple(first, 4, 7), StreamTuple(second, 2, 7)
    assert_same_composite(joiner((first,), (second,))(x, y), CompositeTuple.of(x, y))


@pytest.mark.parametrize("size", [1, 2, 3, 4])
@pytest.mark.parametrize("base_first", [True, False])
def test_joiner_inserts_a_base_tuple_at_every_position(size, base_first):
    # The other side's streams are B, D, F, H (a base tuple when size is 1); the
    # base tuple's stream A, C, E, G or I lands before, between or after them.
    other = [StreamTuple(s, 10 + i, 3) for i, s in enumerate("BDFH"[:size])]
    run = other[0] if size == 1 else CompositeTuple.of(*other)
    for position, stream in enumerate("ACEGI"[: size + 1]):
        base = StreamTuple(stream, 50 + position, 3)
        x, y = (base, run) if base_first else (run, base)
        assemble = joiner(streams_of(x), streams_of(y))
        built = assemble(x, y)
        assert_same_composite(built, CompositeTuple.of(x, y))
        assert built.parts[position] is base


def test_joiner_falls_back_to_of():
    ab = CompositeTuple.of(StreamTuple("A", 1, 5), StreamTuple("B", 2, 5))
    cd = CompositeTuple.of(StreamTuple("C", 3, 5), StreamTuple("D", 4, 5))
    e = StreamTuple("E", 5, 5)
    for a, b, x, y in [
        (("A", "B"), ("C", "D"), ab, cd),  # two composites
        (("C", "D"), ("A", "B"), cd, ab),
        (None, ("E",), ab, e),  # a side whose streams are unknown
        (("A", "B"), None, ab, e),
        (None, None, ab, e),
        ((), ("E",), ab, e),
    ]:
        assemble = joiner(a, b)
        assert assemble == CompositeTuple.of
        assert_same_composite(assemble(x, y), CompositeTuple.of(x, y))
