import pickle
import random
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wreathz import (
    INTEGERS,
    ParseError,
    WreathElement,
    cyclic,
    format_element,
    parse_element,
    travel_length,
)
from wreathz.verify import random_element

Z2 = cyclic(2)
# Z with values far beyond any machine word, the diameter-1 orders (lamp
# count), and cyclic orders that sum word lengths per value, one above 2^16.
PROPERTY_SPECS = (INTEGERS, Z2, cyclic(3), cyclic(7), cyclic(65539))


@st.composite
def canonical_elements(draw):
    spec = draw(st.sampled_from(PROPERTY_SPECS))
    if spec.is_finite:
        values = st.integers(0, spec.order - 1)
    else:
        values = st.one_of(st.integers(-5, 5), st.integers(-(10**30), 10**30))
    lamps = draw(st.dictionaries(st.integers(-40, 40), values, max_size=10))
    return WreathElement.of(spec, lamps, draw(st.integers(-50, 50)))


def el(spec, lamps, shift):
    return WreathElement.of(spec, lamps, shift)


def per_position(entries):
    """Integer sums of raw (position, value) entries, per position."""
    sums = {}
    for pos, value in entries:
        sums[pos] = sums.get(pos, 0) + value
    return sums


def reference_lamps(spec, sums):
    """Canonical lamps from per-position integer sums: reduced mod the
    order, identities dropped, positions sorted."""
    reduced = {p: v % spec.order if spec.is_finite else v for p, v in sums.items()}
    return tuple(sorted((p, v) for p, v in reduced.items() if v))


@st.composite
def raw_products(draw):
    """Raw lamp entries and shifts of x and y: repeated positions, identity
    and unreduced values allowed, and some of y's entries cancelling x's
    lamps under x's shift."""
    spec = draw(st.sampled_from((Z2, cyclic(3), cyclic(5), INTEGERS)))
    entries = st.lists(st.tuples(st.integers(-8, 8), st.integers(-12, 12)), max_size=10)
    raw_x, raw_y = draw(entries), draw(entries)
    nx, ny = draw(st.integers(-6, 6)), draw(st.integers(-6, 6))
    x_sums, y_sums = per_position(raw_x), per_position(raw_y)
    if x_sums:
        for pos in draw(st.sets(st.sampled_from(sorted(x_sums)))):
            # y's entries at pos - nx now sum to minus x's lamp at pos
            raw_y.append((pos - nx, -x_sums[pos] - y_sums.get(pos - nx, 0)))
    return spec, raw_x, nx, raw_y, ny


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(raw_products())
def test_of_and_product_match_a_per_position_reference(case):
    spec, raw_x, nx, raw_y, ny = case
    x, y = el(spec, raw_x, nx), el(spec, raw_y, ny)
    x_sums, y_sums = per_position(raw_x), per_position(raw_y)
    assert x == WreathElement(spec, reference_lamps(spec, x_sums), nx)
    assert y == WreathElement(spec, reference_lamps(spec, y_sums), ny)
    product = dict(x_sums)
    for pos, value in y_sums.items():
        product[pos + nx] = product.get(pos + nx, 0) + value
    assert x * y == WreathElement(spec, reference_lamps(spec, product), nx + ny)


def test_mul_examples():
    assert el(Z2, {0: 1}, 1) * el(Z2, {0: 1}, -1) == el(Z2, {0: 1, 1: 1}, 0)
    x = el(Z2, {-2: 1, 3: 1}, 2)
    assert WreathElement.identity(Z2) * x == x
    assert x * WreathElement.identity(Z2) == x
    assert el(Z2, {0: 1}, 0) * el(Z2, {0: 1}, 0) == WreathElement.identity(Z2)


def test_mul_rejects_mismatched_specs():
    with pytest.raises(ValueError, match="mismatched"):
        el(Z2, {}, 1) * el(cyclic(3), {}, 1)


def test_inverse_examples():
    assert el(Z2, {}, 3).inverse() == el(Z2, {}, -3)
    assert el(Z2, {1: 1}, 0).inverse() == el(Z2, {1: 1}, 0)
    assert el(INTEGERS, {0: 2}, 1).inverse() == el(INTEGERS, {-1: -2}, -1)


def test_travel_length_examples():
    assert travel_length(1, 0, 3) == 5
    assert travel_length(0, -1, 1) == 4
    assert travel_length(0, 0, 0) == 0
    with pytest.raises(ValueError):
        travel_length(0, 1, -1)


def test_word_length_examples():
    assert el(Z2, {0: 1}, 0).word_length() == 1
    assert el(Z2, {1: 1}, 0).word_length() == 3
    assert el(Z2, {-1: 1, 1: 1}, 0).word_length() == 6
    assert el(Z2, {}, -4).word_length() == 4


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(canonical_elements())
def test_lamp_cost_and_word_length_match_per_value_sum(x):
    spec, lamps = x.spec, x.lamps
    per_value = sum(spec.word_length(v) for _, v in lamps)
    assert spec.lamp_cost(lamps) == per_value
    if lamps:
        assert x.word_length() == travel_length(x.shift, lamps[0][0], lamps[-1][0]) + per_value
    else:
        assert x.word_length() == abs(x.shift)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(canonical_elements())
def test_slotted_element_is_frozen_and_structural(x):
    assert not hasattr(x, "__dict__")
    with pytest.raises(FrozenInstanceError):
        x.shift = x.shift + 1
    with pytest.raises(FrozenInstanceError):
        x.lamps = ()
    twin = WreathElement(x.spec, tuple(list(x.lamps)), int(str(x.shift)))
    assert twin == x and hash(twin) == hash(x) and len({twin, x}) == 1
    assert WreathElement(x.spec, x.lamps, x.shift + 1) != x
    assert pickle.loads(pickle.dumps(x)) == x


def test_lamp_cost_across_the_diameter_one_cut_off():
    # Z/2 and Z/3 count lamps; from Z/4 on some value costs more than 1
    for order in range(2, 9):
        spec = cyclic(order)
        lamps = tuple(enumerate(range(1, order)))
        assert spec.lamp_cost(lamps) == sum(spec.word_length(v) for v in range(1, order))


def test_equal_lamps_and_shift_over_different_specs_are_distinct():
    # equal lamps and shift over two base groups are two elements and two keys
    x, y = WreathElement(cyclic(3), ((0, 1),), 0), WreathElement(cyclic(5), ((0, 1),), 0)
    assert x != y and len({x, y}) == 2 and len({x: 0, y: 1}) == 2


def test_canonical_form():
    # identity values dropped, duplicate positions multiplied together
    assert el(Z2, [(0, 1), (0, 1)], 0) == WreathElement.identity(Z2)
    assert el(cyclic(3), [(2, 2), (2, 2)], 1) == el(cyclic(3), {2: 1}, 1)
    assert el(INTEGERS, {1: 0}, 0) == WreathElement.identity(INTEGERS)


def test_group_axioms_random():
    rng = random.Random(7)
    for spec in (Z2, cyclic(3), INTEGERS):
        e = WreathElement.identity(spec)
        for _ in range(300):
            x, y, z = (random_element(spec, rng) for _ in range(3))
            assert (x * y) * z == x * (y * z)
            assert x * x.inverse() == e
            assert x.word_length() == x.inverse().word_length()


def test_length_is_a_metric_under_products():
    rng = random.Random(8)
    for _ in range(300):
        x, y = random_element(Z2, rng), random_element(Z2, rng)
        assert (x * y).word_length() <= x.word_length() + y.word_length()


def test_literal_roundtrip():
    assert format_element(el(Z2, {}, 5)) == "(;5)"
    assert format_element(el(Z2, {-1: 1, 1: 1}, 0)) == "(1@-1,1@1;0)"
    rng = random.Random(9)
    for spec in (Z2, cyclic(5), INTEGERS):
        for _ in range(200):
            x = random_element(spec, rng)
            assert parse_element(spec, format_element(x)) == x


def test_parse_accepts_whitespace_and_normalizes():
    assert parse_element(Z2, " ( 1@-1 , 1@1 ; 0 ) ") == el(Z2, {-1: 1, 1: 1}, 0)
    # values are normalized into the group; identities are pruned
    assert parse_element(Z2, "(2@0;0)") == WreathElement.identity(Z2)
    assert parse_element(cyclic(3), "(-1@2;1)") == el(cyclic(3), {2: 2}, 1)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("1@0;0)", r"expected '\('"),
        ("(1@0 0)", "expected ';'"),
        ("(1@;0)", "expected an integer"),
        ("(1@0,1@0;0)", "strictly increasing"),
        ("(1@1,1@0;0)", "strictly increasing"),
        ("(;0) junk", "trailing"),
        ("(;)", "expected an integer"),
    ],
)
def test_parse_errors_carry_position(text, fragment):
    with pytest.raises(ParseError, match=fragment) as exc:
        parse_element(Z2, text)
    msg = exc.value.caret_message()
    assert text in msg and "^" in msg
    caret_line = msg.splitlines()[-1]
    assert 0 <= caret_line.index("^") - 2 <= len(text)
