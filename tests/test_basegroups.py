import pytest

from wreathz import INTEGERS, ParseError, WreathElement, cyclic, parse_group


def test_mul_examples():
    z2, z3 = cyclic(2), cyclic(3)
    assert z2.mul(1, 1) == 0
    assert INTEGERS.mul(3, -5) == -2
    assert z3.mul(2, 2) == 1


def test_mul_rejects_mismatched_specs():
    def lamp(spec):
        return WreathElement(spec, ((0, 1),), 0)

    with pytest.raises(ValueError, match="mismatched"):
        lamp(cyclic(2)) * lamp(cyclic(3))
    with pytest.raises(ValueError, match="mismatched"):
        lamp(INTEGERS) * lamp(cyclic(2))


def test_word_length_examples():
    assert INTEGERS.word_length(-7) == 7
    assert cyclic(5).word_length(4) == 1
    assert cyclic(2).word_length(1) == 1
    assert INTEGERS.word_length(0) == 0


def test_word_length_symmetric_and_zero_at_identity():
    for spec in (INTEGERS, cyclic(2), cyclic(7)):
        assert spec.word_length(0) == 0
        for v in spec.ball(6):
            assert spec.word_length(v) == spec.word_length(spec.inv(v))


def test_triangle_inequality_on_radius_6_ball():
    for spec in (INTEGERS, cyclic(2), cyclic(7)):
        ball = spec.ball(6)
        for a in ball:
            for b in ball:
                lhs = spec.word_length(spec.mul(a, b))
                assert lhs <= spec.word_length(a) + spec.word_length(b)


def test_ball_examples():
    assert cyclic(2).ball(1) == [0, 1]
    assert INTEGERS.ball(2) == [-2, -1, 0, 1, 2]
    assert cyclic(7).ball(2) == [0, 1, 2, 5, 6]


def test_ball_sizes():
    for radius in range(8):
        assert len(INTEGERS.ball(radius)) == 2 * radius + 1
    for k in (2, 3, 6, 7):
        spec = cyclic(k)
        for radius in range(8):
            assert len(spec.ball(radius)) == min(k, 2 * radius + 1)
        assert len(spec.ball(k)) == k  # saturates at the whole group


def test_cyclic_ball_matches_residue_scan():
    for k in range(2, 40):
        spec = cyclic(k)
        for radius in range(-2, k + 3):
            scan = [v for v in range(k) if spec.word_length(v) <= radius]
            assert spec.ball(radius) == scan, (k, radius)
    assert cyclic(10**9).ball(1) == [0, 1, 10**9 - 1]


def test_cyclic_normalization():
    z5 = cyclic(5)
    assert z5.normalize(7) == 2
    assert z5.normalize(-1) == 4
    assert z5.mul(3, 3) == 1 and z5.inv(1) == 4
    assert INTEGERS.normalize(-7) == -7


def test_generator_values():
    assert INTEGERS.generator_values() == (1, -1)
    assert cyclic(2).generator_values() == (1,)
    assert cyclic(5).generator_values() == (1, 4)


def test_diameter():
    assert cyclic(2).diameter == 1
    assert cyclic(7).diameter == 3
    with pytest.raises(ValueError):
        INTEGERS.diameter


def test_parse_group():
    assert parse_group("Z") == INTEGERS
    assert parse_group("Z/5") == cyclic(5)
    assert parse_group(" Z/2 ") == cyclic(2)
    with pytest.raises(ParseError):
        parse_group("Z/1")
    with pytest.raises(ParseError):
        parse_group("S3")
    with pytest.raises(ValueError):
        cyclic(1)


def test_group_literal_roundtrip():
    for spec in (INTEGERS, cyclic(2), cyclic(12)):
        assert parse_group(str(spec)) == spec
