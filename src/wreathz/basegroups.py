"""Base groups for the lamp coordinates: the integers and the cyclic groups Z/k.

Element values are plain integers (residues normalized to [0, k) for Z/k).
The generating set is fixed to {a, a^-1} with a = 1, so word lengths are
closed-form: |n| on Z and min(j, k-j) on Z/k.  A GroupSpec bundles the group
operations on those raw values.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

_value = itemgetter(1)


class ParseError(ValueError):
    """Malformed literal.  Carries source text and offset for caret messages."""

    def __init__(self, message: str, text: str, pos: int):
        super().__init__(message)
        self.text = text
        self.pos = pos

    def caret_message(self) -> str:
        return "{}\n  {}\n  {}^".format(self.args[0], self.text, " " * self.pos)


@dataclass(frozen=True)
class GroupSpec:
    """The base group H: the integers when order is None, Z/order otherwise."""

    order: int | None = None

    def __post_init__(self):
        if self.order is not None and self.order < 2:
            raise ValueError(f"cyclic order must be >= 2, got {self.order}")

    @property
    def is_finite(self) -> bool:
        return self.order is not None

    def normalize(self, value: int) -> int:
        return value % self.order if self.order else value

    def mul(self, a: int, b: int) -> int:
        return self.normalize(a + b)

    def inv(self, a: int) -> int:
        return self.normalize(-a)

    def word_length(self, a: int) -> int:
        if self.order is None:
            return abs(a)
        a %= self.order
        return min(a, self.order - a)

    def lamp_cost(self, lamps) -> int:
        """Total word length of the values of a canonical lamp configuration
        ((position, value) pairs with normalized, non-identity values)."""
        order = self.order
        if order is None:
            return sum(map(abs, map(_value, lamps)))
        if order < 4:
            # Diameter 1 (Z/2, Z/3): every non-identity value has length 1.
            return len(lamps)
        return sum(map(self.word_length, map(_value, lamps)))

    def generator_values(self) -> tuple[int, ...]:
        """Non-identity values of the generating set {a, a^-1}."""
        if self.order is None:
            return (1, -1)
        return tuple(sorted({1, self.order - 1}))

    @property
    def diameter(self) -> int:
        """Largest word length; finite groups only."""
        if self.order is None:
            raise ValueError("the integers have unbounded word length")
        return self.order // 2

    def ball(self, radius: int) -> list[int]:
        """All values of word length <= radius, ascending."""
        if radius < 0:
            return []
        if self.order is None:
            return list(range(-radius, radius + 1))
        k = self.order
        if 2 * radius + 1 >= k:
            return list(range(k))
        return [*range(radius + 1), *range(k - radius, k)]

    def __str__(self) -> str:
        return "Z" if self.order is None else f"Z/{self.order}"


INTEGERS = GroupSpec(None)


def cyclic(order: int) -> GroupSpec:
    return GroupSpec(order)


def parse_group(text: str) -> GroupSpec:
    """Parse a group literal: `Z` or `Z/k` with k >= 2."""
    s = text.strip()
    if s == "Z":
        return INTEGERS
    if s.startswith("Z/"):
        tail = s[2:]
        digits = tail[1:] if tail.startswith("-") else tail
        # ASCII only: str.isdigit takes digits int() rejects or reads otherwise
        if not (digits.isascii() and digits.isdigit()):
            raise ParseError("expected an integer after 'Z/'", text, text.find("/") + 1)
        k = int(tail)
        if k < 2:
            raise ParseError(f"cyclic order must be >= 2, got {k}", text, text.find("/") + 1)
        return cyclic(k)
    raise ParseError("expected 'Z' or 'Z/k'", text, 0)
