"""Exact arithmetic in the wreath product H wr Z.

An element is a pair (lamps, shift): a finitely supported configuration of
non-identity base-group values indexed by integer positions, plus an integer
shift.  The canonical form (strictly increasing positions, no identity
values) makes equality and hashing structural, which the BFS oracles rely on.

Word lengths are closed-form: |shift| when no lamp is lit, and otherwise the
length of the shortest walk on Z from 0 to the shift visiting both support
extremes, plus the total base-group cost of the lamps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .basegroups import GroupSpec, ParseError

# Canonical lamp configuration: ((position, value), ...) with positions
# strictly increasing and values non-identity.
LampConfig = tuple[tuple[int, int], ...]


def canonical_lamps(
    spec: GroupSpec, items: Iterable[tuple[int, int]], shift: int = 0, onto: dict[int, int] | None = None
) -> LampConfig:
    """Multiply (`spec.mul`, inline) `items`, positions moved by `shift`, in
    order onto `onto` (a {position: value} dict the call consumes), drop
    identities and sort.  The one lamp splice: `of`, the product and `act`."""
    acc = {} if onto is None else onto
    order = spec.order
    for pos, value in items:
        q = pos + shift
        v = acc.get(q, 0) + value
        if order:
            v %= order
        if v:
            acc[q] = v
        else:
            acc.pop(q, None)
    return tuple(sorted(acc.items()))


def travel_length(shift: int, lo: int, hi: int) -> int:
    """Length of the shortest walk on Z from 0 to `shift` visiting lo and hi.

    The optimum visits one extreme first, then sweeps to the other, then
    heads to the endpoint; the two visiting orders are the only candidates.
    """
    if lo > hi:
        raise ValueError(f"empty interval: lo={lo} > hi={hi}")
    via_lo = abs(lo) + (hi - lo) + abs(shift - hi)
    via_hi = abs(hi) + (hi - lo) + abs(shift - lo)
    return min(via_lo, via_hi)


@dataclass(frozen=True, slots=True)
class WreathElement:
    """An element (lamps, shift) of H wr Z in canonical form.

    Construct through `of` (which canonicalizes) unless the inputs are
    already canonical.  Slotted: Cayley balls hold ~10^5 of these.
    """

    spec: GroupSpec
    lamps: LampConfig
    shift: int

    def __init__(self, spec: GroupSpec, lamps: LampConfig, shift: int):
        # Store through the slot descriptors: the generated frozen __init__
        # goes through object.__setattr__ once per field.
        _set_spec(self, spec)
        _set_lamps(self, lamps)
        _set_shift(self, shift)

    @classmethod
    def of(
        cls,
        spec: GroupSpec,
        lamps: Mapping[int, int] | Iterable[tuple[int, int]] = (),
        shift: int = 0,
    ) -> "WreathElement":
        items = lamps.items() if isinstance(lamps, Mapping) else lamps
        return cls(spec, canonical_lamps(spec, items), shift)

    @classmethod
    def identity(cls, spec: GroupSpec) -> "WreathElement":
        return cls(spec, (), 0)

    def __mul__(self, other: "WreathElement") -> "WreathElement":
        if self.spec != other.spec:
            raise ValueError(f"mismatched group specs: {self.spec} vs {other.spec}")
        n = self.shift
        lamps = canonical_lamps(self.spec, other.lamps, n, dict(self.lamps))
        return WreathElement(self.spec, lamps, n + other.shift)

    def inverse(self) -> "WreathElement":
        spec = self.spec
        n = self.shift
        inv = tuple((pos - n, spec.inv(value)) for pos, value in self.lamps)
        return WreathElement(spec, inv, -n)

    def word_length(self) -> int:
        """Word length for the generating set {a, a^-1, s, s^-1}."""
        lamps = self.lamps
        n = self.shift
        if not lamps:
            return abs(n)
        # travel_length(n, lo, hi), inline: this runs once per ball element.
        lo, hi = lamps[0][0], lamps[-1][0]
        travel = hi - lo + min(abs(lo) + abs(n - hi), abs(hi) + abs(n - lo))
        return travel + self.spec.lamp_cost(lamps)

    def __str__(self) -> str:
        return format_element(self)


_set_spec = WreathElement.spec.__set__
_set_lamps = WreathElement.lamps.__set__
_set_shift = WreathElement.shift.__set__


def format_element(x: WreathElement) -> str:
    """Canonical literal `(v1@p1, ..., vk@pk; n)`; empty lamps print as `(;n)`."""
    body = ",".join(f"{v}@{p}" for p, v in x.lamps)
    return f"({body};{x.shift})"


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        self.skip_ws()
        if self.peek() != ch:
            raise ParseError(f"expected '{ch}'", self.text, self.pos)
        self.pos += 1

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.peek() in "+-":
            self.pos += 1
        digits = self.pos
        while "0" <= self.peek() <= "9":  # ASCII only: str.isdigit takes other digits
            self.pos += 1
        if self.pos == digits:
            raise ParseError("expected an integer", self.text, self.pos)
        return int(self.text[start : self.pos])


def parse_element(spec: GroupSpec, text: str) -> WreathElement:
    """Parse an element literal `(v1@p1, ..., vk@pk; n)`.

    Positions must be strictly increasing.  Values are normalized into the
    base group; entries that normalize to the identity are dropped, so the
    result is always canonical and printing round-trips bit-exactly.
    """
    sc = _Scanner(text)
    sc.expect("(")
    entries: list[tuple[int, int]] = []
    sc.skip_ws()
    if sc.peek() != ";":
        while True:
            value = sc.integer()
            sc.expect("@")
            pos_at = sc.pos
            position = sc.integer()
            if entries and position <= entries[-1][0]:
                raise ParseError(
                    f"positions must be strictly increasing ({position} after {entries[-1][0]})",
                    text,
                    pos_at,
                )
            entries.append((position, value))
            sc.skip_ws()
            if sc.peek() == ",":
                sc.pos += 1
                continue
            break
    sc.expect(";")
    shift = sc.integer()
    sc.expect(")")
    sc.skip_ws()
    if sc.pos != len(text):
        raise ParseError("unexpected trailing input", text, sc.pos)
    return WreathElement.of(spec, entries, shift)
