"""The seed and counts of the `wreathz verify` suites, each with its flag.

The fields are the one owner of each count's name, flag, default and least
value: `cli` builds the `verify` options from them and the check below
names the flag in its message.  They live apart from the suites so that
`cli` reads them without importing `verify`, the slowest module to import.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields


def _option(default: int, flag: str, least: int | None = None):
    return field(default=default, metadata={"flag": flag, "least": least})


@dataclass
class VerifyConfig:
    seed: int = _option(20240901, "--seed")
    triples: int = _option(1000, "--triples", 1)
    random_tree_checks: int = _option(10_000, "--tree-checks", 1)
    samples: int = _option(100_000, "--samples", 1)
    scale: int = _option(1000, "--scale", 0)

    def __post_init__(self):
        for f in fields(self):
            value, least = getattr(self, f.name), f.metadata["least"]
            if least is not None and value < least:
                raise ValueError(f"{f.name} ({f.metadata['flag']}) must be >= {least}, got {value}")
