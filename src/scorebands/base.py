"""Names every layer shares, in the standard library alone.

The errors, the rating scale, the synthetic generator names and the check
on a line's encoding live here, so that extraction, and the CLI up to the
subcommand it runs, never import numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

GENERATORS = ("homoscedastic", "heteroscedastic_groups", "peaked_logprob")


class DataError(Exception):
    """Input data violates a documented contract (bad file, bad record)."""


class InvariantError(Exception):
    """An internal invariant was violated; indicates a bug, not bad input."""


@dataclass(frozen=True)
class RatingScale:
    """Discrete Likert scale with integer labels ``1 .. k_max``."""

    k_max: int = 5

    def __post_init__(self) -> None:
        if self.k_max < 2:
            raise ValueError(f"k_max must be >= 2, got {self.k_max}")

    @property
    def labels(self) -> range:
        return range(1, self.k_max + 1)

    @property
    def max_width(self) -> int:
        """Widest possible interval on this scale (k_max - 1)."""
        return self.k_max - 1


def utf8_line(line: str) -> str:
    """A line of a file opened with ``errors="surrogateescape"``, returned
    as it is; raises DataError, naming the first bad byte, when the file
    held bytes there that are not UTF-8."""
    try:
        line.encode("utf-8")
    except UnicodeEncodeError:  # only escaped bytes are lone surrogates
        try:
            line.encode("utf-8", "surrogateescape").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"line is not UTF-8: {exc}") from exc
    return line
