"""Names every layer shares, in the standard library alone.

The errors, the rating scale, the synthetic generator names and the line
reader that checks each line's encoding live here, so that extraction, and
the CLI up to the subcommand it runs, never import numpy.
"""

import json
from collections.abc import Iterator

GENERATORS = ("homoscedastic", "heteroscedastic_groups", "peaked_logprob")


class DataError(Exception):
    """Input data violates a documented contract (bad file, bad record)."""


class InvariantError(Exception):
    """An internal invariant was violated; indicates a bug, not bad input."""


class RatingScale:
    """Discrete Likert scale with integer labels ``1 .. k_max``; immutable,
    equal and hashed by ``k_max``."""

    __slots__ = ("k_max",)

    def __init__(self, k_max: int = 5) -> None:
        if k_max < 2:
            raise ValueError(f"k_max must be >= 2, got {k_max}")
        object.__setattr__(self, "k_max", k_max)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"field {name!r} is read-only")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return self.k_max == other.k_max if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash((self.k_max,))

    def __repr__(self) -> str:
        return f"RatingScale(k_max={self.k_max!r})"

    def __reduce__(self):  # copy and pickle through the constructor
        return RatingScale, (self.k_max,)

    @property
    def labels(self) -> range:
        return range(1, self.k_max + 1)

    @property
    def max_width(self) -> int:
        """Widest possible interval on this scale (k_max - 1)."""
        return self.k_max - 1


_CR = ord("\r")


def decoded_lines(fh) -> Iterator[str | DataError]:
    r"""The lines of a file opened in binary mode, each decoded once as UTF-8.

    Lines end where text mode ends them, at ``\n``, ``\r\n`` or a lone
    ``\r``, and, as in text mode, each comes ending in ``\n``, so line
    numbers and the messages of a parser agree with a text-mode read. A line
    that is not UTF-8 comes as a DataError naming its first bad byte, so the
    caller can report it and go on to the next line.
    """
    for raw in fh:  # binary iteration ends a line at \n only
        # An int operand makes `in` one memchr; a bytes one costs ~8x more.
        lines = (raw,)
        if _CR in raw:  # text mode's newline translation
            raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
            lines = raw.splitlines(keepends=True)
        for line in lines:
            try:
                yield line.decode("utf-8")
            except UnicodeDecodeError as exc:
                yield DataError(f"line is not UTF-8: {exc}")


def utf8_line(line: str | DataError) -> str:
    """A line from :func:`decoded_lines`; raises the DataError of a line
    that was not UTF-8."""
    if isinstance(line, DataError):
        raise line
    return line


def read_json(path):
    """The JSON value in the file at ``path``; DataError if it holds none."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise DataError(f"{path} is not a JSON file: {exc}") from None
