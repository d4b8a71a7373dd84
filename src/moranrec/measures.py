"""Finite measures on a product type space, stored as dense vectors.

Types live on sites ``1..n``; site ``i`` carries an alphabet of size
``cards[i-1]`` whose letters are the integers ``0..cards[i-1]-1``.  A
measure on a subset of sites keeps a dense weight vector indexed in mixed
radix with the lowest-numbered site as the most significant digit, which
is exactly numpy's C order after ``reshape(cards)``.

Population states are counting measures of fixed total size; their weights
stay exact integers by construction.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from functools import cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    NegativeWeightError,
    NotSubsetError,
    SizeCapError,
)
from .partitions import site_set

# Dense storage: refuse spaces with more states than this.
DEFAULT_STATE_CAP = 1 << 20


@dataclass(frozen=True)
class SiteSpace:
    """Alphabet sizes per site; site ``i`` has ``cards[i-1]`` letters."""

    cards: tuple[int, ...]

    def __post_init__(self) -> None:
        cards = tuple(int(c) for c in self.cards)
        object.__setattr__(self, "cards", cards)
        if len(cards) < 1:
            raise ValueError("a site space needs at least one site")
        if any(c < 1 for c in cards):
            raise ValueError("alphabet sizes must be at least 1")
        if self.total_states > DEFAULT_STATE_CAP:
            raise SizeCapError(
                f"{self.total_states} states exceeds the dense-storage cap of "
                f"{DEFAULT_STATE_CAP}; reduce sites or alphabet"
            )

    @property
    def n(self) -> int:
        return len(self.cards)

    @property
    def sites(self) -> tuple[int, ...]:
        return tuple(range(1, self.n + 1))

    @property
    def total_states(self) -> int:
        out = 1
        for c in self.cards:
            out *= c
        return out

    def cards_for(self, sites: Iterable[int]) -> tuple[int, ...]:
        u = site_set(sites)
        if not set(u) <= set(self.sites):
            raise NotSubsetError(f"sites {u} outside 1..{self.n}")
        return tuple(self.cards[s - 1] for s in u)


def encode_type(cards: Sequence[int], letters: Sequence[int]) -> int:
    """Mixed-radix index of a type tuple (first site most significant)."""
    idx = 0
    for c, x in zip(cards, letters):
        if not 0 <= x < c:
            raise ValueError(f"letter {x} out of range for alphabet size {c}")
        idx = idx * c + x
    return idx


def decode_type(cards: Sequence[int], idx: int) -> tuple[int, ...]:
    """Inverse of :func:`encode_type`."""
    out = [0] * len(cards)
    for i in range(len(cards) - 1, -1, -1):
        out[i] = idx % cards[i]
        idx //= cards[i]
    if idx:
        raise ValueError("index out of range")
    return tuple(out)


@dataclass(frozen=True, eq=False)
class Measure:
    """Dense measure on the types over ``sites``; weights may be negative
    (correlation / LDE outputs)."""

    sites: tuple[int, ...]
    cards: tuple[int, ...]
    weights: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "sites", site_set(self.sites))
        object.__setattr__(self, "cards", tuple(int(c) for c in self.cards))
        if len(self.sites) != len(self.cards):
            raise ValueError("sites and cards must align")
        w = np.array(self.weights, dtype=float)
        expected = int(np.prod(self.cards)) if self.cards else 1
        if w.shape != (expected,):
            raise ValueError(f"weights must have length {expected}, got {w.shape}")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @property
    def norm(self) -> float:
        return float(self.weights.sum())

    @property
    def n_states(self) -> int:
        return self.weights.size

    def as_grid(self) -> np.ndarray:
        return self.weights.reshape(self.cards) if self.cards else self.weights

    def with_weights(self, weights: np.ndarray) -> "Measure":
        return Measure(self.sites, self.cards, weights)


def measure_from_counts(space: SiteSpace, counts: Sequence[float],
                        sites: Iterable[int] | None = None) -> Measure:
    """Measure over ``sites`` (default: all of ``space``) with given weights."""
    u = site_set(sites) if sites is not None else space.sites
    return Measure(u, space.cards_for(u), np.asarray(counts, dtype=float))


def zero_site_measure(total: float) -> Measure:
    """The unique measure on the empty site set, carrying only a total mass."""
    return Measure((), (), np.array([float(total)]))


def marginalize(m: Measure, sites: Iterable[int]) -> Measure:
    """Push ``m`` forward onto a subset of its sites by summing the rest.

    Marginalizing to the empty set returns the 0-site measure holding the
    norm of ``m``.
    """
    v = site_set(sites)
    if not set(v) <= set(m.sites):
        raise NotSubsetError(f"{v} is not a subset of {m.sites}")
    if v == m.sites:
        return m
    if not v:
        return zero_site_measure(m.weights.sum())
    keep = [i for i, s in enumerate(m.sites) if s in v]
    drop = tuple(i for i, s in enumerate(m.sites) if s not in v)
    grid = m.as_grid().sum(axis=drop)
    return Measure(v, tuple(m.cards[i] for i in keep), grid.ravel())


@dataclass(frozen=True)
class PopulationState:
    """Counting measure on the full site space with exact total size ``N``."""

    measure: Measure
    N: int

    def __post_init__(self) -> None:
        w = self.measure.weights
        if np.any(w < 0):
            raise NegativeWeightError("population counts must be nonnegative")
        if np.any(w != np.floor(w)):
            raise ValueError("population counts must be integers")
        if int(w.sum()) != self.N:
            raise ValueError(f"population counts sum to {w.sum()}, expected {self.N}")

    @classmethod
    def from_counts(cls, space: SiteSpace, counts: Sequence[int]) -> "PopulationState":
        m = measure_from_counts(space, counts)
        return cls(m, int(round(m.norm)))

    @property
    def counts(self) -> np.ndarray:
        return self.measure.weights


def type_token(cards: Sequence[int], idx: int) -> str:
    """Digit-string rendering of a type, e.g. ``(1,0,1) -> "101"``."""
    if any(c > 10 for c in cards):
        raise ValueError("digit tokens require alphabet sizes of at most 10")
    return "".join(str(d) for d in decode_type(cards, idx))


def parse_type_token(cards: Sequence[int], token: str) -> int:
    letters = [int(ch) for ch in token.strip()]
    if len(letters) != len(cards):
        raise ValueError(f"token {token!r} has wrong length for {len(cards)} sites")
    return encode_type(cards, letters)


def measure_to_csv(m: Measure) -> str:
    """Serialize as ``type,weight`` rows in mixed-radix order (17 significant digits)."""
    buf = io.StringIO()
    buf.write("type,weight\n")
    for idx in range(m.n_states):
        buf.write(f"{type_token(m.cards, idx)},{m.weights[idx]:.17g}\n")
    return buf.getvalue()


# Values per call of format_g17 in the table writers.  Its temporaries then stay in
# a core's cache: 130-180 ns a value, against 320-330 ns in calls of 2**16.
FORMAT_CHUNK = 2**13

_SPLITTER = 2.0**27 + 1  # Dekker's: splits a double into two halves of 26 bits


def _halves(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    t = _SPLITTER * v
    high = t - (t - v)
    return high, v - high


@cache
def _g17_tables() -> tuple[np.ndarray, ...]:
    """Digit quads, first digits, leads and the powers 10**17..10**20 with their halves."""
    d = np.arange(10**4)[:, None] // 10 ** np.arange(3, -1, -1) % 10
    full = (48 + d).astype(np.uint8)
    # the quad with its trailing zeros as NUL bytes, which end an S string
    trimmed = np.where(np.cumsum(d[:, ::-1], axis=1)[:, ::-1] > 0, full, 0).astype(np.uint8)
    quads = np.concatenate([full, trimmed]).view(np.uint32).ravel()
    firsts = np.array([0, *b"123456789"], np.uint8)  # 0 only when every digit is 0
    # S7 and the 17 digits make S24, which holds the longest %.17g: -1.2345678901234567e-308
    leads = np.array([b"0.", b"0.0", b"0.00", b"0.000", b"0", b"", b"", b"",
                      b"-0.", b"-0.0", b"-0.00", b"-0.000", b"-0"], "S7")
    powers = 10.0 ** np.arange(17, 21)  # exact: 5**20 < 2**53
    return quads, firsts, leads, powers, *_halves(powers)


def format_g17(x: np.ndarray) -> list[bytes]:
    """``b"%.17g" % v`` for every value ``v`` of the 1-D float64 array ``x``, in order.

    Values with ``1e-4 <= |v| < 1`` and zeros are formatted in numpy: for the
    decimal exponent ``e``, Dekker's error-free product gives ``|v| * 10**k``,
    ``k = 16 - e``, as ``p + err`` exactly, so ``D = p + rint(err)`` is the
    17-digit significand rounded half to even, as ``%.17g`` rounds (``p`` is
    an even integer: its ulp is at least 2 in ``[1e16, 1e17]``).  Every other
    value, and any ``D`` outside ``[1e16, 1e17)`` (where ``log10`` put ``e``
    a decade off, a few ulps below a power of ten), goes through ``%.17g``.
    """
    quads, firsts, leads, powers, powers_hi, powers_lo = _g17_tables()
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1.0)
    a = np.where(fast, a, 0.5)
    k = (-1 - np.clip(np.floor(np.log10(a)), -4, -1)).astype(np.intp)  # k - 17
    a_hi, a_lo = _halves(a)
    b_hi, b_lo = powers_hi[k], powers_lo[k]
    p = a * powers[k]
    err = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    D = p.astype(np.int64) + np.rint(err).astype(np.int64)
    ok = fast & (D >= 10**16) & (D < 10**17)
    high, low4 = np.divmod(np.where(ok, D, 0), 10**8)
    first, high = np.divmod(high.astype(np.uint32), 10**8)
    q1, q2 = np.divmod(high, 10**4)
    q3, q4 = np.divmod(low4.astype(np.uint32), 10**4)
    # 17 digits at byte 3 of five words: first digit, then four quads; a quad
    # comes trimmed when every quad after it is 0
    words = np.empty((x.size, 5), np.uint32)
    words.view(np.uint8)[:, 3] = firsts[first]
    words[:, 4] = quads[q4 + 10**4]
    zeros = q4 == 0
    words[:, 3] = quads[q3 + 10**4 * zeros]
    zeros &= q3 == 0
    words[:, 2] = quads[q2 + 10**4 * zeros]
    zeros &= q2 == 0
    words[:, 1] = quads[q1 + 10**4 * zeros]
    digits = words.view(np.uint8)[:, 3:].view("S17")[:, 0]
    out = np.char.add(leads[np.where(ok, k, 4) + 8 * np.signbit(x)], digits)
    slow = ~ok & (x != 0)
    out[slow] = [b"%.17g" % v for v in x[slow].tolist()]
    return out.tolist()


def csv_table(text: str, header: Sequence[str]) -> tuple[list[str], Iterator[list[str]]]:
    """Header row and data rows of a CSV table written by this package.

    Blank and ``#`` comment lines are skipped.  The header row must start
    with the fields ``header``; a dense matrix continues it with labels.
    """
    lines = (line for line in text.splitlines()
             if line.strip() and not line.lstrip().startswith("#"))
    rows = csv.reader(lines)
    first = next(rows, None)
    if first is None or first[:len(header)] != list(header):
        raise ValueError(f"unexpected header {first!r}, expected {list(header)}")
    return first, rows


def measure_from_csv(text: str, sites: Sequence[int], cards: Sequence[int]) -> Measure:
    """Parse the output of :func:`measure_to_csv`; comment lines start with '#'.

    A weight that is not a finite number, or a second row for one type,
    raises ``ValueError``.
    """
    weights = np.zeros(int(np.prod(cards)) if len(cards) else 1)
    seen: set[int] = set()
    for token, value in csv_table(text, ("type", "weight"))[1]:
        weight = float(value)
        if not math.isfinite(weight):
            raise ValueError(f"weight of type {token!r} is not finite: {value!r}")
        idx = parse_type_token(cards, token)
        if idx in seen:
            raise ValueError(f"type {token!r} has more than one row")
        seen.add(idx)
        weights[idx] = weight
    return Measure(tuple(sites), tuple(cards), weights)
