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
