"""Fuzzing of ``cli.main`` with small configs, some fields malformed.

Every drawn config either runs or is rejected with a documented exit code,
and no exception escapes and no traceback is printed.  Some configs read
the population from a CSV file whose weights may be junk; some config
files are not UTF-8, or are a directory.  Sizes stay small (at most 4
sites of at most 3 letters, N <= 8, 20 grid points, 2 replicates,
t_end <= 5), so no example allocates more than a few MB, except that a
config may ask for a grid above the output cap or a population above the
forward simulator's cap, which must be refused before anything is built.
Each example writes only into its own temporary directory.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from moranrec.cli import _ALLOWED_KEYS, COMMANDS, DEFAULT_OUTPUT_CAP, main
from moranrec.forward import DEFAULT_INDIVIDUAL_CAP
from moranrec.measures import type_token

EXIT_CODES = {0, 2, 3, 4, 5}
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
SMALL_INT = st.sampled_from([-1, 0, 2])

# wrong types, nulls, bools, nested lists and non-finite literals
JUNK = st.one_of(
    st.none(), st.booleans(), SMALL_INT, st.just(2.5), NON_FINITE, st.text(max_size=3),
    st.lists(st.one_of(st.none(), st.booleans(), SMALL_INT, NON_FINITE, st.text(max_size=2),
                       st.lists(st.floats(0, 1), max_size=2)), max_size=3),
    st.dictionaries(st.sampled_from(["stop", "num", "x"]), SMALL_INT, max_size=2),
)
# population-file weights: non-finite, overflowing, negative, fractional, not a number
JUNK_WEIGHTS = ["inf", "-inf", "nan", "1e400", "-1", "0.5", "x"]
POPULATION_FILE = "population.csv"
# one in five configs is valid but for one twist: it asks for a grid above
# the output cap or more individuals than the forward simulator holds, or
# reaches ``--config`` as a file that is not UTF-8 or as a directory
TWISTS = ["none"] * 16 + ["grid", "population", "not-utf8", "directory"]


@st.composite
def configs(draw) -> tuple[dict, str, str]:
    """A small config with up to three fields dropped or replaced by junk, or
    a valid one with a twist, the text of the population CSV that it may
    name, and the twist."""
    n = draw(st.integers(1, 4))
    cards = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    N = draw(st.integers(1, 8))
    individuals = draw(st.lists(st.integers(0, math.prod(cards) - 1), min_size=N, max_size=N))
    sites = list(range(1, n + 1))
    cfg = {
        "sites": n,
        "alphabet_sizes": draw(st.just(cards) | st.just(cards[0])),
        "population_size": N,
        "crossover_probs": draw(st.lists(st.floats(0, 1 / n), min_size=n - 1, max_size=n - 1)),
        "rho": draw(st.lists(st.floats(0, 5), min_size=n - 1, max_size=n - 1)),
        "variant": draw(st.sampled_from(["finite", "finite", "deterministic", "diffusion"])),
        "initial_counts": [individuals.count(x) for x in range(math.prod(cards))],
        "initial_population_file": draw(st.sampled_from(
            ["missing.csv", ".", "config.json", POPULATION_FILE])),
        "initial_partition": draw(st.sampled_from([
            ",".join(map(str, sites)), "|".join(map(str, sites)), "1|2", "", "1,,2"])),
        "lde_sites": draw(st.lists(st.sampled_from(sites), min_size=1, max_size=n, unique=True)),
        "t_end": draw(st.floats(0, 5)),
        "grid": draw(st.lists(st.floats(0, 5), min_size=1, max_size=4).map(sorted)
                     | st.fixed_dictionaries({"stop": st.floats(0, 5)},
                                             optional={"num": st.integers(1, 20)})),
        "replicates": draw(st.integers(0, 2)),
        "seed": draw(st.integers(0, 3)),
        "out": "out",
    }
    twist = draw(st.sampled_from(TWISTS))
    if twist != "none":
        cfg["alphabet_sizes"] = cards
        cfg["initial_partition"] = ",".join(map(str, sites))
    if twist == "grid":
        cfg["grid"] = {"stop": 1.0, "num": draw(st.integers(DEFAULT_OUTPUT_CAP + 1, 10**13))}
    elif twist == "population":
        extra = draw(st.integers(DEFAULT_INDIVIDUAL_CAP + 1, 10**12)) - N
        cfg["population_size"] += extra
        cfg["initial_counts"][0] += extra
    weights = [str(c) for c in cfg["initial_counts"]]
    junk_rows = [] if twist != "none" else draw(
        st.lists(st.integers(0, len(weights) - 1), max_size=2))
    for i in junk_rows:
        weights[i] = draw(st.sampled_from(JUNK_WEIGHTS))
    population = "type,weight\n" + "".join(
        f"{type_token(cards, x)},{w}\n" for x, w in enumerate(weights))
    junk_keys = [] if twist != "none" else draw(
        st.lists(st.sampled_from(sorted(_ALLOWED_KEYS)), max_size=3, unique=True))
    for key in junk_keys:
        if key == "out":
            # a string would write outside the example directory, and so
            # would the default "." of a dropped 'out'
            cfg[key] = draw(JUNK.filter(lambda v: not isinstance(v, str)))
        elif draw(st.booleans()):
            cfg[key] = draw(JUNK)
        else:
            del cfg[key]
    if cfg.get("initial_population_file") == POPULATION_FILE:
        cfg.pop("initial_counts", None)  # the counts would take precedence over the file
    return cfg, population, twist


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(command=st.sampled_from(sorted(COMMANDS)), case=configs())
def test_main_exits_with_a_documented_code(command, case):
    cfg, population, twist = case
    with tempfile.TemporaryDirectory() as tmp:
        if cfg["out"] == "out":
            cfg["out"] = str(Path(tmp) / "out")
        (Path(tmp) / POPULATION_FILE).write_text(population)
        path = Path(tmp) / "config.json"
        if twist == "directory":
            path.mkdir()
        else:
            path.write_bytes(json.dumps(cfg).encode("utf-16" if twist == "not-utf8" else "utf-8"))
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = main([command, "--config", str(path)])
        assert code in EXIT_CODES
        assert "Traceback" not in err.getvalue()
