import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moranrec import partitions
from moranrec import (
    EMPTY,
    EmptyBlockError,
    OverlapError,
    Partition,
    SizeCapError,
    coarsest,
    enumerate_partitions,
    finest,
    format_partition,
    parse_partition,
)
from oracles import (
    coarsenings,
    coarsenings_with_mobius,
    join,
    meet,
    mobius,
    ordered_partitions_le2,
    refinements,
    refines,
    restrict,
)
from util import brute_partitions, is_ordered, mobius_recursive


def P(text: str) -> Partition:
    return parse_partition(text)


class TestCanonicalize:
    def test_sorts_blocks_by_minimum(self):
        p = Partition(((4, 2), (1,), (5, 3)))
        assert p.blocks == ((1,), (2, 4), (3, 5))
        assert p.ground == (1, 2, 3, 4, 5)

    def test_single_block_is_coarsest(self):
        assert Partition(((3, 1, 2),)) == coarsest([1, 2, 3])

    def test_overlap_rejected(self):
        with pytest.raises(OverlapError):
            Partition(((1,), (1, 2)))

    def test_empty_block_rejected(self):
        with pytest.raises(EmptyBlockError):
            Partition(((), (1,)))


class TestRefines:
    def test_finest_refines_everything(self):
        zero = finest([1, 2, 3])
        for b in enumerate_partitions([1, 2, 3]):
            assert refines(zero, b)

    def test_everything_refines_coarsest(self):
        assert refines(P("1,3,4|2,5"), P("1,2,3,4,5"))

    def test_straddling_block_fails(self):
        # block {2,3} is split between {1,3,4} and {2,5}
        assert not refines(P("1,4|2,3|5"), P("1,3,4|2,5"))

    def test_ground_mismatch(self):
        with pytest.raises(ValueError):
            refines(P("1|2"), P("1|2|3"))

    def test_partial_order_laws(self):
        for n in (2, 3, 4):
            parts = enumerate_partitions(range(1, n + 1))
            rel = np.array([[refines(a, b) for b in parts] for a in parts])
            assert rel.diagonal().all()  # reflexive
            both = rel & rel.T
            assert (both == np.eye(len(parts), dtype=bool)).all()  # antisymmetric
            # transitive: rel[a,b] and rel[b,c] imply rel[a,c]
            implied = (rel.astype(int) @ rel.astype(int)) > 0
            assert (~implied | rel).all()


class TestMeetJoin:
    A = P("1,3,4|2,5")
    B = P("1,4|2,3|5")

    def test_meet_example(self):
        assert meet(self.A, self.B) == P("1,4|2|3|5")

    def test_join_example(self):
        assert join(self.A, self.B) == P("1,2,3,4,5")

    def test_lattice_identities(self):
        one = coarsest([1, 2, 3, 4, 5])
        zero = finest([1, 2, 3, 4, 5])
        assert meet(self.A, one) == self.A
        assert join(self.A, zero) == self.A

    def test_bounds_and_absorption(self):
        parts = enumerate_partitions([1, 2, 3, 4])
        for a in parts:
            for b in parts:
                lo, hi = meet(a, b), join(a, b)
                assert refines(lo, a) and refines(lo, b)
                assert refines(a, hi) and refines(b, hi)
                assert join(a, meet(a, b)) == a
                assert meet(a, join(a, b)) == a


class TestRestrict:
    def test_example(self):
        assert restrict(P("1,3,4|2,5"), [1, 2, 4]) == P("1,4|2")

    def test_full_restriction_is_identity(self):
        a = P("1,3,4|2,5")
        assert restrict(a, a.ground) == a

    def test_coarsest_restricts_to_coarsest(self):
        assert restrict(coarsest(range(1, 6)), [2, 4]) == P("2,4")

    def test_not_subset(self):
        with pytest.raises(ValueError):
            restrict(P("1|2"), [1, 3])


class TestMobius:
    def test_identity_pairs(self):
        for a in enumerate_partitions([1, 2, 3, 4]):
            assert mobius(a, a) == 1

    def test_finest_to_coarsest_three_sites(self):
        assert mobius(finest([1, 2, 3]), coarsest([1, 2, 3])) == 2

    def test_two_singletons(self):
        assert mobius(P("1|2"), P("1,2")) == -1

    def test_empty_convention(self):
        assert mobius(EMPTY, EMPTY) == 1

    def test_incomparable_raises(self):
        with pytest.raises(ValueError):
            mobius(P("1,2|3"), P("1,3|2"))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_closed_form_matches_recursion(self, n):
        parts = enumerate_partitions(range(1, n + 1))
        cache: dict = {}
        for a in parts:
            for b in parts:
                if refines(a, b):
                    assert mobius(a, b) == mobius_recursive(a, b, cache)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_sum_identity(self, n):
        # sum of mu(a, b) over a <= b <= c is 1 iff a == c, else 0
        parts = enumerate_partitions(range(1, n + 1))
        rel = np.array([[refines(x, y) for y in parts] for x in parts])
        mu = np.array([[mobius(x, y) if rel[i, j] else 0
                        for j, y in enumerate(parts)]
                       for i, x in enumerate(parts)])
        for i in range(len(parts)):
            for k in range(len(parts)):
                if not rel[i, k]:
                    continue
                between = rel[i] & rel[:, k]
                total = int(mu[i, between].sum())
                assert total == (1 if i == k else 0)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_inversion_round_trips(self, n):
        parts = enumerate_partitions(range(1, n + 1))
        rng = np.random.default_rng(n)
        f = {p: int(v) for p, v in zip(parts, rng.integers(-50, 50, len(parts)))}
        # from above: g(a) = sum_{b >= a} f(b), then f recovered with mu(a, b)
        g = {a: sum(f[b] for b in parts if refines(a, b)) for a in parts}
        for a in parts:
            rec = sum(mobius(a, b) * g[b] for b in parts if refines(a, b))
            assert rec == f[a]
        # from below: same with refinements
        h = {a: sum(f[b] for b in parts if refines(b, a)) for a in parts}
        for a in parts:
            rec = sum(mobius(b, a) * h[b] for b in parts if refines(b, a))
            assert rec == f[a]


class TestEnumeration:
    def test_bell_numbers(self):
        assert len(enumerate_partitions([1, 2, 3])) == 5
        assert len(enumerate_partitions([1, 2, 3, 4])) == 15
        assert len(enumerate_partitions(range(1, 6))) == 52

    def test_first_coarsest_last_finest(self):
        parts = enumerate_partitions([1, 2, 3, 4])
        assert parts[0] == coarsest([1, 2, 3, 4])
        assert parts[-1] == finest([1, 2, 3, 4])

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_independent_enumerator(self, n):
        elems = tuple(range(1, n + 1))
        got = enumerate_partitions(elems)
        assert len(got) == len(set(got))
        assert set(got) == brute_partitions(elems)

    def test_size_cap(self, monkeypatch):
        with pytest.raises(SizeCapError):
            enumerate_partitions(range(1, 10))
        monkeypatch.setattr(partitions, "DEFAULT_SITE_CAP", 9)
        assert len(enumerate_partitions(range(1, 10))) == 21147

    def test_coarsenings_of_coarsest(self):
        one = coarsest([1, 2, 3])
        assert coarsenings(one) == [one]

    def test_coarsenings_refinements_agree_with_refines(self):
        parts = enumerate_partitions([1, 2, 3, 4])
        for a in parts:
            assert set(coarsenings(a)) == {b for b in parts if refines(a, b)}
            assert set(refinements(a)) == {b for b in parts if refines(b, a)}

    def test_coarsenings_mobius_values(self):
        a = P("1|2,3|4")
        for b, mu in coarsenings_with_mobius(a):
            assert mu == mobius(a, b)


class TestOrderedPartitions:
    def test_three_consecutive_sites(self):
        got = ordered_partitions_le2([1, 2, 3])
        assert got == [P("1,2,3"), P("1|2,3"), P("1,2|3")]

    def test_gapped_site_set(self):
        got = ordered_partitions_le2([1, 4, 5])
        assert P("1|4,5") in got and P("1,4|5") in got
        assert len(got) == 3

    def test_singleton(self):
        assert ordered_partitions_le2([7]) == [Partition(((7,),))]

    def test_is_ordered(self):
        w = (1, 2, 5, 7, 9)
        assert is_ordered(P("1,2,5|7,9"), within=w)
        assert not is_ordered(P("1,2,7|5,9"), within=w)


class TestTextFormat:
    def test_round_trip_exhaustive(self):
        for n in range(1, 6):
            for p in enumerate_partitions(range(1, n + 1)):
                assert parse_partition(format_partition(p)) == p

    def test_example(self):
        assert format_partition(P("1,3,4|2,5")) == "1,3,4|2,5"

    def test_malformed(self):
        with pytest.raises(ValueError):
            parse_partition("1,,2")


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 5), data=st.data())
def test_meet_join_commute_and_bound(n, data):
    parts = enumerate_partitions(range(1, n + 1))
    a = data.draw(st.sampled_from(parts))
    b = data.draw(st.sampled_from(parts))
    assert meet(a, b) == meet(b, a)
    assert join(a, b) == join(b, a)
    # meet is the greatest lower bound, join the least upper bound
    for c in parts:
        if refines(c, a) and refines(c, b):
            assert refines(c, meet(a, b))
        if refines(a, c) and refines(b, c):
            assert refines(join(a, b), c)
