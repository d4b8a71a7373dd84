import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moranrec import (
    Measure,
    NegativeWeightError,
    NotSubsetError,
    OverlapError,
    PopulationState,
    SiteSpace,
    SizeCapError,
    decode_type,
    encode_type,
    marginalize,
    measure_from_counts,
    measure_from_csv,
    measure_to_csv,
)
from moranrec.measures import type_token, parse_type_token, zero_site_measure

from oracles import tensor_site_ordered
from util import binary_space, random_measure


class TestSiteSpace:
    def test_basic(self):
        sp = SiteSpace((2, 3, 2))
        assert sp.n == 3
        assert sp.total_states == 12
        assert sp.sites == (1, 2, 3)
        assert sp.cards_for([1, 3]) == (2, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            SiteSpace(())
        with pytest.raises(ValueError):
            SiteSpace((2, 0))
        with pytest.raises(SizeCapError):
            SiteSpace((2,) * 21)


class TestMixedRadix:
    def test_first_site_most_significant(self):
        cards = (2, 3)
        assert encode_type(cards, (0, 0)) == 0
        assert encode_type(cards, (0, 2)) == 2
        assert encode_type(cards, (1, 0)) == 3

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(2, 4), min_size=1, max_size=5), st.data())
    def test_round_trip(self, cards, data):
        total = int(np.prod(cards))
        idx = data.draw(st.integers(0, total - 1))
        assert encode_type(cards, decode_type(cards, idx)) == idx

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            encode_type((2, 2), (0, 2))
        with pytest.raises(ValueError):
            decode_type((2, 2), 4)


class TestMarginalize:
    def test_identity(self):
        m = random_measure(binary_space(3), seed=1)
        assert marginalize(m, m.sites) is m

    def test_to_empty_is_norm(self):
        m = random_measure(binary_space(2), seed=2)
        s = marginalize(m, [])
        assert s.sites == ()
        assert s.weights.shape == (1,)
        assert np.isclose(s.weights[0], m.norm)

    def test_example_counts(self):
        sp = binary_space(2)
        z = PopulationState.from_counts(sp, [2, 0, 0, 1])
        assert np.array_equal(marginalize(z.measure, [1]).weights, [2, 1])
        assert np.array_equal(marginalize(z.measure, [2]).weights, [2, 1])

    def test_composition(self):
        m = random_measure(SiteSpace((2, 3, 2, 2)), seed=3)
        via = marginalize(marginalize(m, [1, 2, 4]), [2, 4])
        direct = marginalize(m, [2, 4])
        assert via.sites == direct.sites
        assert np.allclose(via.weights, direct.weights)

    def test_not_subset(self):
        m = random_measure(binary_space(2), seed=4)
        with pytest.raises(NotSubsetError):
            marginalize(m, [3])


class TestTensor:
    def test_single_factor(self):
        m = random_measure(binary_space(2), seed=5)
        out = tensor_site_ordered([m])
        assert np.array_equal(out.weights, m.weights)

    def test_example(self):
        m1 = Measure((1,), (2,), np.array([2.0, 1.0]))
        m2 = Measure((2,), (2,), np.array([2.0, 1.0]))
        out = tensor_site_ordered([m1, m2])
        assert np.array_equal(out.weights, [4, 2, 2, 1])

    def test_factor_order_irrelevant(self):
        sp = SiteSpace((2, 3, 2))
        a = random_measure(sp, seed=6, sites=[2])
        b = random_measure(sp, seed=7, sites=[1, 3])
        ab = tensor_site_ordered([a, b])
        ba = tensor_site_ordered([b, a])
        assert ab.sites == ba.sites == (1, 2, 3)
        assert np.allclose(ab.weights, ba.weights)

    def test_norm_is_product(self):
        sp = SiteSpace((2, 3, 2))
        a = random_measure(sp, seed=8, sites=[1])
        b = random_measure(sp, seed=9, sites=[2, 3])
        out = tensor_site_ordered([a, b])
        assert np.isclose(out.norm, a.norm * b.norm)

    def test_zero_site_factor_scales(self):
        m = random_measure(binary_space(2), seed=10)
        out = tensor_site_ordered([zero_site_measure(3.0), m])
        assert np.allclose(out.weights, 3.0 * m.weights)

    def test_overlap_rejected(self):
        m = random_measure(binary_space(2), seed=11)
        with pytest.raises(OverlapError):
            tensor_site_ordered([m, m])

    def test_marginalize_back_to_factor(self):
        # projecting a product back onto one factor scales it by the other norms
        sp = SiteSpace((2, 3, 2))
        a = random_measure(sp, seed=13, sites=[1])
        b = random_measure(sp, seed=14, sites=[2])
        c = random_measure(sp, seed=15, sites=[3])
        prod = tensor_site_ordered([a, b, c])
        back = marginalize(prod, [2])
        assert np.allclose(back.weights, b.weights * a.norm * c.norm)

    def test_interleaving_values(self):
        # sites {1,3} x {2}: result index order must follow global site order
        sp = SiteSpace((2, 2, 2))
        a = Measure((1, 3), (2, 2), np.array([1.0, 2.0, 3.0, 4.0]))
        b = Measure((2,), (2,), np.array([10.0, 20.0]))
        out = tensor_site_ordered([a, b])
        # weight at (x1,x2,x3) = a(x1,x3) * b(x2)
        for idx in range(8):
            x1, x2, x3 = decode_type((2, 2, 2), idx)
            assert out.weights[idx] == a.weights[encode_type((2, 2), (x1, x3))] * b.weights[x2]


class TestPopulationState:
    def test_validation(self):
        sp = binary_space(2)
        with pytest.raises(ValueError):
            PopulationState(measure_from_counts(sp, [1, 0, 0, 0.5]), 2)
        with pytest.raises(NegativeWeightError):
            PopulationState(measure_from_counts(sp, [2, -1, 0, 1]), 2)
        with pytest.raises(ValueError):
            PopulationState(measure_from_counts(sp, [1, 1, 0, 1]), 2)


class TestCsv:
    def test_round_trip_exact(self):
        m = random_measure(SiteSpace((2, 3)), seed=12)
        text = measure_to_csv(m)
        back = measure_from_csv(text, m.sites, m.cards)
        assert np.array_equal(back.weights, m.weights)

    def test_tokens(self):
        assert type_token((2, 3), 5) == "12"
        assert parse_type_token((2, 3), "12") == 5

    def test_header_and_order(self):
        m = measure_from_counts(binary_space(2), [1, 2, 3, 4])
        lines = measure_to_csv(m).splitlines()
        assert lines[0] == "type,weight"
        assert lines[1].startswith("00,")
        assert lines[4].startswith("11,")

    def test_comment_lines_skipped(self):
        m = measure_from_counts(binary_space(1), [1, 2])
        text = "# stamped\n" + measure_to_csv(m)
        back = measure_from_csv(text, m.sites, m.cards)
        assert np.array_equal(back.weights, m.weights)
