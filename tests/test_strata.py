import math
import re
from itertools import combinations

import pytest

from wproj.cohom import lens_cohomology
from wproj.errors import InvalidInputError, NotNormalizedError
from wproj.strata import (
    cell_decomposition,
    local_homology_order,
    singular_subspace,
    stratum_chart,
)
from wproj.weights import divisor_count, is_normalized, normalize

from helpers import box


class TestStratumChart:
    def test_mixed_support(self):
        chart = stratum_chart((1, 2, 3, 4), (1, 3))
        assert chart.torus_rank == 1
        assert chart.cyclic_order == 2
        assert chart.cone_weights == (1, 3)
        assert chart.zero_set == (0, 2)

    def test_full_support(self):
        chart = stratum_chart((1, 1, 2), (0, 1, 2))
        assert chart.torus_rank == 2
        assert chart.cyclic_order == 1
        assert chart.cone_weights == ()

    def test_single_support(self):
        chart = stratum_chart((1, 1, 2), (2,))
        assert chart.torus_rank == 0
        assert chart.cyclic_order == 2
        assert chart.cone_weights == (1, 1)

    def test_rejects_bad_support(self):
        with pytest.raises(InvalidInputError):
            stratum_chart((1, 2, 3), ())
        with pytest.raises(InvalidInputError):
            stratum_chart((1, 2, 3), (3,))
        with pytest.raises(InvalidInputError):
            stratum_chart((1, 2, 3), (-1,))

    def test_integer_support_only(self):
        assert stratum_chart((1, 2, 3), (True, 2)).support == (1, 2)
        # 1.7 used to be truncated to index 1
        for bad in (1.7, 1.0, "1"):
            with pytest.raises(InvalidInputError, match=re.escape(repr(bad))):
                stratum_chart((1, 2, 3), (bad,))

    def test_rank_partition_law(self):
        for w in box(3, 8):
            n = len(w) - 1
            indices = range(len(w))
            for size in range(1, len(w) + 1):
                for J in combinations(indices, size):
                    chart = stratum_chart(w, J)
                    assert chart.torus_rank + len(chart.cone_weights) == n
                    assert set(chart.support) | set(chart.zero_set) == set(indices)
                    assert not set(chart.support) & set(chart.zero_set)


class TestLocalHomologyOrder:
    def test_examples(self):
        assert local_homology_order((1, 1, 2), (2,)) == 2
        assert local_homology_order((1, 2, 3, 4), (1, 3)) == 2

    def test_full_support_of_normalized_is_trivial(self):
        for w in box(3, 10):
            nw = normalize(w)
            assert local_homology_order(nw, range(len(nw))) == 1

    def test_is_the_chart_cyclic_order(self):
        for w in filter(is_normalized, box(3, 12)):
            for size in range(1, len(w) + 1):
                for J in combinations(range(len(w)), size):
                    assert local_homology_order(w, J) == stratum_chart(w, J).cyclic_order

    def test_rejects_unnormalized(self):
        with pytest.raises(NotNormalizedError):
            local_homology_order((2, 4, 6), (0, 1))

    @staticmethod
    def lens_order(w, J):
        """Independent route: top middle cohomology of the chart's lens space."""
        q = math.gcd(*(w[i] for i in J))
        cone = tuple(w[i] for i in set(range(len(w))) - set(J))
        m = len(cone) - 1
        return lens_cohomology(q, cone)[2 * m]

    def test_matches_lens_order(self):
        # gcd over the support equals the lens-space cohomology order whenever
        # the zero set has at least two elements
        for w in box(2, 10):
            nw = normalize(w)
            indices = range(len(nw))
            for size in range(1, len(nw) - 1):
                for J in combinations(indices, size):
                    if len(nw) - size >= 2:
                        assert local_homology_order(nw, J) == self.lens_order(nw, J)


class TestSingularSubspace:
    def test_examples(self):
        assert singular_subspace((1, 2, 3, 4), 2) == (2, 4)
        assert singular_subspace((1, 2, 3, 4), 1) == (1, 2, 3, 4)
        assert singular_subspace((1, 2, 3, 4), 5) == ()

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidInputError):
            singular_subspace((1, 2), 0)

    def test_integer_divisor_only(self):
        # 1.5 used to give ()
        with pytest.raises(InvalidInputError, match="1.5"):
            singular_subspace((2, 4), 1.5)

    def test_dimension_law(self):
        for w in box(3, 10):
            for d in range(1, 12):
                sub = singular_subspace(w, d)
                assert len(sub) == divisor_count(w, d)


class TestCellDecomposition:
    def test_chain_example(self):
        dec = cell_decomposition((1, 1, 2, 12))
        assert dec.cells == (0, 1, 2, 3)
        assert [s.subspace for s in dec.filtration] == [(12,), (2, 12), (1, 2, 12), (1, 1, 2, 12)]
        assert [s.rescaled for s in dec.filtration] == [(1,), (1, 6), (1, 2, 12), (1, 1, 2, 12)]

    def test_projective_line(self):
        dec = cell_decomposition((1, 1))
        assert dec.cells == (0, 1)
        assert [s.subspace for s in dec.filtration] == [(1,), (1, 1)]

    def test_rejects_non_chain(self):
        with pytest.raises(InvalidInputError):
            cell_decomposition((1, 2, 3))

    def test_rescales_leading_weight(self):
        dec = cell_decomposition((3, 6, 12))
        assert dec.weights == (1, 2, 4)
        assert [s.subspace for s in dec.filtration] == [(4,), (2, 4), (1, 2, 4)]

    def test_one_cell_per_dimension(self):
        for w in box(3, 10):
            chain = tuple(sorted(math.prod(w[: i + 1]) for i in range(len(w))))
            dec = cell_decomposition(chain)  # any divisor chain will do
            assert dec.cells == tuple(range(len(w)))
            assert len(dec.filtration) == len(w)
