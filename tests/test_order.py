"""Total vertex order with tie-breaking offsets."""

import numpy as np
import pytest

from sftopo import OrderField
from sftopo.order import _pointer_jump


class TestOrderField:
    def test_default_offsets_break_ties_by_index(self):
        f = OrderField(np.array([1.0, 0.0, 1.0, 0.0]))
        assert list(f.order) == [1, 3, 0, 2]

    def test_explicit_offsets(self):
        f = OrderField(np.array([1.0, 1.0, 1.0]),
                       np.array([5, 1, 3], dtype=np.int64))
        assert list(f.order) == [1, 2, 0]

    def test_ranks_invert_order(self):
        rng = np.random.default_rng(0)
        f = OrderField(rng.random(40))
        assert list(f.ranks[f.order]) == list(range(40))

    def test_less_is_total(self):
        f = OrderField(np.array([2.0, 2.0, 1.0]))
        assert f.less(2, 0) and f.less(0, 1) and not f.less(1, 0)

    def test_extreme_vertices(self):
        f = OrderField(np.array([3.0, 1.0, 2.0]))
        assert f.max_vertex([0, 1, 2]) == 0
        assert f.min_vertex([0, 1, 2]) == 1
        assert f.simplex_value([1, 2]) == 2.0

    def test_simplex_key_face_precedes_coface(self):
        rng = np.random.default_rng(1)
        f = OrderField(rng.random(10))
        verts = [2, 5, 7]
        for face in ([2, 5], [5, 7], [2, 7]):
            assert f.simplex_key(face) < f.simplex_key(verts)

    def test_non_injective_offsets_rejected(self):
        with pytest.raises(ValueError):
            OrderField(np.zeros(3), np.array([0, 0, 1]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            OrderField(np.zeros(3), np.array([0, 1]))


class TestPointerJump:
    def test_cycles_raise(self):
        """Cycles of every length raise, those whose length is a power
        of two (which doubling maps onto themselves) included, with or
        without a chain leading into them."""
        for n in (2, 3, 4, 6, 8):
            with pytest.raises(ValueError):
                _pointer_jump(np.roll(np.arange(n), -1))
        with pytest.raises(ValueError):
            _pointer_jump(np.array([1, 2, 3, 4, 1, 5]))
