import numpy as np
import pytest

from seec import _kernels, quadrature, scalars
from seec.errors import UnsupportedOrderError

import reference


class TestHermiteRoots:
    def test_small_orders(self):
        assert quadrature.hermite_roots(1).roots.tolist() == [0.0]
        np.testing.assert_allclose(
            quadrature.hermite_roots(2).roots, [-0.7071067811865476, 0.7071067811865476], atol=1e-14
        )
        np.testing.assert_allclose(
            quadrature.hermite_roots(3).roots, [-1.224744871391589, 0.0, 1.224744871391589], atol=1e-14
        )

    def test_zero_order_is_empty(self):
        assert len(quadrature.hermite_roots(0).roots) == 0

    def test_order_above_cap_rejected(self):
        with pytest.raises(UnsupportedOrderError):
            quadrature.hermite_roots(scalars.N_MAX + 1)

    @pytest.mark.parametrize("n", range(1, scalars.N_MAX + 1))
    def test_rootset_invariants(self, n):
        # the guarantees of every frozen root set, which no process
        # re-checks: n roots, strictly increasing, exactly antisymmetric,
        # each a root to its Newton residual (nan fails each)
        roots = quadrature.hermite_roots(n).roots
        assert len(roots) == n
        assert np.all(np.diff(roots) > 0)
        assert np.array_equal(roots, -roots[::-1])
        for x in roots:
            h_n = _kernels.hermite_values(n, [x])[0]
            h_prime = 2.0 * n * _kernels.hermite_values(n - 1, [x])[0]
            assert abs(h_n) <= 1e-10 * max(1.0, abs(h_prime))

    def test_cached_object_reused(self):
        assert quadrature.hermite_roots(7) is quadrature.hermite_roots(7)

    def test_every_node_matches_the_stdlib_reference(self):
        # every node of H_n, n <= N_MAX, is the 70-digit root of the stdlib
        # reference correctly rounded, the same double on every machine
        for n in range(1, scalars.N_MAX + 1):
            exact = [float(x) for x in reference.hermite_roots(n)]
            assert quadrature.hermite_roots(n).roots.tolist() == exact, n

    def test_records_hold_read_only_arrays(self):
        # H_{n-1} at the roots is cached with them, for the weights
        roots = quadrature.hermite_roots(5)
        rule = quadrature.gauss_hermite_rule(5)
        for array in (roots.roots, quadrature._root_set(5)[1], rule.nodes, rule.weights):
            assert not array.flags.writeable
        # the records are bare tuples: no field is rebound, no attribute added
        for record, field in ((roots, "roots"), (rule, "weights")):
            for name in (field, "extra"):
                with pytest.raises(AttributeError):
                    setattr(record, name, np.zeros(5))
