"""Jet-algebra unit tests: frozen examples, ring axioms, calculus rules,
shared index instances and pickling."""

import copy
import pickle

import numpy as np
import pytest

from fastslow.errors import ConstantTermError, StructuralError
from fastslow.jets import (Jet, JetVector, _GradedTable, jet_compose, jet_matrix_inverse,
                           jet_mul, jet_partial, jet_reciprocal, jet_shift,
                           jetvector_compose, max_coeff_diff, monomials_of_degree,
                           count_monomials, MultiIndex)
from conftest import derivation_triples_oracle, monomials_oracle


def J(m, r, terms):
    return Jet.from_terms(m, r, terms)


def random_jet(rng, m, r, constant_free=False, fill=0.5):
    terms = {}
    for d in range(0 if not constant_free else 1, r + 1):
        for alpha in monomials_of_degree(m, d):
            if rng.random() < fill:
                terms[alpha.exponents] = float(rng.uniform(-1.0, 1.0))
    return Jet.from_terms(m, r, terms)


class TestMultiIndex:
    def test_degree_and_ordering(self):
        a = MultiIndex((2, 0))
        b = MultiIndex((1, 1))
        c = MultiIndex((0, 1))
        assert a.degree == 2 and c.degree == 1
        assert c < b < a  # graded first, then lexicographic
        assert sorted([a, b, c])[0] is c

    def test_negative_exponent_rejected(self):
        with pytest.raises(StructuralError):
            MultiIndex((1, -1))

    def test_negative_exponent_rejected_on_every_call(self):
        for _ in range(3):
            for exps in ((1, -1), [1, -1], (-2,), iter((0, 0, -1))):
                with pytest.raises(StructuralError):
                    MultiIndex(exps)

    def test_one_instance_per_exponent_tuple(self):
        e = (2, 0, 1)
        a = MultiIndex(e)
        assert MultiIndex(e) is a
        assert MultiIndex(list(e)) is a
        assert MultiIndex(iter(e)) is a
        assert MultiIndex(np.array(e)) is a
        assert MultiIndex((1, 0, 1)) + MultiIndex((1, 0, 0)) is a
        assert MultiIndex((0, 0, 1)).replace(0, 2) is a
        assert a.exponents == e and type(a.exponents[0]) is int and a.degree == 3
        assert MultiIndex((2, 0)) is not MultiIndex((0, 2))

    def test_monomial_enumeration(self):
        ms = monomials_of_degree(3, 2)
        assert len(ms) == count_monomials(3, 2) == 6
        assert len(set(ms)) == 6
        assert all(m.degree == 2 for m in ms)

    def test_non_integral_exponent_rejected(self):
        for exps in ((1.5, 0), [0.5], (2, 1e-9), (float("nan"), 0), (float("inf"),)):
            with pytest.raises(StructuralError, match="non-integral"):
                MultiIndex(exps)
        with pytest.raises(StructuralError, match="non-integral"):
            Jet(2, 3, {(1.7, 0): 2.0})
        # integral floats name the shared instance
        assert MultiIndex((1.0, 0)) is MultiIndex((1, 0))
        assert Jet(2, 3, {(1.0, 0.0): 2.0}).coefficient((1, 0)) == 2.0

    def test_enumeration_needs_a_variable(self):
        for num_vars in (0, -1):
            with pytest.raises(StructuralError, match="num_vars must be >= 1"):
                monomials_of_degree(num_vars, 2)

    def test_enumeration_equals_the_recursive_oracle(self):
        for m in range(1, 7):
            for d in range(8):
                got, want = monomials_of_degree(m, d), monomials_oracle(m, d)
                assert got == want and all(a is b for a, b in zip(got, want)), (m, d)


class TestMul:
    def test_telescoping(self):
        one = Jet.constant(1, 2, 1.0)
        x = Jet.variable(1, 2, 0)
        prod = jet_mul(one + x, one - x)
        assert prod == J(1, 2, {(0,): 1.0, (2,): -1.0})

    def test_zero_annihilates(self):
        rng = np.random.default_rng(1)
        a = random_jet(rng, 2, 3)
        assert jet_mul(a, Jet.zero(2, 3)).is_zero()

    def test_two_var_symmetry(self):
        x = Jet.variable(2, 2, 0)
        y = Jet.variable(2, 2, 1)
        assert jet_mul(x + y, x - y) == J(2, 2, {(2, 0): 1.0, (0, 2): -1.0})

    def test_truncation_discards_high_degrees(self):
        x = Jet.variable(1, 2, 0)
        assert jet_mul(x ** 2, x).is_zero()

    def test_shape_mismatch(self):
        with pytest.raises(StructuralError):
            jet_mul(Jet.variable(1, 2, 0), Jet.variable(2, 2, 0))

    def test_ring_axioms_fuzz(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            m = int(rng.integers(1, 5))
            a, b, c = (random_jet(rng, m, 4) for _ in range(3))
            assert max_coeff_diff(jet_mul(jet_mul(a, b), c),
                                  jet_mul(a, jet_mul(b, c))) <= 1e-12
            assert max_coeff_diff(jet_mul(a, b), jet_mul(b, a)) <= 1e-12
            assert max_coeff_diff(jet_mul(a, b + c),
                                  jet_mul(a, b) + jet_mul(a, c)) <= 1e-12


class TestCompose:
    def test_binomial(self):
        u2 = Jet.variable(1, 2, 0) ** 2
        inner = JetVector([Jet.variable(2, 2, 0) + Jet.variable(2, 2, 1)])
        assert jet_compose(u2, inner) == J(2, 2, {(2, 0): 1.0, (1, 1): 2.0,
                                                  (0, 2): 1.0})

    def test_identity_law(self):
        u = Jet.variable(1, 3, 0)
        v = Jet.variable(1, 3, 0)
        assert jet_compose(u, JetVector([v])) == v

    def test_frozen_expansion(self):
        # (1 + u + u^2) at u = x + x^2, truncated at degree 3:
        # 1 + (x + x^2) + (x^2 + 2x^3) = 1 + x + 2x^2 + 2x^3
        outer = J(1, 3, {(0,): 1.0, (1,): 1.0, (2,): 1.0})
        inner = JetVector([J(1, 3, {(1,): 1.0, (2,): 1.0})])
        assert jet_compose(outer, inner) == J(1, 3, {(0,): 1.0, (1,): 1.0,
                                                     (2,): 2.0, (3,): 2.0})

    def test_constant_term_rejected(self):
        outer = Jet.variable(1, 2, 0)
        inner = JetVector([Jet.constant(1, 2, 0.5)])
        with pytest.raises(ConstantTermError):
            jet_compose(outer, inner)

    def test_arity_mismatch(self):
        outer = Jet.variable(2, 2, 0)
        with pytest.raises(StructuralError):
            jet_compose(outer, JetVector([Jet.variable(1, 2, 0)]))

    def test_associativity_fuzz(self):
        rng = np.random.default_rng(11)
        for _ in range(15):
            f = random_jet(rng, 2, 4)
            g = JetVector([random_jet(rng, 2, 4, constant_free=True)
                           for _ in range(2)])
            h = JetVector([random_jet(rng, 2, 4, constant_free=True)
                           for _ in range(2)])
            left = jet_compose(jet_compose(f, g), h)
            right = jet_compose(f, jetvector_compose(g, h))
            assert max_coeff_diff(left, right) <= 1e-12


class TestPartial:
    def test_power_rule(self):
        a = J(2, 3, {(2, 1): 1.0})
        assert jet_partial(a, 0) == J(2, 3, {(1, 1): 2.0})

    def test_constant(self):
        assert jet_partial(Jet.constant(1, 2, 3.0), 0).is_zero()

    def test_mixed(self):
        a = J(2, 3, {(3, 0): 1.0, (1, 2): 1.0})
        assert jet_partial(a, 1) == J(2, 3, {(1, 1): 2.0})

    def test_reliable_order_drops(self):
        a = random_jet(np.random.default_rng(0), 2, 4)
        assert a.reliable_order == 4
        assert jet_partial(a, 0).reliable_order == 3
        assert jet_partial(jet_partial(a, 0), 1).reliable_order == 2

    def test_leibniz_up_to_reliable_degree(self):
        rng = np.random.default_rng(3)
        for _ in range(15):
            a = random_jet(rng, 2, 4)
            b = random_jet(rng, 2, 4)
            lhs = jet_partial(jet_mul(a, b), 0)
            rhs = jet_mul(jet_partial(a, 0), b) + jet_mul(a, jet_partial(b, 0))
            reliable = lhs.reliable_order
            assert reliable == 3
            diff = lhs - rhs
            bad = max((abs(c) for i, c in diff.coeffs.items()
                       if i.degree <= reliable), default=0.0)
            assert bad <= 1e-13  # float accumulation order differs per side


class TestEvaluation:
    @staticmethod
    def _horner(jet, point):
        """Independent oracle: Horner scheme in the last variable with the
        coefficient polynomials evaluated recursively."""
        m = jet.num_vars
        if m == 1:
            coeffs = [0.0] * (jet.order + 1)
            for idx, c in jet.coeffs.items():
                coeffs[idx.exponents[0]] = c
            acc = 0.0
            for c in reversed(coeffs):
                acc = acc * point[0] + c
            return acc
        sub = {}
        for idx, c in jet.coeffs.items():
            sub.setdefault(idx.exponents[-1], {})[idx.exponents[:-1]] = c
        acc = 0.0
        for e in range(max(sub), -1, -1):
            acc *= point[-1]
            if e in sub:
                inner = Jet.from_terms(m - 1, jet.order, sub[e])
                acc += TestEvaluation._horner(inner, point[:-1])
        return acc

    def test_matches_horner_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            m = int(rng.integers(1, 4))
            jet = random_jet(rng, m, 4)
            if jet.is_zero():
                continue
            point = rng.uniform(-0.7, 0.7, m)
            direct = jet.evaluate(point)
            oracle = self._horner(jet, list(point))
            assert abs(direct - oracle) <= 1e-13 * max(1.0, abs(oracle))


class TestStructureHelpers:
    def test_shift_reexpands(self):
        rng = np.random.default_rng(9)
        jet = random_jet(rng, 2, 4)
        offset = [0.3, -0.2]
        shifted = jet_shift(jet, offset)
        for _ in range(5):
            d = rng.uniform(-0.3, 0.3, 2)
            assert np.isclose(shifted.evaluate(d),
                              jet.evaluate(d + np.array(offset)),
                              rtol=0, atol=1e-12)

    def test_reciprocal(self):
        rng = np.random.default_rng(13)
        a = random_jet(rng, 2, 4) + 2.0
        inv = jet_reciprocal(a)
        assert max_coeff_diff(jet_mul(a, inv), Jet.constant(2, 4, 1.0)) <= 1e-12

    def test_matrix_inverse(self):
        rng = np.random.default_rng(17)
        M = [[random_jet(rng, 2, 4) + (2.0 if i == j else 0.0) for j in range(2)]
             for i in range(2)]
        X = jet_matrix_inverse(M)
        for i in range(2):
            for j in range(2):
                prod = jet_mul(M[i][0], X[0][j]) + jet_mul(M[i][1], X[1][j])
                target = Jet.constant(2, 4, 1.0 if i == j else 0.0)
                assert max_coeff_diff(prod, target) <= 1e-12

    def test_reciprocal_refuses_zero_constant(self):
        with pytest.raises(StructuralError):
            jet_reciprocal(Jet.variable(2, 4, 0))

    def test_matrix_inverse_refuses_singular_constant_part(self):
        one = Jet.constant(2, 4, 1.0) + Jet.variable(2, 4, 1)
        with pytest.raises(StructuralError):
            jet_matrix_inverse([[one, one], [one, one]])

    def test_reciprocal_is_the_one_by_one_matrix_inverse(self):
        rng = np.random.default_rng(19)
        for m in range(1, 5):
            a = random_jet(rng, m, 5) + 1.5
            assert jet_reciprocal(a) == jet_matrix_inverse([[a]])[0][0]

    def test_var_bookkeeping(self):
        a = J(2, 3, {(1, 2): 2.0})
        wide = a.extend_vars(3)
        assert wide.num_vars == 3 and wide.coefficient((1, 2, 0)) == 2.0
        assert wide.subs_zero(1).is_zero()
        assert wide.drop_var(2) == a
        with pytest.raises(StructuralError):
            wide.drop_var(0)
        assert a.div_var(1).coefficient((1, 1)) == 2.0
        assert a.mul_var(0).coefficient((2, 2)) == 0.0  # pushed past the order

    def test_canonical_sparsity(self):
        jet = J(2, 3, {(1, 0): 0.0, (0, 1): 2.0})
        assert len(jet.coeffs) == 1  # explicit zeros are never stored
        diff = jet - J(2, 3, {(0, 1): 2.0})
        assert not diff.coeffs


def _pickle_round_trip(obj):
    return pickle.loads(pickle.dumps(obj))


def _jet_keys(obj):
    """Every MultiIndex key of a Jet, a JetVector or a FastSlowMapSpec."""
    if isinstance(obj, Jet):
        return list(obj.coeffs)
    if isinstance(obj, JetVector):
        return [key for jet in obj for key in jet.coeffs]
    return ([key for row in obj.N for jet in row for key in jet.coeffs]
            + _jet_keys(obj.f) + _jet_keys(obj.G))


def test_exponent_rows_equal_the_recursive_enumeration():
    # every shape m <= 6, order <= 7 under the cap, built afresh
    for m in range(1, 7):
        for order in range(1, 8):
            try:
                table = _GradedTable(m, order)
            except StructuralError:
                continue
            want = [a.exponents for d in range(order + 1) for a in monomials_oracle(m, d)]
            assert table.exponents.dtype == np.int64
            assert table.exponents.tolist() == [list(e) for e in want], (m, order)
            assert not table.exponents.flags.writeable


def test_table_build_makes_no_index_objects():
    from fastslow import jets
    before = len(jets._INTERNED)
    table = _GradedTable(9, 2)  # no other test makes monomials in nine variables
    assert len(jets._INTERNED) == before
    assert [a.exponents for a in monomials_of_degree(9, 2)] == \
        [tuple(e) for e in table.exponents[table.ends[1] + 1:].tolist()]


def test_public_keys_are_the_shared_indices():
    # Jet(mapping), coefficient, terms() and coeffs on random sparse maps
    # keyed by tuples, tuples of integral floats and MultiIndex instances
    rng = np.random.default_rng(26)
    for _ in range(200):
        m, order = int(rng.integers(1, 5)), int(rng.integers(1, 6))
        basis = [a for d in range(order + 1) for a in monomials_oracle(m, d)]
        picked = rng.random(len(basis)) < rng.random()
        values = np.where(rng.random(len(basis)) < 0.2, 0.0,
                          rng.uniform(-1.0, 1.0, len(basis)))
        kinds = rng.integers(0, 3, len(basis))
        mapping = {(a.exponents, tuple(map(float, a.exponents)), a)[kind]: v
                   for a, v, kind, keep in zip(basis, values, kinds, picked) if keep}
        jet = Jet(m, order, mapping)
        want = sorted((k if isinstance(k, MultiIndex) else MultiIndex(k), v)
                      for k, v in mapping.items() if v != 0.0)
        terms = list(jet.terms())
        assert [(k.exponents, v) for k, v in terms] == [(k.exponents, v) for k, v in want]
        assert all(k is w for (k, _), (w, _) in zip(terms, want))
        assert list(jet.coeffs.items()) == terms
        assert all(k is w for k, (w, _) in zip(jet.coeffs, want))
        for a, v, keep in zip(basis, values, picked):
            assert jet.coefficient(a) == jet.coefficient(a.exponents) == (v if keep else 0.0)


def test_derivation_triples_equal_the_per_variable_build():
    # every shape up to 3000 triples, each built afresh
    for m in range(1, 6):
        for order in range(1, 8):
            table = _GradedTable(m, order)
            want = derivation_triples_oracle(table)
            if len(want["row"]) > 3000:
                break
            for name, arr in want.items():
                got = getattr(table, name)
                assert got.dtype == arr.dtype and np.array_equal(got, arr), (m, order, name)


class TestCopyAndPickle:
    @pytest.mark.parametrize("round_trip", [_pickle_round_trip, copy.deepcopy, copy.copy])
    def test_round_trips_keep_coefficients(self, round_trip):
        from conftest import make_contact3d_spec
        rng = np.random.default_rng(11)
        jet = random_jet(rng, 3, 4)
        vec = JetVector([random_jet(rng, 2, 3), random_jet(rng, 2, 3)])
        spec = make_contact3d_spec()
        jet2, vec2, spec2 = (round_trip(x) for x in (jet, vec, spec))
        assert jet2 == jet and jet2.reliable_order == jet.reliable_order
        assert vec2 == vec
        assert spec2.N == spec.N and spec2.f == spec.f and spec2.G == spec.G
        assert np.array_equal(spec2.base_point, spec.base_point)
        assert spec2.map_apply(spec.base_point + 0.01, 1e-3).tobytes() == \
            spec.map_apply(spec.base_point + 0.01, 1e-3).tobytes()

    @pytest.mark.parametrize("round_trip", [_pickle_round_trip, copy.deepcopy, copy.copy])
    def test_round_trips_return_the_shared_indices(self, round_trip):
        from conftest import make_contact3d_spec
        rng = np.random.default_rng(12)
        idx = MultiIndex((3, 1))
        assert round_trip(idx) is idx
        for obj in (random_jet(rng, 3, 4),
                    JetVector([random_jet(rng, 2, 3), random_jet(rng, 2, 3)]),
                    make_contact3d_spec()):
            keys = _jet_keys(round_trip(obj))
            assert keys
            assert all(key is MultiIndex(key.exponents) for key in keys)
