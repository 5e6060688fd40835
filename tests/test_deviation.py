import math
import random
from fractions import Fraction

import numpy as np
import pytest

from reidtai import deviation
from reidtai.deviation import (
    deviation_wrt_basis,
    eigenbasis_deviation,
    extraspecial_bound,
    extraspecial_scan,
    invariant_dimension,
    monomial_matrix,
    product_bound_check,
    tensor_perm_trace_check,
)
from reidtai.monomial import g_group
from reidtai.spectra import Spectrum

F = Fraction


def S(*vals):
    return Spectrum(F(v) for v in vals)


def _random_unitary(rng_state, dim):
    z = rng_state.standard_normal((dim, dim)) + 1j * rng_state.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_finite_order_unitary(rng, np_rng, dim, max_den=12):
    q = _random_unitary(np_rng, dim)
    phases = [rng.randrange(den := rng.randint(1, max_den)) / den for _ in range(dim)]
    d = np.diag(np.exp(2j * np.pi * np.array(phases)))
    return q @ d @ q.conj().T


class TestDeviationWrtBasis:
    def test_examples(self):
        assert deviation_wrt_basis(np.eye(4)).total == pytest.approx(0, abs=1e-12)
        assert deviation_wrt_basis([[-1]]).total == pytest.approx(2, abs=1e-12)
        assert deviation_wrt_basis([[1j]]).total == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_non_orthonormal_rejected(self):
        with pytest.raises(ValueError):
            deviation_wrt_basis(np.eye(2), [[1, 1], [0, 1]])

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError):
            deviation_wrt_basis([[2, 0], [0, 1]])

    def test_basis_of_another_dimension_rejected(self):
        with pytest.raises(ValueError, match="^basis dimension 1 does not match operator dimension 2$"):
            deviation_wrt_basis(np.eye(2), np.eye(1))

    def test_unitary_basis_change_invariance(self):
        rng = np.random.default_rng(101)
        for _ in range(20):
            t = _random_unitary(rng, 4)
            b = _random_unitary(rng, 4)
            q = _random_unitary(rng, 4)
            before = deviation_wrt_basis(t, b).total
            after = deviation_wrt_basis(q @ t @ q.conj().T, q @ b).total
            assert after == pytest.approx(before, abs=1e-9)


class TestEigenbasisDeviation:
    def test_examples(self):
        assert eigenbasis_deviation(S("1/2")) == pytest.approx(2, abs=1e-12)
        assert eigenbasis_deviation(S("1/4", "3/4")) == pytest.approx(2 * math.sqrt(2), abs=1e-12)
        assert eigenbasis_deviation(S("1/6", "1/6", "1/6", "1/3")) == pytest.approx(3 + math.sqrt(3), abs=1e-12)

    def test_chord_arc_bound(self):
        rng = random.Random(7)
        for _ in range(10_000):
            dim = rng.randint(1, 8)
            s = Spectrum(F(rng.randrange(den := rng.randint(1, 24)), den) for _ in range(dim))
            dev = eigenbasis_deviation(s)
            age = float(s.age())
            assert dev <= 2 * math.pi * age + 1e-9
            if s.age() > 0:
                assert dev < 2 * math.pi * age
            if s.age() < 1:
                assert dev < 2 * math.pi

    def test_matches_matrix_deviation(self):
        s = S("1/6", "1/6", "1/3")
        t = np.diag(np.exp(2j * np.pi * np.array([1 / 6, 1 / 6, 1 / 3])))
        assert deviation_wrt_basis(t).total == pytest.approx(eigenbasis_deviation(s), abs=1e-9)


class TestProductBound:
    def test_single_factor_equality(self):
        t = np.diag([1j, 1])
        report = product_bound_check([t])
        assert report.ok
        assert report.product_deviation == pytest.approx(report.factor_deviation_sum, abs=1e-9)

    def test_commuting_diagonals(self):
        report = product_bound_check([np.diag([1, 1j]), np.diag([-1, 1])])
        assert report.ok

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            product_bound_check([np.eye(2), np.eye(3)])

    def test_basis_of_another_dimension_rejected(self):
        with pytest.raises(ValueError, match="^basis dimension 3 does not match operator dimension 2$"):
            product_bound_check([np.eye(2)], [np.eye(3)])

    def test_seeded_random_trials(self):
        rng = random.Random(2024)
        np_rng = np.random.default_rng(2024)
        for _ in range(50):
            dim = rng.randint(1, 6)
            count = rng.randint(2, 3)
            ts = [_random_finite_order_unitary(rng, np_rng, dim) for _ in range(count)]
            bases = [_random_unitary(np_rng, dim) for _ in range(count)]
            report = product_bound_check(ts, bases)
            assert report.ok
            assert report.product_deviation <= count * report.factor_deviation_sum + 1e-9


class TestInvariantDimension:
    def test_examples(self):
        assert invariant_dimension(g_group(1, 1, 3)).dimension == 1
        rep = invariant_dimension([np.eye(1), -np.eye(1)])
        assert rep.dimension == 0 and rep.witness_index == 1
        assert invariant_dimension(g_group(2, 1, 2)).dimension == 0

    def test_witness_has_nonpositive_trace(self):
        group = g_group(3, 1, 2)
        rep = invariant_dimension(group)
        mats = [monomial_matrix(g) for g in group.elements]
        if rep.dimension == 0:
            assert mats[rep.witness_index].trace().real <= 1e-9

    def test_inconsistent_input_rejected(self):
        with pytest.raises(ValueError):
            invariant_dimension([np.diag([0.6, 0.6])])


class TestTensorPermTrace:
    def test_identity_pair(self):
        report = tensor_perm_trace_check([np.eye(2), np.eye(2)])
        assert report.ok and report.cyclic_trace == pytest.approx(2)

    def test_diag_i_pair(self):
        report = tensor_perm_trace_check([np.diag([1, 1j]), np.diag([1, 1j])])
        assert report.ok
        assert report.cyclic_trace == pytest.approx(0)
        assert report.product_trace == pytest.approx(0)

    def test_seeded_random_trials(self):
        rng = random.Random(4096)
        np_rng = np.random.default_rng(4096)
        for _ in range(50):
            ts = [_random_unitary(np_rng, 2) for _ in range(3)]
            report = tensor_perm_trace_check(ts)
            assert report.ok
            assert abs(report.cyclic_trace) <= 4 + 1e-9  # dim^(n-1) = 2^2
            assert report.cyclic_trace == pytest.approx(report.product_trace, abs=1e-9)
            # cycle-order composition: the trace matches T_n ... T_1
            composed = np.eye(2, dtype=complex)
            for t in reversed(ts):
                composed = composed @ t
            assert report.cyclic_trace == pytest.approx(complex(np.trace(composed)), abs=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            tensor_perm_trace_check([np.eye(2), np.eye(3)])


class TestExtraspecial:
    @pytest.mark.parametrize(
        "p, n_exp, m, dim, survives",
        [(2, 1, 1, 2, True), (2, 4, 1, 16, False), (3, 2, 2, 18, False), (3, 1, 1, 3, True), (2, 3, 1, 8, True)],
    )
    def test_examples(self, p, n_exp, m, dim, survives):
        rec = extraspecial_bound(p, n_exp, m)
        assert rec.dim == dim and rec.survives == survives

    def test_survivor_set_matches_dimension_rule(self):
        for rec in extraspecial_scan(32):
            assert rec.survives == (rec.dim < 16)

    def test_non_prime_rejected(self):
        with pytest.raises(ValueError):
            extraspecial_bound(4, 1, 1)

    def test_deviation_of_involution_block(self):
        # p = 2: eigenvalues +-1 each with multiplicity m*2^(n-1); chord sum = 2 * m * 2^(n-1)
        rec = extraspecial_bound(2, 2, 1)
        assert rec.eigen_deviation == pytest.approx(4, abs=1e-9)

    def test_deviation_is_the_spectrum_chord_sum(self):
        # the same float as the deviation of the dim-long spectrum, bit for bit
        records = extraspecial_scan(200)
        assert len(records) > 400
        for rec in records:
            spectrum = Spectrum([F(j, rec.p) for j in range(rec.p)] * (rec.dim // rec.p))
            assert rec.eigen_deviation == eigenbasis_deviation(spectrum), (rec.p, rec.n_exp, rec.m)

    def test_chord_sum_is_taken_once_per_prime(self):
        deviation._chord_sum.cache_clear()
        records = extraspecial_scan(200)
        info = deviation._chord_sum.cache_info()
        assert info.misses == len({rec.p for rec in records}) == 46
        assert info.misses + info.hits == len(records)

    def test_bound_builds_no_spectrum(self, monkeypatch):
        def refuse(self, values):
            raise AssertionError("extraspecial_bound built a Spectrum")

        monkeypatch.setattr(Spectrum, "__init__", refuse)
        assert extraspecial_bound(3, 2, 5).dim == 45
