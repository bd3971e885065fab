"""Operator conventions checked against explicit matrix constructions."""

import numpy as np
import pytest
from helpers import NON_INTEGERS, displacement_matrix, random_unit
from numpy.testing import assert_allclose

from flatsic import (
    CVec,
    VectorFileError,
    apply_displacement,
    basis_vector,
    build_ansatz,
    build_legendre_vector,
    cvec,
    inner_product,
    make_dimension,
    to_rescaled,
    to_vform,
    z_shift,
)


class TestMakeDimension:
    def test_d7(self):
        dim = make_dimension(7)
        assert dim.is_odd and dim.is_prime
        assert dim.n_sq_plus_3 == 2
        assert dim.mod4 == 3 and dim.mod8 == 7

    def test_d4(self):
        dim = make_dimension(4)
        assert not dim.is_odd and not dim.is_prime
        assert dim.n_sq_plus_3 == 1
        assert dim.mod4 == 0

    def test_d67(self):
        dim = make_dimension(67)
        assert dim.is_odd and dim.is_prime
        assert dim.n_sq_plus_3 == 8
        assert dim.mod4 == 3 and dim.mod8 == 3

    def test_no_square(self):
        assert make_dimension(8).n_sq_plus_3 is None
        assert make_dimension(11).n_sq_plus_3 is None

    @pytest.mark.parametrize("bad", [1, 0, -3])
    def test_too_small(self, bad):
        with pytest.raises(ValueError):
            make_dimension(bad)

    @pytest.mark.parametrize("bad", NON_INTEGERS)
    def test_non_integer(self, bad):
        with pytest.raises(ValueError, match="dimension must be an integer"):
            make_dimension(bad)


class TestIsPrime:
    def test_small_values(self):
        from flatsic import is_prime

        assert [n for n in range(2, 30) if is_prime(n)] == [
            2, 3, 5, 7, 11, 13, 17, 19, 23, 29,
        ]
        assert not is_prime(1)
        assert not is_prime(-7)

    def test_large_input_rejected(self):
        from flatsic import is_prime

        with pytest.raises(ValueError):
            is_prime(10**13)


class TestPhaseConstants:
    def test_tau_power_reduction(self):
        # every pair here has j k >= 2d once j and k are reduced mod d, so
        # apply_displacement must reduce tau^{jk} mod 2d; tau has order 2d
        # for even d, so a reduction mod d shows at d = 6
        for d in (6, 7):
            psi = random_unit(np.random.default_rng(70 + d), d)
            for j, k in [(d - 1, d - 1), (d - 2, d - 1), (-1, -2), (10**9 * d - 1, 2 * d - 3)]:
                assert (j % d) * (k % d) >= 2 * d
                expect = displacement_matrix(d, j, k) @ psi.components
                assert_allclose(apply_displacement(psi, j, k).components, expect, atol=1e-12)


class TestCVec:
    def test_length_mismatch(self):
        with pytest.raises(VectorFileError, match="components-length"):
            CVec(make_dimension(3), np.zeros(4, complex))

    def test_normalized_norm_enforced(self):
        with pytest.raises(VectorFileError, match="normalized-norm"):
            cvec([2.0, 0.0, 0.0])

    def test_unknown_form(self):
        with pytest.raises(VectorFileError, match="known-form"):
            cvec([1.0, 0.0], form="weird")

    def test_immutable(self):
        v = basis_vector(3, 0)
        with pytest.raises(ValueError):
            v.components[0] = 5.0


class TestFormInvariants:
    """Every CVec is valid for its form when it is built; a broken invariant
    raises VectorFileError naming it."""

    @pytest.mark.parametrize(
        "components, form, invariant",
        [
            (np.full(7, 2.0), "v-form", "vform-unit-moduli"),
            (np.ones(7), "rescaled", "rescaled-x0-quadratic"),
            (np.full(7, np.nan), "normalized", "finite-components"),
            (np.array([np.inf, 1.0, 1.0]), "v-form", "finite-components"),
            (np.array([1.0 + 1.0j, 1.0, 1.0]), "v-form", "vform-first-component"),
            (np.array([0.0, 1.0, 1.0]), "rescaled", "rescaled-x0-nonzero"),
        ],
    )
    def test_invalid_vector_is_not_built(self, components, form, invariant):
        with pytest.raises(VectorFileError, match=invariant) as info:
            cvec(components, form)
        assert info.value.invariant == invariant

    def test_rescaled_moduli(self):
        x = to_rescaled(build_legendre_vector(7).ansatz).components.copy()
        x[3] *= 1.5
        with pytest.raises(VectorFileError, match="rescaled-moduli"):
            cvec(x, "rescaled")

    @pytest.mark.parametrize("to_form", [to_vform, to_rescaled])
    def test_shift_moves_component_zero(self, to_form):
        vec = to_form(build_ansatz(7, [0.3, 1.1, 2.0]))
        with pytest.raises(VectorFileError, match=r"\[invariant: (vform|rescaled)-"):
            apply_displacement(vec, 1, 0)
        assert apply_displacement(vec, 7, 2).form == vec.form  # j = 0 mod d

    @pytest.mark.parametrize("to_form", [to_vform, to_rescaled])
    def test_z_shift_keeps_the_form(self, to_form):
        vec = to_form(build_ansatz(9, [0.3, 1.1, 2.0, -0.4]))
        for k in range(9):
            shifted = z_shift(vec, k)
            assert shifted.form == vec.form
            assert shifted.components[0] == vec.components[0]


class TestApplyDisplacement:
    def test_shift(self):
        out = apply_displacement(basis_vector(3, 0), 1, 0)
        assert_allclose(out.components, basis_vector(3, 1).components, atol=1e-15)

    def test_clock(self):
        om = np.exp(2j * np.pi / 3)
        out = apply_displacement(basis_vector(3, 1), 0, 1)
        assert_allclose(out.components, om * basis_vector(3, 1).components, atol=1e-15)

    def test_both(self):
        # oracle: explicit 3x3 matrix product tau * X * Z applied to e_0
        out = apply_displacement(basis_vector(3, 0), 1, 1)
        expect = displacement_matrix(3, 1, 1) @ basis_vector(3, 0).components
        assert_allclose(out.components, expect, atol=1e-14)
        assert abs(out.components[1] - (-np.exp(1j * np.pi / 3))) < 1e-14

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7])
    def test_matches_matrix_everywhere(self, d):
        rng = np.random.default_rng(19 + d)
        psi = random_unit(rng, d)
        for j in range(d):
            for k in range(d):
                expect = displacement_matrix(d, j, k) @ psi.components
                got = apply_displacement(psi, j, k).components
                assert_allclose(got, expect, atol=1e-13)

    def test_negative_indices_reduced(self):
        rng = np.random.default_rng(3)
        psi = random_unit(rng, 5)
        a = apply_displacement(psi, -1, -2).components
        b = apply_displacement(psi, 4, 3).components
        assert_allclose(a, b, atol=1e-14)

    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_group_law(self, d):
        # D_{j,k} D_{j',k'} = tau^{j'k - jk'} D_{j+j',k+k'}
        rng = np.random.default_rng(11 + d)
        psi = random_unit(rng, d)
        tau = -np.exp(1j * np.pi / d)
        for j, k, jp, kp in [(1, 0, 0, 1), (1, 2, 2, 1), (d - 1, 1, 1, d - 1), (2, 2, 1, 0)]:
            lhs = apply_displacement(apply_displacement(psi, jp, kp), j, k).components
            rhs = tau ** ((jp * k - j * kp) % (2 * d)) * apply_displacement(
                psi, j + jp, k + kp
            ).components
            assert_allclose(lhs, rhs, atol=1e-13)
            matrix = displacement_matrix(d, j, k) @ displacement_matrix(d, jp, kp)
            assert_allclose(lhs, matrix @ psi.components, atol=1e-13)

    @pytest.mark.parametrize("d", [3, 5, 7])
    def test_commutation_and_order(self, d):
        rng = np.random.default_rng(5 + d)
        psi = random_unit(rng, d)
        om = np.exp(2j * np.pi / d)
        zx = apply_displacement(apply_displacement(psi, 1, 0), 0, 1).components
        xz = apply_displacement(apply_displacement(psi, 0, 1), 1, 0).components
        assert_allclose(zx, om * xz, atol=1e-13)
        # X^d = Z^d = identity
        xd = psi
        zd = psi
        for _ in range(d):
            xd = apply_displacement(xd, 1, 0)
            zd = apply_displacement(zd, 0, 1)
        assert_allclose(xd.components, psi.components, atol=1e-12)
        assert_allclose(zd.components, psi.components, atol=1e-12)


class TestInnerProduct:
    def test_orthonormal_basis(self):
        assert inner_product(basis_vector(5, 0), basis_vector(5, 0)) == pytest.approx(1)
        assert inner_product(basis_vector(5, 0), basis_vector(5, 1)) == pytest.approx(0)

    def test_conjugates_first_argument(self):
        a = cvec([1j, 0.0])
        b = cvec([1.0, 0.0])
        assert inner_product(a, b) == pytest.approx(-1j)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            inner_product(basis_vector(3, 0), basis_vector(4, 0))

    def test_unit_norm_paper_vector(self):
        from helpers import d7_solution, normalize_rescaled

        psi = normalize_rescaled(d7_solution(-1))
        direct = sum(abs(z) ** 2 for z in psi.components)  # independent summation
        assert abs(direct - 1.0) < 1e-13
        assert inner_product(psi, psi) == pytest.approx(1.0, abs=1e-13)


class TestRealPreimage:
    """Preimages under the DFT kernel omega^{+rs} / sqrt(d), built here."""

    def test_d7_fiducial_has_real_preimage(self):
        # exploratory fact, frozen: in this kernel convention the d=7
        # fiducial is the transform of a real vector up to a global phase
        from helpers import d7_solution, normalize_rescaled

        psi = normalize_rescaled(d7_solution(-1))
        kernel = np.exp(
            2j * np.pi * np.outer(np.arange(7), np.arange(7)) / 7
        ) / np.sqrt(7)
        pre = kernel.conj().T @ psi.components
        pivot = pre[np.argmax(np.abs(pre))]
        dephased = pre * (abs(pivot) / pivot)
        assert np.max(np.abs(dephased.imag)) < 1e-12

    def test_random_no_real_preimage(self):
        rng = np.random.default_rng(8)
        psi = random_unit(rng, 7)
        kernel = np.exp(
            2j * np.pi * np.outer(np.arange(7), np.arange(7)) / 7
        ) / np.sqrt(7)
        pre = kernel.conj().T @ psi.components
        pivot = pre[np.argmax(np.abs(pre))]
        dephased = pre * (abs(pivot) / pivot)
        assert np.max(np.abs(dephased.imag)) > 1e-3
