"""Operator conventions checked against explicit matrix constructions."""

from fractions import Fraction

import numpy as np
import pytest
from helpers import NON_INTEGERS, basis_vector, displacement_matrix, random_unit
from numpy.testing import assert_allclose

from flatsic import (
    CVec,
    VectorFileError,
    apply_displacement,
    build_ansatz,
    build_legendre_vector,
    cvec,
    displacement_row_identity,
    gik_table_csv,
    inner_product,
    is_prime,
    legendre_symbol,
    lemma1_closed_form,
    lemma1_sweep,
    make_dimension,
    overlap_table,
    overlap_table_csv,
    perron_counts,
    perron_sweep,
    primes_3mod4,
    to_normalized,
    to_rescaled,
    to_vform,
    z_shift,
)
from flatsic.weyl import check_tolerance


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


_PSI7 = to_normalized(build_ansatz(7, [0.3, 1.1, 2.0]))

#: Public functions with an integer argument other than a dimension, as
#: (argument name, a valid value, the call with that argument).
INTEGER_ARGUMENTS = {
    "is_prime": ("n", 7, lambda v: is_prime(v)),
    "legendre_symbol-n": ("n", 2, lambda v: legendre_symbol(v, 7)),
    "legendre_symbol-p": ("p", 7, lambda v: legendre_symbol(2, v)),
    "perron_counts": ("a", 2, lambda v: perron_counts(7, v)),
    "z_shift": ("k", 3, lambda v: z_shift(_PSI7, v)),
    "displacement_row_identity": ("j", 3, lambda v: displacement_row_identity(_PSI7, v)),
    "apply_displacement-j": ("j", 2, lambda v: apply_displacement(_PSI7, v, 0)),
    "apply_displacement-k": ("k", 3, lambda v: apply_displacement(_PSI7, 0, v)),
    # both Legendre sweeps, lemma1 and Perron, read pmax at one site
    "legendre_sweep": ("pmax", 20, lambda v: (lemma1_sweep(v).tobytes(), perron_sweep(v).tobytes())),
    "primes_3mod4": ("limit", 20, lambda v: primes_3mod4(v)),
}


@pytest.mark.parametrize("bad", [*NON_INTEGERS, np.True_, "7", 20.5])
@pytest.mark.parametrize("call", INTEGER_ARGUMENTS)
def test_integer_arguments_reject_non_integers(call, bad):
    # int() would read 7.5 as 7 and True as 1, and z_shift by 2.5 would
    # multiply by omega^{2.5 r}, which is no clock shift; each is refused by name
    name, _, function = INTEGER_ARGUMENTS[call]
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        function(bad)


@pytest.mark.parametrize("call", INTEGER_ARGUMENTS)
def test_integer_arguments_accept_integral_values(call):
    _, value, function = INTEGER_ARGUMENTS[call]
    expected = function(value)
    for same in (np.int64(value), float(value)):
        result = function(same)
        if isinstance(expected, CVec):
            assert (result.form, result.components.tobytes()) == (
                expected.form,
                expected.components.tobytes(),
            )
        else:
            assert result == expected


#: Public functions with a flag argument, as (argument name, the call with
#: that argument, what of the result a valid flag decides).
BOOLEAN_ARGUMENTS = {
    "build_ansatz": (
        "ghost",
        lambda v: build_ansatz(7, [1, 2, 3], ghost=v),
        lambda av: (av.x0, av.phases.tobytes(), type(av.ghost), av.ghost),
    ),
    "overlap_table_csv": (
        "moduli_only",
        lambda v: overlap_table_csv(overlap_table(_PSI7), moduli_only=v),
        lambda text: text,
    ),
    "gik_table_csv": (
        "moduli_only",
        lambda v: gik_table_csv(_PSI7, moduli_only=v),
        lambda text: text,
    ),
    "lemma1_closed_form": (
        "j_is_residue",
        lambda v: lemma1_closed_form(7, np.exp(0.4j), v),
        lambda value: value,
    ),
}


@pytest.mark.parametrize("bad", ["no", 0.5, 0, 1, None])
@pytest.mark.parametrize("call", BOOLEAN_ARGUMENTS)
def test_boolean_arguments_reject_non_bools(call, bad):
    # a truthy string or number once picked the ghost branch or the moduli
    name, function, _ = BOOLEAN_ARGUMENTS[call]
    with pytest.raises(ValueError, match=f"^{name} must be a bool"):
        function(bad)


@pytest.mark.parametrize("call", BOOLEAN_ARGUMENTS)
def test_boolean_arguments_accept_python_and_numpy_bools(call):
    _, function, decided = BOOLEAN_ARGUMENTS[call]
    assert decided(function(np.True_)) == decided(function(True))
    assert decided(function(True)) != decided(function(False))
    assert decided(function(np.False_)) == decided(function(False))


@pytest.mark.parametrize(
    "bad", [True, np.True_, None, "1e-9", 1j, float("nan"), float("inf"), -float("inf"), 0, -1]
)
def test_check_tolerance_rejects_all_but_positive_finite_reals(bad):
    with pytest.raises(ValueError, match="^tolerance must be positive and finite"):
        check_tolerance(bad)


@pytest.mark.parametrize(
    "good, value",
    [(1e-9, 1e-9), (np.float64(1e-9), 1e-9), (np.float32(0.5), 0.5), (Fraction(1, 10), 0.1), (1, 1.0)],
)
def test_check_tolerance_returns_a_float(good, value):
    result = check_tolerance(good)
    assert type(result) is float and result == value


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
        # z_shift is apply_displacement at j = 0, whatever the form
        rng = np.random.default_rng(9)
        for d in (7, 9, 19, 199):
            vec = to_form(build_ansatz(d, rng.uniform(0.0, 2.0 * np.pi, (d - 1) // 2)))
            for k in range(d):
                shifted = z_shift(vec, k)
                assert shifted.form == vec.form
                assert shifted.components[0] == vec.components[0]
                expect = apply_displacement(vec, 0, k).components
                assert np.max(np.abs(shifted.components - expect)) <= 1e-15

    def test_z_shift_reduces_a_huge_exponent(self):
        psi = random_unit(np.random.default_rng(19), 19)
        got = z_shift(psi, 10**30).components
        assert got.tobytes() == z_shift(psi, 10**30 % 19).components.tobytes()


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
