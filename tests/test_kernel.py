"""The spectral overlap kernel against entry-by-entry oracles.

Every table and residual below comes from the FFT kernel in
flatsic.weyl; the expected values are built here from apply_displacement,
inner_product, helpers.gik_quartic and np.roll/np.vdot loops, none of which
calls the kernel.  The input vector is normalized here too, without
flatsic's form conversions.
"""

import math
import time

import numpy as np
import pytest
from helpers import (
    displacement_matrix,
    gik_quartic,
    perron_enumeration,
    random_complex,
    random_unit,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from flatsic import (
    SearchConfig,
    apply_displacement,
    build_ansatz,
    build_legendre_vector,
    cvec,
    gik_residual,
    gik_table,
    inner_product,
    is_sic,
    legendre_symbol,
    lemma1_closed_form,
    make_dimension,
    naive_x_residual,
    objective,
    overlap_table,
    to_normalized,
    to_rescaled,
    to_vform,
    x_overlap_deviations,
    x_overlap_residual,
)
from flatsic.legendre import lemma1_sweep, perron_sweep, perron_table
from flatsic.weyl import autocorrelation, clock_shift_rows, overlap_rows

TOL = 1e-12


def _inputs(d):
    rng = np.random.default_rng(700 + d)
    cases = [("random", random_unit(rng, d))]
    if d % 2:
        av = build_ansatz(d, rng.uniform(0.0, 2.0 * np.pi, (d - 1) // 2))
        cases += [
            ("normalized", to_normalized(av)),
            ("v-form", to_vform(av)),
            ("rescaled", to_rescaled(av)),
        ]
    else:  # non-unit input: a rescaled vector with random phases
        x0 = -2.0 - math.sqrt(d + 1.0)
        phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, d - 1))
        cases.append(("scaled", cvec(np.concatenate(([x0], math.sqrt(-x0) * phases)), "rescaled")))
    return cases


# the even dimensions are there because overlap_table serves even d too
ALL = [
    pytest.param(v, id=f"d{v.d}-{name}") for d in (3, 6, 7, 12, 45) for name, v in _inputs(d)
]
ODD = [p for p in ALL if p.values[0].d % 2]


def _unit(vec) -> np.ndarray:
    """Unit components: a rescaled vector is first divided by its purely
    imaginary sqrt(x0)."""
    arr = vec.components
    if vec.form == "rescaled":
        arr = arr / (1j * math.sqrt(-arr[0].real))
    return arr / np.linalg.norm(arr)


def _oracle_overlaps(unit: np.ndarray) -> np.ndarray:
    psi = cvec(unit)
    d = unit.shape[0]
    return np.array(
        [[inner_product(psi, apply_displacement(psi, j, k)) for k in range(d)] for j in range(d)]
    )


def _gik_target(d: int) -> np.ndarray:
    target = np.zeros((d, d))
    target[0, :] += 1.0
    target[:, 0] += 1.0
    return target / (d + 1.0)


def _sic_deviations(table: np.ndarray) -> np.ndarray:
    d = table.shape[0]
    dev = np.abs(np.abs(table) ** 2 - 1.0 / (d + 1.0))
    dev[0, 0] = 0.0
    return dev


@pytest.mark.parametrize("vec", ALL)
def test_overlap_table_matches_displacement_oracle(vec):
    expect = _oracle_overlaps(_unit(vec))
    assert_allclose(overlap_table(vec).entries, expect, rtol=0, atol=TOL)
    assert is_sic(vec).max_modulus_deviation == pytest.approx(_sic_deviations(expect).max(), abs=TOL)


@pytest.mark.parametrize("vec", ALL)
def test_clock_shift_rows_are_the_overlap_rows_without_tau(vec):
    unit = _unit(vec)
    d = vec.d
    rows = clock_shift_rows(unit, np.arange(d))
    moduli_sq = np.abs(_oracle_overlaps(unit)) ** 2
    assert_allclose(np.abs(rows) ** 2, moduli_sq, rtol=0, atol=TOL)
    n = np.arange(d)
    tau = (-np.exp(1j * np.pi / d)) ** ((-np.outer(n, n)) % (2 * d))
    assert_allclose(overlap_rows(unit, np.arange(d)), rows * tau, rtol=0, atol=TOL)


def test_clock_shift_rows_takes_one_vector():
    # the sic objective forms a batch's rows through the search plan's
    # transform pair; the kernel has no batch path
    with pytest.raises(ValueError, match="one-dimensional"):
        clock_shift_rows(np.ones((2, 7), dtype=np.complex128), [0, 1])


@pytest.mark.parametrize("parity", [0, 1], ids=["even-d", "odd-d"])
@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(half=st.integers(1, 32), j=st.integers(-100, 100), seed=st.integers(0, 2**32 - 1))
def test_row_minus_j_is_row_j_with_columns_reversed(parity, half, j, seed):
    # D_{-j,-k} = D_{j,k}^dagger, so |<psi|Z^{-k} X^{-j}|psi>| = |<psi|Z^k X^j|psi>|
    d = 2 * half + parity
    psi = random_complex(np.random.default_rng(seed), d)  # any vector, not normalized
    minus, plus = np.abs(clock_shift_rows(psi, [-j, j]))
    reversed_cols = (-np.arange(d)) % d
    assert_allclose(minus[reversed_cols], plus, rtol=0, atol=1e-13 * np.vdot(psi, psi).real)


@pytest.mark.parametrize("kind", ["bool", "int", "float", "complex"])
@pytest.mark.parametrize("shape", [(7,), (2, 8)])
def test_autocorrelation_takes_one_complex_transform_pair(monkeypatch, kind, shape):
    calls = []

    def spy(name):
        transform = getattr(np.fft, name)
        return lambda *args, **kwargs: calls.append(name) or transform(*args, **kwargs)

    for name in ("fft", "ifft", "rfft", "irfft"):
        monkeypatch.setattr(np.fft, name, spy(name))
    rng = np.random.default_rng(5)
    arr = {
        "bool": rng.integers(0, 2, shape).astype(bool),
        "int": rng.integers(-2, 3, shape),
        "float": rng.uniform(-1.0, 1.0, shape),
        "complex": random_complex(rng, shape),
    }[kind]
    got = autocorrelation(arr)
    assert calls == ["fft", "ifft"]
    assert got.dtype == np.complex128 and got.shape == shape
    d = shape[-1]
    rows = np.reshape(arr, (-1, d)).astype(np.complex128)
    expect = [[np.vdot(row, np.roll(row, -m)) for m in range(d)] for row in rows]
    assert_allclose(got.reshape(-1, d), expect, rtol=0, atol=1e-12 * d)


def _orbit_constant(rng, d, m):
    """A random vector, not normalized, with psi_{mj} = psi_j for every j:
    one random value per orbit of j -> m j on Z_d, m coprime to d."""
    orbit_min = [min(j * pow(m, t, d) % d for t in range(d)) for j in range(d)]
    return random_complex(rng, d)[orbit_min]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(d=st.integers(2, 12), unit=st.integers(0, 10), seed=st.integers(0, 2**32 - 1))
def test_multiplier_permutes_the_overlap_moduli(d, unit, seed):
    # psi_{mj} = psi_j makes psi invariant under the multiplier M_m, and
    # M_m D_{j,k} M_m^dagger = D_{mj, m^-1 k} up to a phase, so
    # |<psi|D_{mj, m^-1 k}|psi>| = |<psi|D_{j,k}|psi>|
    units = [m for m in range(1, d) if math.gcd(m, d) == 1]
    m = units[unit % len(units)]
    psi = _orbit_constant(np.random.default_rng(seed), d, m)
    m_inv = pow(m, -1, d)
    atol = 1e-13 * np.vdot(psi, psi).real
    rows = np.abs(clock_shift_rows(psi, np.arange(d)))
    for j in range(d):
        for k in range(d):
            moved = displacement_matrix(d, m * j, m_inv * k)
            expect = abs(np.vdot(psi, displacement_matrix(d, j, k) @ psi))
            assert abs(np.vdot(psi, moved @ psi)) == pytest.approx(expect, abs=atol)
            assert rows[m * j % d, m_inv * k % d] == pytest.approx(expect, abs=atol)


@pytest.mark.parametrize("d, m", [(19, 7), (39, 16), (67, 29), (103, 46)])
def test_multiplier_row_is_a_column_permutation(d, m):
    # the kernel's row mj is row j with column k moved to m^-1 k; each m
    # has order 3, at prime d and at d = 39 = 3 * 13
    psi = _orbit_constant(np.random.default_rng(d), d, m)
    rows = np.abs(clock_shift_rows(psi, np.arange(d)))
    moved = rows[(m * np.arange(d)) % d][:, (pow(m, -1, d) * np.arange(d)) % d]
    assert_allclose(moved, rows, rtol=0, atol=1e-13 * np.vdot(psi, psi).real)


@pytest.mark.parametrize("vec", ALL)
def test_gik_table_matches_quartic_oracle(vec):
    expect = gik_quartic(_unit(vec))
    assert_allclose(gik_table(vec), expect, rtol=0, atol=TOL)
    residual = np.abs(expect - _gik_target(vec.d)).max()
    assert gik_residual(vec) == pytest.approx(residual, abs=TOL)


@pytest.mark.parametrize("vec", ODD)
def test_x_overlap_deviations_match_roll_loop(vec):
    u = _unit(vec)
    d = vec.d
    s = math.sqrt(d + 1.0)
    expect = [
        abs(s * np.vdot(u, np.roll(u, (-2 * j) % d)) - u[j] ** 2 / abs(u[j]) ** 2)
        for j in range(1, d)
    ]
    assert_allclose(x_overlap_deviations(vec), expect, rtol=0, atol=TOL)


@pytest.mark.parametrize("d", [7, 45])
def test_xoverlap_objective_matches_roll_loop(d):
    rng = np.random.default_rng(800 + d)
    cfg = SearchConfig(dim=make_dimension(d), objective="xoverlap", seed=0)
    s = math.sqrt(d + 1.0)
    for _ in range(3):
        angles = rng.uniform(0.0, 2.0 * np.pi, (d - 1) // 2)
        w = to_vform(build_ansatz(d, angles)).components
        expect = sum(
            abs(np.vdot(w, np.roll(w, (-2 * j) % d)) - (s + 1.0) * w[j] ** 2) ** 2
            for j in range(1, d)
        )
        assert objective(cfg, angles) == pytest.approx(expect, rel=TOL)


@pytest.mark.parametrize("vec", ODD)
def test_naive_x_residual_matches_roll_loop(vec):
    u = _unit(vec)
    d = vec.d
    expect = max(
        abs(abs(np.vdot(u, np.roll(u, j))) ** 2 - 1.0 / (d + 1.0)) for j in range(1, d)
    )
    assert naive_x_residual(vec) == pytest.approx(expect, abs=TOL)


@pytest.mark.parametrize("d", [7, 45])
def test_sic_objective_matches_quartic_sum(d):
    rng = np.random.default_rng(900 + d)
    cfg = SearchConfig(dim=make_dimension(d), objective="sic", seed=0)
    for _ in range(3):
        angles = rng.uniform(0.0, 2.0 * np.pi, (d - 1) // 2)
        unit = _unit(to_vform(build_ansatz(d, angles)))
        expect = np.sum(np.abs(gik_quartic(unit) - _gik_target(d)) ** 2)
        assert objective(cfg, angles) == pytest.approx(expect, abs=TOL)


def test_block_reductions_match_oracle_tables():
    # d = 131 spans several row blocks of the block-wise reductions
    u = random_complex(np.random.default_rng(131), 131)
    vec = cvec(u / np.linalg.norm(u))
    dev = _sic_deviations(_oracle_overlaps(vec.components))
    report = is_sic(vec)
    assert report.max_modulus_deviation == pytest.approx(dev.max(), abs=TOL)
    assert dev[report.worst_pair] == pytest.approx(dev.max(), abs=TOL)
    residual = np.abs(gik_quartic(vec.components) - _gik_target(131)).max()
    assert report.gik_max_deviation == pytest.approx(residual, abs=TOL)


@pytest.mark.parametrize("sign", [+1, -1])
def test_d499_legendre_is_sic_check(sign):
    d = 499
    psi = to_normalized(build_legendre_vector(d, sign).ansatz)
    start = time.perf_counter()
    report = is_sic(psi)
    elapsed = time.perf_counter() - start
    assert not report.is_sic
    assert report.max_modulus_deviation > 1e-3
    assert x_overlap_residual(psi) < 1e-9 * d
    assert elapsed < 2.0


def test_lemma1_deviation_matches_roll_loop():
    for p, got in lemma1_sweep(43).tolist():
        p = int(p)
        expect = 0.0
        for sign in (+1, -1):
            vec = build_legendre_vector(p, sign)
            w = to_vform(vec.ansatz).components
            for j in range(1, p):
                closed = lemma1_closed_form(p, vec.x1, legendre_symbol(j, p) == 1)
                expect = max(expect, abs(np.vdot(w, np.roll(w, (-2 * j) % p)) - closed))
        assert got == pytest.approx(expect, abs=TOL)
        assert got < 1e-9


def test_perron_sweep_covers_every_shift():
    primes = [3, 7, 11, 19, 23]
    tables = [perron_table(p) for p in primes]
    for p, table in zip(primes, tables):
        assert table.tolist() == [perron_enumeration(p, a) for a in range(1, p)]
    assert perron_sweep(23).tobytes() == np.concatenate(tables).tobytes()
