"""Vector file schema: parsing, invariant checks, round-trips."""

import json
import math

import numpy as np
import pytest
from helpers import (
    ZERO_D3_RESCALED,
    d7_solution,
    normalize_rescaled,
    random_complex,
    rescaled_d7_text,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from flatsic import (
    FORMS,
    CVec,
    VectorFileError,
    build_legendre_vector,
    cvec,
    dump_vector,
    gik_residual,
    is_sic,
    naive_x_residual,
    parse_vector_file,
    to_rescaled,
    to_vform,
    x_overlap_deviations,
    z_overlap_residual,
)


def file_text(d, form, components, metadata=None):
    obj = {"d": d, "form": form, "components": components}
    if metadata:
        obj["metadata"] = metadata
    return json.dumps(obj)


class TestParse:
    def test_d3_example(self):
        text = file_text(
            3, "normalized", [[0, 0], [0.7071067812, 0], [-0.7071067812, 0]]
        )
        vec = parse_vector_file(text)
        assert vec.dim.d == 3
        assert vec.form == "normalized"
        assert abs(np.linalg.norm(vec.components) - 1.0) < 1e-9

    def test_length_mismatch(self):
        text = file_text(7, "normalized", [[1.0, 0.0]] * 5)
        with pytest.raises(VectorFileError, match="components-length"):
            parse_vector_file(text)

    def test_norm_violation(self):
        text = file_text(2, "normalized", [[2.0, 0.0], [0.0, 0.0]])
        with pytest.raises(VectorFileError, match="normalized-norm"):
            parse_vector_file(text)

    def test_malformed_json(self):
        with pytest.raises(VectorFileError, match="malformed JSON"):
            parse_vector_file("{oops")

    def test_missing_keys(self):
        with pytest.raises(VectorFileError, match="missing required key"):
            parse_vector_file(json.dumps({"d": 3, "form": "normalized"}))

    def test_bad_component_pair(self):
        text = file_text(2, "normalized", [[1.0, 0.0], [0.0]])
        with pytest.raises(VectorFileError, match="number pair"):
            parse_vector_file(text)

    @pytest.mark.parametrize(
        "components",
        [[[True, False], [False, False]], [[1.0, False], [0.0, 0.0]], [[1.0, 0.0], [True, 0.0]]],
    )
    def test_boolean_component(self, components):
        with pytest.raises(VectorFileError, match="number pair"):
            parse_vector_file(file_text(2, "normalized", components))

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity", "1" + "0" * 400])
    def test_non_finite_component(self, bad):
        text = (
            '{"d": 3, "form": "normalized", "components": '
            f'[[0.0, {bad}], [0.7071067812, 0.0], [-0.7071067812, 0.0]]}}'
        )
        with pytest.raises(VectorFileError, match="finite-components") as info:
            parse_vector_file(text)
        assert info.value.invariant == "finite-components"

    def test_unknown_form(self):
        text = file_text(2, "flat", [[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(VectorFileError, match="form"):
            parse_vector_file(text)

    def test_vform_moduli_checked(self):
        bad = file_text(3, "v-form", [[0.0, 2.0], [0.5, 0.0], [-0.5, 0.0]])
        with pytest.raises(VectorFileError, match="vform-unit-moduli"):
            parse_vector_file(bad)

    def test_rescaled_quadratic_checked(self):
        arr = d7_solution(-1)
        comps = [[z.real, z.imag] for z in arr]
        comps[0] = [-3.0, 0.0]  # wrong x0
        with pytest.raises(VectorFileError, match="rescaled-x0-quadratic"):
            parse_vector_file(file_text(7, "rescaled", comps))

    def test_rescaled_moduli_checked(self):
        arr = d7_solution(-1).copy()
        arr[3] *= 1.5
        comps = [[z.real, z.imag] for z in arr]
        with pytest.raises(VectorFileError, match="rescaled-moduli"):
            parse_vector_file(file_text(7, "rescaled", comps))


class TestLoadedMeansAccepted:
    """Every file that loads is accepted by every kernel: the rescaled first
    component is checked once, with one slack, on load and on conversion."""

    def test_x0_within_slack_is_accepted_everywhere(self):
        vec = parse_vector_file(rescaled_d7_text(0.5))
        assert z_overlap_residual(vec) < 1e-9
        assert np.max(x_overlap_deviations(vec)) < 1e-9
        for kernel in (is_sic, gik_residual, naive_x_residual):
            kernel(vec)

    def test_x0_beyond_slack_is_rejected_at_load(self):
        with pytest.raises(VectorFileError, match="rescaled-x0-real") as info:
            parse_vector_file(rescaled_d7_text(2.0))
        assert info.value.invariant == "rescaled-x0-real"

    def test_zero_x0_is_rejected_at_load(self):
        with pytest.raises(VectorFileError, match="rescaled-x0-nonzero") as info:
            parse_vector_file(ZERO_D3_RESCALED)
        assert info.value.invariant == "rescaled-x0-nonzero"


class TestRoundTrip:
    def test_normalized_exact(self):
        psi = normalize_rescaled(d7_solution(+1))
        back = parse_vector_file(dump_vector(psi))
        assert back.form == "normalized"
        assert_allclose(back.components, psi.components, rtol=0, atol=0)

    def test_vform_and_rescaled(self):
        av = build_legendre_vector(11, -1).ansatz
        for vec in (to_vform(av), to_rescaled(av)):
            back = parse_vector_file(dump_vector(vec))
            assert back.form == vec.form
            assert_allclose(back.components, vec.components, rtol=0, atol=0)

    def test_metadata_optional(self):
        psi = normalize_rescaled(d7_solution(+1))
        text = dump_vector(psi, label="x", source="y")
        obj = json.loads(text)
        assert obj["metadata"] == {"label": "x", "source": "y"}
        plain = json.loads(dump_vector(psi))
        assert "metadata" not in plain


#: The names a VectorFileError from building a vector may carry.
_INVARIANTS = {
    "known-form",
    "components-length",
    "finite-components",
    "normalized-norm",
    "vform-unit-moduli",
    "vform-first-component",
    "rescaled-x0-real",
    "rescaled-x0-nonzero",
    "rescaled-x0-quadratic",
    "rescaled-moduli",
}

_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def _valid_components(rng, d: int, form: str) -> np.ndarray:
    """Components valid for form, built here from the definitions in FORMS."""
    phases = np.exp(2j * np.pi * rng.uniform(size=d - 1))
    if form == "normalized":
        v = random_complex(rng, d)
        return v / np.linalg.norm(v)
    x0 = -2.0 + rng.choice([-1.0, 1.0] if d > 3 else [-1.0]) * math.sqrt(d + 1.0)  # d = 3 ghost: 0
    if form == "v-form":
        first = rng.choice([1.0, 1j]) * math.sqrt(abs(x0))
        return np.concatenate(([first], phases))
    return np.concatenate(([x0], math.sqrt(abs(x0)) * phases))


@st.composite
def _arrays(draw):
    """(components, form): valid components for some form, perhaps perturbed,
    perhaps tagged with another form, or arbitrary complex numbers."""
    d = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    built_for = draw(st.sampled_from((*FORMS, None)))
    if built_for is None:
        numbers = st.complex_numbers(allow_nan=True, allow_infinity=True)
        arr = np.array(draw(st.lists(numbers, min_size=d, max_size=d)), dtype=complex)
    else:
        arr = _valid_components(rng, d, built_for)
        scale = draw(st.sampled_from([0.0, 1e-12, 1e-8, 1e-5, 1e-2]))
        start = draw(st.integers(0, 1))  # 1 keeps component 0 exact
        arr[start:] += scale * random_complex(rng, d - start)
    form = draw(st.sampled_from((*FORMS, "flat"))) if draw(st.booleans()) else built_for
    return arr, form or "normalized"


class TestEveryBuiltVectorLoads:
    @_SETTINGS
    @given(case=_arrays())
    def test_built_means_loadable(self, case):
        arr, form = case
        try:
            vec = cvec(arr, form)
        except VectorFileError as exc:
            assert exc.invariant in _INVARIANTS
            return
        back = parse_vector_file(dump_vector(vec))
        assert back.form == vec.form
        assert_array_equal(back.components, vec.components)

    def test_built_means_loadable_reaches_both_outcomes(self):
        seen = set()

        @_SETTINGS
        @given(case=_arrays())
        def record(case):
            try:
                seen.add(cvec(*case).form)
            except VectorFileError as exc:
                seen.add(exc.invariant)

        record()
        assert set(FORMS) <= seen
        assert {"known-form", "finite-components", "normalized-norm"} <= seen
        assert {"vform-unit-moduli", "rescaled-x0-quadratic", "rescaled-moduli"} <= seen


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


@st.composite
def _files(draw):
    """Vector file text: a valid file whose keys and component pairs may be
    dropped or replaced by arbitrary JSON values or number pairs, or
    arbitrary JSON."""
    if draw(st.integers(0, 9)) == 0:
        return json.dumps(draw(_JSON_VALUES))
    d = draw(st.integers(2, 6))
    form = draw(st.sampled_from(FORMS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    obj = json.loads(dump_vector(cvec(_valid_components(rng, d, form), form), label="x"))
    numbers = st.integers() | st.floats()
    for i in range(d):
        change = draw(st.integers(0, 3))
        if change == 0:
            obj["components"][i] = draw(_JSON_VALUES)
        elif change == 1:
            obj["components"][i] = [draw(numbers), draw(numbers)]
    for key in ("d", "form", "components", "metadata"):
        action = draw(st.sampled_from(["keep", "keep", "drop", "replace"]))
        if action == "drop":
            del obj[key]
        elif action == "replace":
            obj[key] = draw(_JSON_VALUES)
    return json.dumps(obj)


class TestLoaderFuzz:
    @_SETTINGS
    @given(text=_files())
    def test_loader_raises_only_vector_file_errors(self, text):
        try:
            vec = parse_vector_file(text)
        except VectorFileError:
            return
        assert isinstance(vec, CVec)

    @pytest.mark.parametrize(
        "form, first, invariant",
        [
            ("v-form", [1e200, 1e200], "vform-first-component"),
            ("v-form", [1e308, 1e308], "vform-first-component"),
            ("rescaled", [1e200, 0.0], "rescaled-x0-quadratic"),
        ],
    )
    def test_huge_first_component(self, form, first, invariant):
        text = file_text(3, form, [first, [1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(VectorFileError, match=invariant):
            parse_vector_file(text)

    def test_huge_real_vform_first_component_is_valid(self):
        # the v-form fixes only the phase of component 0
        vec = parse_vector_file(file_text(3, "v-form", [[1e200, 0.0], [1.0, 0.0], [1.0, 0.0]]))
        assert vec.components[0] == 1e200

    def test_huge_d(self):
        text = file_text(10**13, "normalized", [[1.0, 0.0]])
        with pytest.raises(VectorFileError, match="d must be an integer"):
            parse_vector_file(text)

    def test_deeply_nested(self):
        with pytest.raises(VectorFileError, match="malformed JSON"):
            parse_vector_file("[" * 100_000 + "]" * 100_000)
