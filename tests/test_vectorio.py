"""Vector file schema: parsing, invariant checks, round-trips."""

import json
import math

import numpy as np
import pytest
from helpers import ZERO_D3_RESCALED, d7_solution, normalize_rescaled, rescaled_d7_text
from numpy.testing import assert_allclose

from flatsic import (
    VectorFileError,
    build_legendre_vector,
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
