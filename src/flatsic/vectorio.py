"""JSON interchange for vectors.

Schema: {"d": int, "form": "normalized"|"v-form"|"rescaled",
"components": [[re, im], ...], "metadata": {"label": ..., "source": ...}}
with metadata optional.  Form-specific invariants are checked on load and
violations are reported with the failing invariant's name.
"""

from __future__ import annotations

import json

import numpy as np

from .weyl import FORMS, CVec, cvec

__all__ = ["VectorFileError", "parse_vector_file", "dump_vector"]

#: Slack for the v-form and rescaled invariants, on load and (for the
#: rescaled first component) on conversion; user files carry limited digits.
#: Normalized vectors are held to the package-wide norm tolerance by CVec.
_LOAD_TOL = 1e-6


class VectorFileError(ValueError):
    """Raised for malformed vector files and for vectors that break a form
    invariant."""

    def __init__(self, message: str, invariant: str | None = None):
        if invariant:
            message = f"{message} [invariant: {invariant}]"
        super().__init__(message)
        self.invariant = invariant


def parse_vector_file(text: str) -> CVec:
    """Parse and validate a vector file; returns a CVec with its form tag."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise VectorFileError(f"malformed JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise VectorFileError("expected a JSON object at top level")
    for key in ("d", "form", "components"):
        if key not in obj:
            raise VectorFileError(f"missing required key {key!r}")
    d = obj["d"]
    if not isinstance(d, int) or d < 2:
        raise VectorFileError(f"d must be an integer >= 2, got {d!r}")
    form = obj["form"]
    if form not in FORMS:
        raise VectorFileError(f"form must be one of {FORMS}, got {form!r}")
    comps = obj["components"]
    if not isinstance(comps, list):
        raise VectorFileError("components must be a list of [re, im] pairs")
    if len(comps) != d:
        raise VectorFileError(
            f"expected {d} components, found {len(comps)}", invariant="components-length"
        )
    values = []
    for i, pair in enumerate(comps):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in pair)
        ):
            raise VectorFileError(f"component {i} is not a [re, im] number pair")
        try:
            values.append(complex(pair[0], pair[1]))
        except OverflowError:  # an integer beyond the float range
            values.append(complex(np.inf))
    arr = np.asarray(values, dtype=np.complex128)
    finite = np.isfinite(arr)
    if not finite.all():
        i = int(np.argmin(finite))
        raise VectorFileError(f"component {i} is not finite", invariant="finite-components")
    _check_form(d, form, arr)
    try:
        return cvec(arr, form)
    except ValueError as exc:  # the unit norm that CVec checks for the normalized form
        raise VectorFileError(str(exc), invariant="normalized-norm") from exc


def _check_form(d: int, form: str, arr: np.ndarray) -> None:
    if form == "v-form":
        moduli = np.abs(arr[1:])
        if np.any(np.abs(moduli - 1.0) > _LOAD_TOL):
            raise VectorFileError(
                "v-form phases must have unit modulus", invariant="vform-unit-moduli"
            )
        c0 = complex(arr[0])
        if abs(c0.real * c0.imag) > _LOAD_TOL * (1.0 + abs(c0) ** 2):
            raise VectorFileError(
                "v-form first component must be purely real or purely imaginary",
                invariant="vform-first-component",
            )
    elif form == "rescaled":
        x0 = _rescaled_x0(arr[0])
        if abs((x0 + 2.0) ** 2 - (d + 1.0)) > _LOAD_TOL * (d + 1.0):
            raise VectorFileError(
                f"rescaled first component {x0:.6g} does not satisfy "
                f"(x0+2)^2 = d+1 = {d + 1}",
                invariant="rescaled-x0-quadratic",
            )
        if np.any(np.abs(np.abs(arr[1:]) ** 2 - abs(x0)) > _LOAD_TOL * (1.0 + abs(x0))):
            raise VectorFileError(
                "rescaled components must have squared modulus |x0|",
                invariant="rescaled-moduli",
            )


def _rescaled_x0(c0: complex) -> float:
    """x0 = Re c0 for the first component c0 of a rescaled vector, on load and
    on conversion alike: c0 must be real within _LOAD_TOL * (1 + |c0|) and
    nonzero, since the conversion divides by sqrt(x0)."""
    c0 = complex(c0)
    if abs(c0.imag) > _LOAD_TOL * (1.0 + abs(c0)):
        raise VectorFileError(
            f"rescaled first component must be real, got {c0!r}", invariant="rescaled-x0-real"
        )
    if c0.real == 0.0:
        raise VectorFileError(
            "rescaled first component must be nonzero", invariant="rescaled-x0-nonzero"
        )
    return c0.real


def dump_vector(vec: CVec, label: str | None = None, source: str | None = None) -> str:
    """Serialize a CVec; component floats round-trip exactly."""
    obj: dict = {
        "d": vec.dim.d,
        "form": vec.form,
        "components": [[float(z.real), float(z.imag)] for z in vec.components],
    }
    metadata = {}
    if label is not None:
        metadata["label"] = label
    if source is not None:
        metadata["source"] = source
    if metadata:
        obj["metadata"] = metadata
    return json.dumps(obj)
