"""JSON interchange for vectors.

Schema: {"d": int, "form": "normalized"|"v-form"|"rescaled",
"components": [[re, im], ...], "metadata": {"label": ..., "source": ...}}
with metadata optional.  The loader decodes the JSON and checks its shape;
CVec checks the form invariants and names the one a vector breaks.
"""

from __future__ import annotations

import json

import numpy as np

from .weyl import _PRIMALITY_LIMIT, CVec, VectorFileError, make_dimension

__all__ = ["VectorFileError", "parse_vector_file", "dump_vector"]


def parse_vector_file(text: str) -> CVec:
    """Parse a vector file; returns a CVec with its form tag."""
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise VectorFileError(f"malformed JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise VectorFileError("expected a JSON object at top level")
    for key in ("d", "form", "components"):
        if key not in obj:
            raise VectorFileError(f"missing required key {key!r}")
    d = obj["d"]
    # the upper bound is make_dimension's; no file holds that many components
    if not isinstance(d, int) or not 2 <= d <= _PRIMALITY_LIMIT:
        raise VectorFileError(f"d must be an integer in [2, {_PRIMALITY_LIMIT}], got {d!r}")
    comps = obj["components"]
    if not isinstance(comps, list):
        raise VectorFileError("components must be a list of [re, im] pairs")
    values = []
    for i, pair in enumerate(comps):
        # the JSON decoder yields exact ints and floats, never a bool subclass
        if not (
            isinstance(pair, list)
            and len(pair) == 2
            and type(pair[0]) in (int, float)
            and type(pair[1]) in (int, float)
        ):
            raise VectorFileError(f"component {i} is not a [re, im] number pair")
        try:
            values.append(complex(pair[0], pair[1]))
        except OverflowError:  # an integer beyond the float range
            values.append(complex(np.inf))
    return CVec(make_dimension(d), np.asarray(values, dtype=np.complex128), obj["form"])


def dump_vector(vec: CVec, label: str | None = None, source: str | None = None) -> str:
    """Serialize a CVec; component floats round-trip exactly."""
    obj: dict = {
        "d": vec.dim.d,
        "form": vec.form,
        "components": vec.components.view(np.float64).reshape(-1, 2).tolist(),
    }
    metadata = {}
    if label is not None:
        metadata["label"] = label
    if source is not None:
        metadata["source"] = source
    if metadata:
        obj["metadata"] = metadata
    return json.dumps(obj)
