"""The text artifact formats, and the one place where their text becomes typed values.

A matrix file (distribution, histogram, response, map) is a ``# key=value ...``
header line over comma-separated rows; a mapping file (config, summary,
timings) holds one ``key=value`` a line, skipping blank and ``#``
lines.  ``fmt`` writes numbers so that they round-trip exactly.  Readers
convert every field through ``typed_fields``, by type: ``int``, ``float`` or
``float_list``.  A bad header, a repeated key, a missing field, a value its
type rejects or a non-numeric matrix entry raises ValidationError naming the
artifact, so the parsers built on these helpers catch nothing.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError


def fmt(value) -> str:
    """Render a number, or a 1-d array as a comma list, so that it round-trips exactly."""
    if isinstance(value, np.ndarray):
        return ",".join(fmt(v) for v in value)
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def float_list(text: str) -> np.ndarray:
    """Read back ``fmt`` of a 1-d float array: a comma list of numbers."""
    return np.array([float(v) for v in text.split(",")])


def typed_fields(artifact: str, pairs: dict, types: dict, optional=()) -> dict:
    """Convert ``pairs[name]`` by ``types[name]`` for every name in ``types``.

    Names in ``optional`` may be absent and are then left out of the result.
    Any other missing name, or a value its type rejects, raises
    ValidationError naming the artifact and the field.
    """
    out = {}
    for name, kind in types.items():
        if name not in pairs:
            if name in optional:
                continue
            raise ValidationError(f"{artifact} lacks {name!r}")
        try:
            out[name] = kind(pairs[name])
        except ValueError:
            raise ValidationError(
                f"{artifact} has {name}={pairs[name]!r}, not a valid {kind.__name__}"
            ) from None
    return out


def format_matrix(header: dict, matrix: np.ndarray) -> str:
    fields = " ".join(f"{k}={fmt(v)}" for k, v in header.items())
    lines = [f"# {fields}"]
    for row in np.atleast_2d(matrix):
        lines.append(",".join(fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def parse_matrix(text: str, artifact: str, header_types: dict) -> tuple[dict, np.ndarray]:
    """Typed header fields and the float matrix of a matrix file."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("#"):
        raise ValidationError(f"{artifact} file must start with a '# key=value ...' header")
    header = typed_fields(artifact, _parse_pairs(artifact, lines[0][1:].split()), header_types)
    rows = []
    for i, ln in enumerate(lines[1:], 1):
        try:
            rows.append(float_list(ln))
        except ValueError as exc:
            raise ValidationError(f"{artifact} matrix row {i}: {exc}") from None
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise ValidationError(f"{artifact} matrix rows are missing or ragged")
    return header, np.asarray(rows, dtype=float)


def format_mapping(pairs: dict) -> str:
    return "".join(f"{k}={fmt(v) if not isinstance(v, str) else v}\n" for k, v in pairs.items())


def parse_mapping(text: str, artifact: str) -> dict:
    """Raw ``key -> value`` strings of a mapping file, for ``typed_fields``."""
    lines = (ln.strip() for ln in text.splitlines())
    return _parse_pairs(artifact, (ln for ln in lines if ln and not ln.startswith("#")))


def _parse_pairs(artifact: str, items) -> dict:
    out = {}
    for item in items:
        if "=" not in item:
            raise ValidationError(f"{artifact} expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        key = key.strip()
        if key in out:
            raise ValidationError(f"{artifact} repeats {key!r}")
        out[key] = value.strip()
    return out
