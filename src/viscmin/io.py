"""Deterministic JSON/CSV emission and checkpoint files.

Floats are always written with %.17g so every value round-trips exactly
and two runs with the same inputs produce byte-identical files.  The JSON
writer is a small recursive formatter rather than json.dump because the
stdlib encoder offers no hook for float formatting; reading uses the
stdlib parser.
"""

import json
import os

import numpy as np

from .errors import ParseError, ResolutionTooLow, ShapeMismatch
from .surface import SampledImmersion, Variation


def fmt_float(x):
    """%.17g, with negative zero normalized away."""
    x = float(x)
    if x == 0.0:
        x = 0.0
    return "%.17g" % x


def _emit(obj, parts, indent):
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        parts.append("{\n")
        for i, (k, v) in enumerate(obj.items()):
            parts.append(f'{pad}  {json.dumps(str(k))}: ')
            _emit(v, parts, indent + 1)
            parts.append(",\n" if i < len(obj) - 1 else "\n")
        parts.append(pad + "}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else list(obj)
        if not seq:
            parts.append("[]")
            return
        # scalar rows stay on one line, nested structures get their own
        flat = all(not isinstance(v, (dict, list, tuple, np.ndarray))
                   for v in seq)
        if flat:
            parts.append("[")
            for i, v in enumerate(seq):
                _emit(v, parts, indent)
                if i < len(seq) - 1:
                    parts.append(", ")
            parts.append("]")
        else:
            parts.append("[\n")
            for i, v in enumerate(seq):
                parts.append(pad + "  ")
                _emit(v, parts, indent + 1)
                parts.append(",\n" if i < len(seq) - 1 else "\n")
            parts.append(pad + "]")
    elif isinstance(obj, bool) or obj is None:
        parts.append("true" if obj is True else
                     "false" if obj is False else "null")
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        parts.append(fmt_float(obj))
    elif isinstance(obj, complex):
        _emit({"re": obj.real, "im": obj.imag}, parts, indent)
    else:
        parts.append(json.dumps(str(obj)))


def dumps_json(obj):
    parts = []
    _emit(obj, parts, 0)
    parts.append("\n")
    return "".join(parts)


def write_json(path, obj):
    with open(path, "w") as fh:
        fh.write(dumps_json(obj))


def read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(os.path.basename(path), f"invalid JSON: {exc}")


def dumps_csv(header, rows):
    """CSV text with %.17g floats; header is a list of column names."""
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, (float, np.floating)):
                cells.append(fmt_float(v))
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(dumps_csv(header, rows))


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def immersion_checkpoint(immersion):
    """Checkpoint dict: topology, ambient, basis, packed coeffs, marked
    points (the marked points ride along at top level as well for easy
    inspection)."""
    d = immersion.to_dict()
    return {
        "topology": d["topology"],
        "ambient": d["ambient"],
        "basis": d["basis"],
        "coeffs": d["coeffs"],
        "marked_points": d["topology"]["marked_points"],
    }


def save_immersion(path, immersion):
    write_json(path, immersion_checkpoint(immersion))


def load_immersion(path):
    data = read_json(path)
    if not isinstance(data, dict):
        raise ParseError(os.path.basename(path),
                         "immersion checkpoint must be a JSON object")
    if "topology" not in data and isinstance(data.get("immersion"), dict):
        # continuation stage files nest the checkpoint under "immersion"
        data = data["immersion"]
    for key in ("topology", "ambient", "basis", "coeffs"):
        if key not in data:
            raise ParseError(key, f"immersion checkpoint is missing '{key}'")
    try:
        return SampledImmersion.from_dict(data)
    except (TypeError, KeyError, ValueError, ShapeMismatch,
            ResolutionTooLow) as exc:
        raise ParseError(os.path.basename(path),
                         f"malformed immersion checkpoint: {exc!r}") from exc


def save_variation(path, variation):
    write_json(path, {"samples": variation.values})


def load_variation(path, immersion):
    """Variation from a file's grid samples; samples that parse but do not
    fit the immersion's grid stay a ShapeMismatch."""
    data = read_json(path)
    if not isinstance(data, dict):
        raise ParseError(os.path.basename(path),
                         "variation file must be a JSON object")
    if "samples" not in data:
        raise ParseError("samples", "variation file is missing 'samples'")
    try:
        samples = np.asarray(data["samples"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(
            "samples", f"samples must be an array of numbers: {exc}") from exc
    return Variation(immersion, samples=samples)
