"""Dense float64 primitives shared by every other module, plus the atomic
file write every output goes through and the error wrapper of the JSON loaders.

Vectors are 1-D ``numpy.float64`` arrays, matrices 2-D row-major. All
numeric operations are pure functions; random state is carried explicitly by a
``numpy.random.Generator`` seeded with PCG64 (numpy's ``default_rng``),
which produces the same stream on every platform for a given seed.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# l2_normalize refuses inputs whose norm falls below this floor: emitting
# denormal-scaled garbage would poison every downstream cosine.
NORM_FLOOR = 1e-30


def make_rng(seed: int | np.random.SeedSequence) -> np.random.Generator:
    """Return the package-standard PRNG (PCG64) for the given seed or seed sequence."""
    return np.random.default_rng(seed)


def as_vector(values, name: str = "vector") -> np.ndarray:
    """Validate and convert to a finite 1-D float64 array."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {v.shape}")
    if v.size == 0:
        raise ValueError(f"{name} must have dimension > 0")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    return v


def as_matrix(values, name: str = "matrix") -> np.ndarray:
    """Validate and convert to a finite 2-D float64 array."""
    m = np.asarray(values, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"{name} must have positive dimensions, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def _checked_pair(a, b) -> tuple[np.ndarray, np.ndarray, float, float]:
    a = as_vector(a, "a")
    b = as_vector(b, "b")
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na < NORM_FLOOR or nb < NORM_FLOOR:
        raise ValueError("cosine undefined for zero-norm input")
    return a, b, na, nb


def cosine_similarity(a, b) -> float:
    """Cosine of the angle between two vectors, in [-1, 1]."""
    a, b, na, nb = _checked_pair(a, b)
    return float(np.dot(a, b) / (na * nb))


def cosine_similarity_grad(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Analytic partials of cosine_similarity with respect to each argument.

    d/da cos(a, b) = (b/|b| - cos * a/|a|) / |a|, symmetrically for b.
    """
    a, b, na, nb = _checked_pair(a, b)
    cos = float(np.dot(a, b) / (na * nb))
    ua = a / na
    ub = b / nb
    da = (ub - cos * ua) / na
    db = (ua - cos * ub) / nb
    return da, db


def l2_normalize(v) -> np.ndarray:
    """Scale a vector to unit L2 norm, preserving direction."""
    v = as_vector(v, "v")
    n = float(np.linalg.norm(v))
    if n < NORM_FLOOR:
        raise ValueError(f"cannot normalize: norm {n} below floor {NORM_FLOOR}")
    return v / n


def seeded_init(rng: np.random.Generator, rows: int, cols: int, scale: float) -> np.ndarray:
    """Matrix with entries drawn uniformly from [-scale, +scale]."""
    if rows < 1 or cols < 1:
        raise ValueError(f"rows and cols must be positive, got {rows}x{cols}")
    return (rng.random((rows, cols)) * 2.0 - 1.0) * scale


@contextmanager
def _atomic_open(path: str | Path):
    """Text handle on a temporary file beside ``path`` that replaces ``path`` in
    one ``os.replace`` when the block exits cleanly and is removed when it raises,
    so readers see the old file or the whole new one, never a partial write."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@contextmanager
def _reading(path: str | Path):
    """Yield the JSON object ``path`` holds. A document that is not an object,
    and malformed JSON, a missing key or a value of the wrong type met inside
    the block, raise a ``ValueError`` that names ``path`` (and the line, for JSON)."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(doc, dict):
            raise ValueError(f"{path}: expected a JSON object, got {type(doc).__name__}")
        yield doc
    except json.JSONDecodeError as err:
        raise ValueError(f"{path}:{err.lineno}: malformed JSON ({err.msg})") from err
    except KeyError as err:
        raise ValueError(f"{path}: missing key {err.args[0]!r}") from err
    except (TypeError, AttributeError) as err:  # e.g. an array where an object belongs
        raise ValueError(f"{path}: malformed entry ({err})") from err
