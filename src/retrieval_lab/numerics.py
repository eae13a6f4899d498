"""Dense float64 primitives shared by every other module, plus the atomic file
write and the JSON-document writer every output goes through, and the error
wrapper of the JSON loaders.

Vectors are 1-D ``numpy.float64`` arrays, matrices 2-D row-major. All
numeric operations are pure functions; random state is carried explicitly by a
``numpy.random.Generator`` seeded with PCG64 (numpy's ``default_rng``),
which produces the same stream on every platform for a given seed.

This module owns the vector contract every other module checks through:
``as_vector``/``as_matrix`` for shape, width and finiteness, ``row_norms``
for a norm that can be divided by (in ``[NORM_FLOOR, inf)``), and
``check_unit`` for rows that must already have unit norm.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# row_norms refuses a norm below this floor, or one that is not finite:
# dividing by it would emit denormal-scaled garbage, or zeros where the norm
# overflows, and poison every downstream cosine.
NORM_FLOOR = 1e-30
# check_unit's tolerance on |norm - 1|.
_UNIT_TOL = 1e-9


def make_rng(seed: int | np.random.SeedSequence) -> np.random.Generator:
    """Return the package-standard PRNG (PCG64) for the given seed or seed sequence."""
    return np.random.default_rng(seed)


def as_vector(values, name: str = "vector", dim: int | None = None) -> np.ndarray:
    """Validate and convert to a finite 1-D float64 array of ``dim`` entries
    (any positive number when None)."""
    return _checked(np.asarray(values, dtype=np.float64), 1, name, dim)


def as_matrix(values, name: str = "matrix", dim: int | None = None) -> np.ndarray:
    """Validate and convert a matrix or a list of vectors to a finite 2-D float64
    array of ``dim`` columns (any positive number when None). It may have no
    rows: an empty list becomes ``(0, dim)`` when ``dim`` is given."""
    try:
        a = np.asarray(values, dtype=np.float64)
    except ValueError:
        if len({np.shape(row) for row in values}) < 2:
            raise
        raise ValueError(f"{name} holds vectors of unequal dimension") from None
    if a.shape == (0,) and dim is not None:
        a = a.reshape(0, dim)
    return _checked(a, 2, name, dim)


def _checked(a: np.ndarray, ndim: int, name: str, dim: int | None) -> np.ndarray:
    if a.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-D, got shape {a.shape}")
    width = a.shape[-1]
    if width == 0:
        raise ValueError(f"{name} must have dimension > 0")
    if dim is not None and width != dim:
        raise ValueError(f"{name} has dimension {width}, expected {dim}")
    if not np.all(np.isfinite(a)):
        row = f"[{np.flatnonzero(~np.isfinite(a).all(axis=1))[0]}]" if ndim == 2 else ""
        raise ValueError(f"{name}{row} contains non-finite entries")
    return a


def _norms(m: np.ndarray) -> np.ndarray:
    """Each row's L2 norm. (n, 1, d) @ (n, d, 1): matmul takes each row's
    vector-vector product with the dot that ``row @ row`` uses, in one call."""
    return np.sqrt(np.matmul(m[:, None, :], m[:, :, None])[:, 0, 0])


def row_norms(m: np.ndarray, what: str) -> np.ndarray:
    """Each row's L2 norm, raising unless every one can be divided by: in
    ``[NORM_FLOOR, inf)``. A finite row whose norm overflows would otherwise
    divide to zeros. ``what`` names the rows in the message."""
    norms = _norms(m)
    bad = ~((norms >= NORM_FLOOR) & (norms < np.inf))  # NaN fails both comparisons
    if bad.any():
        raise ValueError(f"cannot normalize: {what} norm {norms[bad][0]} outside [{NORM_FLOOR}, inf)")
    return norms


def check_unit(m: np.ndarray, row_name) -> None:
    """Raise for the first row of ``m`` that is non-finite or not of unit norm
    (within ``_UNIT_TOL``); ``row_name(i)`` names row ``i`` in the message."""
    norms = _norms(m)
    bad = np.flatnonzero(~(np.abs(norms - 1.0) <= _UNIT_TOL))
    if bad.size:
        i = int(bad[0])
        if not np.all(np.isfinite(m[i])):
            raise ValueError(f"{row_name(i)} contains non-finite entries")
        raise ValueError(f"{row_name(i)} must be unit norm, got |v| = {norms[i]}")


def _checked_pair(a, b) -> tuple[np.ndarray, np.ndarray, float, float]:
    a = as_vector(a, "a")
    b = as_vector(b, "b")
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    na, nb = row_norms(np.stack([a, b]), "input")
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


def seeded_init(rng: np.random.Generator, rows: int, cols: int, scale: float) -> np.ndarray:
    """Matrix with entries drawn uniformly from [-scale, +scale]."""
    if rows < 1 or cols < 1:
        raise ValueError(f"rows and cols must be positive, got {rows}x{cols}")
    return (rng.random((rows, cols)) * 2.0 - 1.0) * scale


@contextmanager
def _atomic_open(path: str | Path, binary: bool = False):
    """Text (or ``binary``) handle on a temporary file beside ``path`` that replaces
    ``path`` in one ``os.replace`` when the block exits cleanly and is removed when
    it raises, so readers see the old file or the whole new one, never a partial write."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") if binary else open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_json(path: str | Path, doc) -> None:
    """Write ``doc`` atomically as one JSON document: sorted keys, indent 2, final newline."""
    with _atomic_open(path) as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


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
