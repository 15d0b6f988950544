"""On-disk formats.

All binary formats are little-endian. Frame-indexed matrices share one header
layout: 4-byte magic, u32 row count L, u32 column count D, f32 frame period in
seconds (FRAME_PERIOD; 0.0 for vector sets), followed by the payload row-major.

    AFS1  acoustic frames, L x D float32
    VPS1  voice posteriors, L x 1 float32
    FWT1  frame weights,    L x 1 float32 (renormalized to sum 1 on read)

Model files (GMM1, TVM1, PLD1, PRE1) store float64 tensors after a small
dimension header; EMB1 stores a self-describing named-tensor table in float32.
Every reader parses its file through one bounded cursor, so a malformed file
raises FormatError and no header can make it allocate more than the file holds.
Vector sets travel as an AFS1 matrix (one vector per row) plus a text sidecar
with one id per line.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import EmptyInputError, FormatError


FRAME_PERIOD = 0.01
"""Seconds between frames: the period every AFS1, VPS1 and FWT1 writer
puts in the header. Vector sets, whose rows are not frames, carry 0.0."""


class _Cursor:
    """A file's bytes, parsed front to back after its 4-byte magic. Each read
    first checks that the bytes it needs are left."""

    def __init__(self, path, magic: bytes):
        with open(path, "rb") as f:
            self.buf = f.read()
        self.path, self.pos = path, 4
        if self.buf[:4] != magic:
            raise FormatError(f"{path}: expected magic {magic!r}, found {self.buf[:4]!r}")

    def _advance(self, size: int) -> int:
        if size > len(self.buf) - self.pos:
            raise FormatError(f"{self.path}: truncated file")
        self.pos += size
        return self.pos - size

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack_from(fmt, self.buf, self._advance(struct.calcsize(fmt)))

    def name(self) -> str:
        """A u16 length, then that many bytes of UTF-8."""
        (size,) = self.unpack("<H")
        try:
            return self.buf[self._advance(size):self.pos].decode()
        except UnicodeDecodeError:
            raise FormatError(f"{self.path}: a name is not UTF-8") from None

    def array(self, dtype: str, shape: tuple) -> np.ndarray:
        """A float64 copy of the next C-ordered array of `dtype` values."""
        import math  # math.prod: Python ints, so no header can overflow it
        count = math.prod(shape)
        start = self._advance(count * np.dtype(dtype).itemsize)
        return np.frombuffer(self.buf, dtype, count, start).reshape(shape).astype(np.float64)

    def end(self):
        if self.pos != len(self.buf):
            raise FormatError(f"{self.path}: trailing bytes after the payload")


def _write_frame_matrix(path, magic: bytes, data: np.ndarray, frame_period: float):
    data = np.ascontiguousarray(data, dtype="<f4")
    if data.ndim == 1:
        data = data[:, None]
    with open(path, "wb") as f:
        f.write(struct.pack("<4sIIf", magic, data.shape[0], data.shape[1], frame_period))
        f.write(data.tobytes())


def _read_frame_matrix(path, magic: bytes):
    cur = _Cursor(path, magic)
    n_rows, n_cols, period = cur.unpack("<IIf")
    data = cur.array("<f4", (n_rows, n_cols))
    cur.end()
    return data, float(period)


def write_features(path, frames: np.ndarray):
    """An (L, D) frame matrix, L >= 1."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[0] < 1:
        raise EmptyInputError(f"{path}: features need an (L, D) matrix with "
                              f"at least one frame, got shape {frames.shape}")
    _write_frame_matrix(path, b"AFS1", frames, FRAME_PERIOD)


def read_features(path) -> np.ndarray:
    """The (L, D) float64 frames of an AFS1 file."""
    frames, period = _read_frame_matrix(path, b"AFS1")
    if frames.shape[0] < 1:
        raise EmptyInputError(f"{path}: a feature file needs at least one frame")
    if not period > 0:  # written so that NaN fails too
        raise FormatError(f"{path}: frame period must be positive, found {period}")
    return frames


def write_posteriors(path, q: np.ndarray):
    q = np.clip(np.asarray(q, dtype=np.float64), 0.0, 1.0)
    _write_frame_matrix(path, b"VPS1", q, FRAME_PERIOD)


def read_posteriors(path) -> np.ndarray:
    data, _ = _read_frame_matrix(path, b"VPS1")
    if data.shape[1] != 1:
        raise FormatError(f"{path}: posterior files are single-column")
    q = data[:, 0]
    if not np.all((q >= -1e-6) & (q <= 1 + 1e-6)):  # NaN fails both
        raise FormatError(f"{path}: posteriors outside [0, 1]")
    return np.clip(q, 0.0, 1.0)


def write_frame_weights(path, w: np.ndarray):
    w = np.asarray(w, dtype=np.float64)
    if np.any(w < 0) or not np.isfinite(w).all() or w.sum() <= 0:
        raise FormatError(f"{path}: frame weights must be non-negative "
                          "with positive total mass")
    _write_frame_matrix(path, b"FWT1", w, FRAME_PERIOD)


def read_frame_weights(path) -> np.ndarray:
    data, _ = _read_frame_matrix(path, b"FWT1")
    if data.shape[1] != 1:
        raise FormatError(f"{path}: weight files are single-column")
    return _renormalized(data[:, 0], path)


def stored_frame_weights(w: np.ndarray) -> np.ndarray:
    """The weights read_frame_weights returns from a file that
    write_frame_weights made of w: rounded to float32, then renormalized."""
    return _renormalized(np.asarray(w, dtype="<f4").astype(np.float64), "exported weights")


def _renormalized(w: np.ndarray, path) -> np.ndarray:
    total = w.sum()
    if np.any(w < 0) or not np.isfinite(total) or total <= 0:
        raise FormatError(f"{path}: weights must be non-negative with positive mass")
    return w / total


# ---------------------------------------------------------------------------
# float64 model containers: magic, u32 dimensions, then each array in order

# magic -> (number of header dimensions, array shapes from those dimensions)
_F64_MODELS = {
    b"GMM1": (2, lambda c, d: [(c,), (c, d), (c, d)]),
    b"TVM1": (2, lambda cd, r: [(cd,), (cd, r), (cd,)]),
    b"PLD1": (2, lambda e, s: [(e,), (e, s), (e, e)]),
    b"PRE1": (1, lambda e: [(e,), (e, e)]),
}


def _write_f64_model(path, magic: bytes, dims, arrays):
    with open(path, "wb") as f:
        f.write(struct.pack(f"<4s{len(dims)}I", magic, *dims))
        for arr in arrays:
            f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _read_f64_model(path, magic: bytes) -> tuple:
    n_dims, shapes = _F64_MODELS[magic]
    cur = _Cursor(path, magic)
    arrays = tuple(cur.array("<f8", shape) for shape in shapes(*cur.unpack(f"<{n_dims}I")))
    cur.end()
    return arrays


def write_gmm(path, weights, means, variances):
    _write_f64_model(path, b"GMM1", np.shape(means), (weights, means, variances))


def read_gmm(path):
    return _read_f64_model(path, b"GMM1")


def write_tvm(path, mean, t_matrix, sigma):
    _write_f64_model(path, b"TVM1", np.shape(t_matrix), (mean, t_matrix, sigma))


def read_tvm(path):
    return _read_f64_model(path, b"TVM1")


def write_plda(path, mean, speaker_subspace, within_cov):
    _write_f64_model(path, b"PLD1", np.shape(speaker_subspace),
                     (mean, speaker_subspace, within_cov))


def read_plda(path):
    return _read_f64_model(path, b"PLD1")


def write_preprocessor(path, mean, whitener):
    _write_f64_model(path, b"PRE1", np.shape(mean), (mean, whitener))


def read_preprocessor(path):
    return _read_f64_model(path, b"PRE1")


# ---------------------------------------------------------------------------
# EMB1: named float32 tensor table plus integer metadata

def write_named_tensors(path, magic: bytes, meta: dict[str, int], tensors: dict[str, np.ndarray]):
    with open(path, "wb") as f:
        f.write(struct.pack("<4sI", magic, 1))
        f.write(struct.pack("<I", len(meta)))
        for key in sorted(meta):
            kb = key.encode()
            f.write(struct.pack("<H", len(kb)))
            f.write(kb)
            f.write(struct.pack("<q", int(meta[key])))
        f.write(struct.pack("<I", len(tensors)))
        for name, arr in tensors.items():
            nb = name.encode()
            # asarray, not ascontiguousarray: the latter promotes 0-d to 1-d
            arr = np.asarray(arr, dtype="<f4")
            f.write(struct.pack("<H", len(nb)))
            f.write(nb)
            f.write(struct.pack("<I", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape) if arr.ndim else b"")
            f.write(arr.tobytes(order="C"))


def read_named_tensors(path, magic: bytes):
    cur = _Cursor(path, magic)
    (version,) = cur.unpack("<I")
    if version != 1:
        raise FormatError(f"{path}: unsupported version {version}")
    (n_meta,) = cur.unpack("<I")
    meta = {}
    for _ in range(n_meta):
        key = cur.name()
        (meta[key],) = cur.unpack("<q")
    (n_tensors,) = cur.unpack("<I")
    tensors = {}
    for _ in range(n_tensors):
        name = cur.name()
        (ndim,) = cur.unpack("<I")
        if ndim > 32:  # NumPy 1.x's limit; a net's tensors have at most 2
            raise FormatError(f"{path}: tensor {name} claims {ndim} dimensions")
        tensors[name] = cur.array("<f4", cur.unpack(f"<{ndim}I"))
    cur.end()
    return meta, tensors


# ---------------------------------------------------------------------------
# text sidecars: vector sets, trial lists, score files

def text_lines(path):
    """The lines of a UTF-8 text file, newlines kept, read lazily. Bytes that
    are not UTF-8 raise FormatError naming the file."""
    try:
        with open(path, encoding="utf-8") as f:
            yield from f
    except UnicodeDecodeError:
        raise FormatError(f"{path}: not UTF-8 text") from None


def write_vector_set(path_prefix, ids, vectors: np.ndarray):
    """Vectors as an AFS1 matrix (one row per vector) + '<prefix>.ids' sidecar."""
    vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float64))
    if len(ids) != vectors.shape[0]:
        raise FormatError("id/vector count mismatch")
    _write_frame_matrix(f"{path_prefix}.afs", b"AFS1", vectors, 0.0)
    with open(f"{path_prefix}.ids", "w") as f:
        for i in ids:
            f.write(f"{i}\n")


def read_vector_set(path_prefix):
    data, _ = _read_frame_matrix(f"{path_prefix}.afs", b"AFS1")
    ids = [line.strip() for line in text_lines(f"{path_prefix}.ids") if line.strip()]
    if len(ids) != data.shape[0]:
        raise FormatError(f"{path_prefix}: id sidecar disagrees with vector rows")
    return ids, data


def write_trial_list(path, trials):
    """trials: iterable of (enroll_id, test_id, is_target)."""
    with open(path, "w") as f:
        for enroll_id, test_id, is_target in trials:
            label = "target" if is_target else "nontarget"
            f.write(f"{enroll_id} {test_id} {label}\n")


def read_trial_list(path):
    trials = []
    for line in text_lines(path):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 3 or parts[2] not in ("target", "nontarget"):
            raise FormatError(f"{path}: bad trial line {line!r}")
        trials.append((parts[0], parts[1], parts[2] == "target"))
    return trials


def write_scores(path, scored):
    """scored: iterable of (enroll_id, test_id, score)."""
    with open(path, "w") as f:
        for enroll_id, test_id, score in scored:
            f.write(f"{enroll_id} {test_id} {score:.12g}\n")


def read_scores(path):
    scored = []
    for line in text_lines(path):
        parts = line.split()
        if not parts:
            continue
        try:
            enroll, test, score = parts
            scored.append((enroll, test, float(score)))
        except ValueError:
            raise FormatError(f"{path}: bad score line {line!r}") from None
    return scored
