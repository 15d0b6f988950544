"""Checks of a finished run directory against computations made apart from the
package: own readers for the on-disk formats, and the estimators written out
in their textbook form. Nothing here imports `deskspeaker`.

`check_run` returns a list of failures (empty when the outputs are correct)
and the worst deviation seen by each check, for the record.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np
import yaml

# Tolerances. report.kv keeps 10 decimals and score files 12 significant
# digits. Vectors and frame weights are stored as float32 (relative rounding
# 6e-8); the worst deviations seen on the desk config are 5e-8 (vectors) and
# 5e-9 (weight sums), 20 times inside these bounds.
TOL_REPORT = 1e-9
TOL_SCORE = 1e-9   # times (1 + |score|)
TOL_VECTOR = 1e-6  # times (1 + max |vector entry|)
TOL_WEIGHT_SUM = 1e-6
# Chance is 0.5. Over seeds 1-10 the worst variant reached 0.166 (S5/S6 on
# the 350 training utterances of the desk corpus), so 0.2 would sit inside
# the seed-to-seed spread.
MAX_EER = 0.3
BN_EPS = 1e-3      # variance offset of the network's normalization layers
SAMPLE_UTTS = 3    # per partition, for the vector checks
SAMPLE_TRIALS = 20  # per variant, for the PLDA re-scoring

PARTITIONS = ("train", "enroll", "test")


# ---------------------------------------------------------------------------
# readers for the package's file formats

def _frame_matrix(path, magic: bytes) -> np.ndarray:
    raw = Path(path).read_bytes()
    got, rows, cols, _ = struct.unpack_from("<4sIIf", raw)
    if got != magic:
        raise ValueError(f"{path}: magic {got!r}, expected {magic!r}")
    return np.frombuffer(raw, "<f4", rows * cols, 16).reshape(rows, cols).astype(float)


def _f64_model(path, magic: bytes, header: str, shapes):
    """A float64 model file: magic, integer header, then arrays whose shapes
    are given by `shapes(*header_values)`."""
    raw = Path(path).read_bytes()
    if raw[:4] != magic:
        raise ValueError(f"{path}: magic {raw[:4]!r}, expected {magic!r}")
    dims = struct.unpack_from("<" + header, raw, 4)
    pos = 4 + struct.calcsize("<" + header)
    arrays = []
    for shape in shapes(*dims):
        count = int(np.prod(shape))
        arrays.append(np.frombuffer(raw, "<f8", count, pos).reshape(shape))
        pos += 8 * count
    if pos != len(raw):
        raise ValueError(f"{path}: {len(raw) - pos} trailing bytes")
    return arrays


def read_gmm(path):
    return _f64_model(path, b"GMM1", "II", lambda c, d: [(c,), (c, d), (c, d)])


def read_tvm(path):
    return _f64_model(path, b"TVM1", "II", lambda cd, r: [(cd,), (cd, r), (cd,)])


def read_plda(path):
    return _f64_model(path, b"PLD1", "II", lambda e, s: [(e,), (e, s), (e, e)])


def read_preprocessor(path):
    return _f64_model(path, b"PRE1", "I", lambda e: [(e,), (e, e)])


def read_network(path):
    """EMB1: integer metadata plus named float32 tensors."""
    raw = Path(path).read_bytes()
    if raw[:4] != b"EMB1":
        raise ValueError(f"{path}: not an EMB1 file")
    pos = 8
    meta, tensors = {}, {}
    (n_meta,) = struct.unpack_from("<I", raw, pos)
    pos += 4
    for _ in range(n_meta):
        (klen,) = struct.unpack_from("<H", raw, pos)
        key = raw[pos + 2:pos + 2 + klen].decode()
        (meta[key],) = struct.unpack_from("<q", raw, pos + 2 + klen)
        pos += 2 + klen + 8
    (n_tensors,) = struct.unpack_from("<I", raw, pos)
    pos += 4
    for _ in range(n_tensors):
        (nlen,) = struct.unpack_from("<H", raw, pos)
        name = raw[pos + 2:pos + 2 + nlen].decode()
        pos += 2 + nlen
        (ndim,) = struct.unpack_from("<I", raw, pos)
        shape = struct.unpack_from(f"<{ndim}I", raw, pos + 4)
        pos += 4 + 4 * ndim
        count = int(np.prod(shape))
        tensors[name] = np.frombuffer(raw, "<f4", count, pos).reshape(shape).astype(float)
        pos += 4 * count
    return meta, tensors


def read_vectors(prefix):
    vecs = _frame_matrix(f"{prefix}.afs", b"AFS1")
    ids = Path(f"{prefix}.ids").read_text().split()
    return ids, vecs


def read_report(path) -> dict:
    table = {}
    for line in Path(path).read_text().splitlines():
        key, value = line.split("=")
        table[key] = float(value)
    return table


# ---------------------------------------------------------------------------
# metric oracle: every operating point, counted directly

def sweep_metrics(scores: np.ndarray, targets: np.ndarray, p_targets) -> tuple[float, float]:
    """EER and min C_primary over every threshold (each distinct score, plus
    one above the maximum); a trial is accepted when score >= threshold."""
    order = np.argsort(scores, kind="stable")
    s, t = scores[order], targets[order]
    n_t, n_n = int(t.sum()), int((~t).sum())
    # index of the first trial at each distinct score, ascending
    starts = np.flatnonzero(np.concatenate([[True], s[1:] != s[:-1]]))
    below_t = np.concatenate([[0], np.cumsum(t)])[starts]
    below_n = np.concatenate([[0], np.cumsum(~t)])[starts]
    fnr = np.append(below_t / n_t, 1.0)
    fpr = np.append((n_n - below_n) / n_n, 0.0)
    # EER: first operating point where FNR >= FPR, interpolated linearly
    # between it and the point before it.
    k = int(np.argmax(fnr - fpr >= 0))
    if k == 0 or fnr[k] == fpr[k]:
        eer = fnr[k]
    else:
        d0, d1 = fnr[k - 1] - fpr[k - 1], fnr[k] - fpr[k]
        s_cross = -d0 / (d1 - d0)
        eer = fnr[k - 1] + s_cross * (fnr[k] - fnr[k - 1])
    costs = [np.min(p * fnr + (1 - p) * fpr) / min(p, 1 - p) for p in p_targets]
    return float(eer), float(np.mean(costs))


# ---------------------------------------------------------------------------
# PLDA oracle: log N(e, t | same) - log N(e) - log N(t)

def _log_gauss(x: np.ndarray, cov: np.ndarray) -> float:
    chol = np.linalg.cholesky(cov)
    z = np.linalg.solve(chol, x)
    return float(-0.5 * (z @ z) - np.log(np.diag(chol)).sum()
                 - 0.5 * x.size * np.log(2 * np.pi))


def plda_llr(e: np.ndarray, t: np.ndarray, mean, subspace, within) -> float:
    between = subspace @ subspace.T
    total = between + within
    joint = np.block([[total, between], [between, total]])
    e, t = e - mean, t - mean
    return (_log_gauss(np.concatenate([e, t]), joint)
            - _log_gauss(e, total) - _log_gauss(t, total))


def preprocess(v: np.ndarray, mean, whitener) -> np.ndarray:
    x = whitener @ (v - mean)
    return x / np.sqrt(x @ x)


# ---------------------------------------------------------------------------
# i-vector oracle: explicit Gaussian densities, dense posterior-mean solve

def ivector(frames, scale, gmm, tvm) -> np.ndarray:
    """Posterior mean of w given statistics whose frame t counts scale[t]."""
    weights, means, variances = gmm
    _, t_matrix, sigma = tvm
    n_comp, dim = means.shape
    logp = np.empty((frames.shape[0], n_comp))
    for c in range(n_comp):
        diff = frames - means[c]
        logp[:, c] = (np.log(weights[c])
                      - 0.5 * np.sum(np.log(2 * np.pi * variances[c]) + diff ** 2 / variances[c],
                                     axis=1))
    logp -= logp.max(axis=1, keepdims=True)
    gamma = np.exp(logp)
    gamma /= gamma.sum(axis=1, keepdims=True)
    gamma *= scale[:, None]
    precision = np.eye(t_matrix.shape[1])
    linear = np.zeros(t_matrix.shape[1])
    for c in range(n_comp):
        rows = slice(c * dim, (c + 1) * dim)
        t_c = t_matrix[rows] / sigma[rows, None]   # Sigma_c^-1 T_c
        n_c = gamma[:, c].sum()
        f_c = gamma[:, c] @ frames - n_c * means[c]
        precision += n_c * t_matrix[rows].T @ t_c
        linear += t_c.T @ f_c
    return np.linalg.solve(precision, linear)


# ---------------------------------------------------------------------------
# embedding oracle: loop-form TDNN, attention, weighted pooling, segment layer

class Network:
    def __init__(self, path):
        meta, self.p = read_network(path)
        self.layers = []
        for i in range(meta["n_tdnn"]):
            offsets = [meta[f"tdnn{i}.offset{j}"] for j in range(meta[f"tdnn{i}.n_offsets"])]
            self.layers.append((i, offsets))
        self.left = -sum(min(o) for _, o in self.layers)
        self.right = sum(max(o) for _, o in self.layers)
        self.attentive = bool(meta["has_attention"])

    def _norm(self, name, stats, r):
        p = self.p
        return (p[f"{name}.gamma"] * (r - p[f"{stats}.mean"])
                / np.sqrt(p[f"{stats}.var"] + BN_EPS) + p[f"{name}.beta"])

    def hidden(self, x: np.ndarray) -> np.ndarray:
        p = self.p
        for i, offsets in self.layers:
            lo, hi = min(offsets), max(offsets)
            out = []
            for t in range(-lo, x.shape[0] - hi):
                spliced = np.concatenate([x[t + o] for o in offsets])
                r = np.maximum(p[f"tdnn{i}.w"] @ spliced + p[f"tdnn{i}.b"], 0.0)
                out.append(self._norm(f"tdnn{i}", f"tdnn{i}.norm", r))
            x = np.array(out)
        return x

    def attention(self, h: np.ndarray) -> np.ndarray:
        p = self.p
        e = np.array([p["att.v"] @ self._norm("att", "att.norm",
                                              np.maximum(p["att.w"] @ ht + p["att.b"], 0.0))
                      + p["att.k"] for ht in h])
        e = np.exp(e - e.max())
        return e / e.sum()

    def embedding(self, h: np.ndarray, w: np.ndarray) -> np.ndarray:
        mean = w @ h
        std = np.sqrt(np.maximum(w @ (h * h) - mean * mean, 0.0))
        return self.p["seg1.w"] @ np.concatenate([mean, std]) + self.p["seg1.b"]


def _fuse(base: np.ndarray, q: np.ndarray | None) -> np.ndarray:
    w = base if q is None else base * q
    return w / w.sum()


def _expand(valid: np.ndarray, left: int, right: int) -> np.ndarray:
    """Valid-frame weights spread over the full utterance: each flank frame
    takes the nearest valid weight, then the whole is renormalized."""
    return _fuse(np.pad(valid, (left, right), mode="edge"), None)


# ---------------------------------------------------------------------------

def _worst(report: dict, name: str, value: float):
    report[name] = max(report.get(name, 0.0), float(value))


def check_run(run: Path, variants: list[str], seed: int,
              max_eer: float = MAX_EER) -> tuple[list[str], dict]:
    """All checks on one run directory; variants like 'S2-vad'."""
    failures: list[str] = []
    worst: dict = {}
    rng = np.random.default_rng(seed)
    cfg = yaml.safe_load((run / "config.yaml").read_text())
    rows = [line.split("\t") for line in
            (run / "features" / "manifest.tsv").read_text().splitlines()]
    part_of = {utt: part for utt, _, part in rows}
    utts = [utt for utt, _, _ in rows]
    kv = read_report(run / "report" / "report.kv")

    # --- report metrics against an exhaustive sweep over the score files
    trials = [line.split() for line in (run / "scores" / "trials.txt").read_text().splitlines()]
    truth = {(e, t): lab == "target" for e, t, lab in trials}
    for variant in variants:
        system, vad = variant.split("-")
        scored = [line.split() for line in
                  (run / "scores" / f"{variant}.txt").read_text().splitlines()]
        if len(scored) != len(trials):
            failures.append(f"{variant}: {len(scored)} scores for {len(trials)} trials")
            continue
        scores = np.array([float(s) for _, _, s in scored])
        targets = np.array([truth[(e, t)] for e, t, _ in scored])
        eer, cprim = sweep_metrics(scores, targets, cfg["eval"]["p_targets"])
        for name, want in (("eer", eer), ("min_cprimary", cprim)):
            got = kv.get(f"{system}.{vad}.{name}")
            if got is None or abs(got - want) > TOL_REPORT:
                failures.append(f"{variant}: report {name} {got} != sweep {want:.10f}")
            else:
                _worst(worst, "report_abs_err", abs(got - want))
        if eer > max_eer:
            failures.append(f"{variant}: EER {eer:.4f} is not far below chance")
        _worst(worst, "max_eer", eer)

        # --- PLDA re-scoring of a sample of trials
        prep = read_preprocessor(run / "backend" / f"{variant}.pre1")
        plda = read_plda(run / "backend" / f"{variant}.pld1")
        vecs = {}
        for part in ("enroll", "test"):
            ids, matrix = read_vectors(run / "vectors" / variant / part)
            vecs.update(zip(ids, matrix))
        for i in rng.choice(len(scored), size=min(SAMPLE_TRIALS, len(scored)), replace=False):
            e, t, s = scored[i]
            want = plda_llr(preprocess(vecs[e], *prep), preprocess(vecs[t], *prep), *plda)
            err = abs(float(s) - want) / (1.0 + abs(want))
            if err > TOL_SCORE:
                failures.append(f"{variant}: trial {e} {t} scored {s}, oracle {want:.12g}")
            _worst(worst, "score_rel_err", err)

    # --- exported attention weights
    nets = {}
    if (run / "embed" / "att.emb1").exists():
        nets["att"] = Network(run / "embed" / "att.emb1")
        weight_files = sorted((run / "weights").glob("*.fwt"))
        if len(weight_files) != len(utts):
            failures.append(f"{len(weight_files)} weight files for {len(utts)} utterances")
        for path in weight_files:
            w = _frame_matrix(path, b"FWT1")[:, 0]
            if w.min() < 0 or abs(w.sum() - 1.0) > TOL_WEIGHT_SUM:
                failures.append(f"{path.name}: weights min {w.min()}, sum {w.sum()}")
            _worst(worst, "weight_sum_err", abs(w.sum() - 1.0))
    if (run / "embed" / "nonatt.emb1").exists():
        nets["nonatt"] = Network(run / "embed" / "nonatt.emb1")

    # --- a sample of vectors per variant against the oracles
    sample = [u for part in PARTITIONS
              for u in rng.permutation([u for u in utts if part_of[u] == part])[:SAMPLE_UTTS]]
    gmm = tvm = None
    if any(v.startswith(("S5", "S6")) for v in variants):
        gmm = read_gmm(run / "ubm" / "ubm.gmm1")
        tvm = read_tvm(run / "tvm" / "tvm.tvm1")
    stored = {}
    for variant in variants:
        for part in PARTITIONS:
            ids, matrix = read_vectors(run / "vectors" / variant / part)
            stored.update({(variant, u): v for u, v in zip(ids, matrix)})
    for utt in sample:
        x = _frame_matrix(run / "features" / "feats" / f"{utt}.afs", b"AFS1")
        q = _frame_matrix(run / "features" / "q" / f"{utt}.vps", b"VPS1")[:, 0]
        n = x.shape[0]
        exported = None
        if "att" in nets:
            raw = _frame_matrix(run / "weights" / f"{utt}.fwt", b"FWT1")[:, 0]
            exported = raw / raw.sum()
        hidden = {kind: net.hidden(x) for kind, net in nets.items()}
        for variant in variants:
            system, vad = variant.split("-")
            use_q = vad == "vad"
            if system in ("S5", "S6"):
                if system == "S5":
                    w = _fuse(np.full(n, 1.0 / n), q if use_q else None)
                else:
                    att = nets["att"]
                    w = _fuse(_expand(exported, att.left, att.right), q if use_q else None)
                want = ivector(x, n * w, gmm, tvm)
            else:
                kind = "nonatt" if system in ("S1", "S3") else "att"
                net, h = nets[kind], hidden[kind]
                q_valid = q[net.left:n - net.right] if use_q else None
                if system == "S2":
                    base = net.attention(h)
                elif system == "S3":
                    base = exported
                else:
                    base = np.full(len(h), 1.0 / len(h))
                want = net.embedding(h, _fuse(base, q_valid))
            got = stored[(variant, utt)]
            err = np.abs(got - want).max() / (1.0 + np.abs(want).max())
            if err > TOL_VECTOR:
                failures.append(f"{variant} {utt}: vector off by {err:.3e} (relative)")
            _worst(worst, "ivector_rel_err" if system in ("S5", "S6") else "embedding_rel_err",
                   err)
    return failures, worst
