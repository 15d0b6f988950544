"""Training loop: chunked SGD with momentum, step-decayed learning rate,
running-statistics updates for the normalization layers.

Determinism contract: given the same utterances, labels, and config (incl.
seed), two runs produce bit-identical parameters. All randomness flows from
the one seed through three spawned streams (shared-layer init, attention-head
init, data order), each drawn in a fixed order, and every reduction runs
single-threaded numpy.
"""

from __future__ import annotations

import logging

import numpy as np

from ..errors import EmptyInputError, NumericsError
from .network import (EmbedNetConfig, EmbedNetParams, _check_context,
                      _param_items, chunk_loss_and_grads, fold_tdnn,
                      init_embed_net, relu_inputs, relu_sites)

log = logging.getLogger(__name__)

# The SGD schedule; BN_MOMENTUM is the share of each batch in the norms' buffers.
MOMENTUM = 0.9
LR_DECAY = 0.5
DECAY_EVERY = 10
BN_MOMENTUM = 0.1
WARM_MARGIN = 1e-3  # the warm start's smallest ReLU input, as a share of its range


def _sample_chunk(frames: np.ndarray, chunk_len: int, rng: np.random.Generator):
    if frames.shape[0] <= chunk_len:
        return frames
    offset = int(rng.integers(0, frames.shape[0] - chunk_len + 1))
    return frames[offset:offset + chunk_len]


def _add_moments(sums: dict, site: str, r: np.ndarray):
    """Add the row count, column sums and column sums of squares of r to
    sums[site], summed in float64."""
    r = r.astype(np.float64, copy=False)  # one cast: cheaper than two float64 reductions
    moments = (r.shape[0], r.sum(axis=0), np.einsum("ij,ij->j", r, r))
    sums[site] = [a + b for a, b in zip(sums[site], moments)] if site in sums else moments


def _zeroed_block(items) -> dict:
    """Zeroed arrays shaped like the named arrays of items, as views of one
    block. Freeing a block this size (about 0.4 MB at the default shapes)
    lets glibc raise its mmap and trim thresholds, so the heap top that each
    chunk's arrays reuse stays mapped instead of being returned and faulted
    back in every chunk: about 700,000 minor faults per default run."""
    block = np.zeros(sum(arr.size for _, arr in items))
    ends = np.cumsum([arr.size for _, arr in items])[:-1]
    return {name: part.reshape(arr.shape)
            for (name, arr), part in zip(items, np.split(block, ends))}


def _update_norms(params: EmbedNetParams, sums: dict, momentum: float):
    """Move each site's running statistics toward the mean and variance of
    the rows summed by _add_moments: mean = sum / n and
    var = max(sum of squares / n - mean^2, 0)."""
    norms = {site: norm for site, _, norm in relu_sites(params)}
    for site, (n, total, squares) in sums.items():
        mean = total / n
        var = np.maximum(squares / n - mean * mean, 0.0)
        norm = norms[site]
        norm.running_mean = (1.0 - momentum) * norm.running_mean + momentum * mean
        norm.running_var = (1.0 - momentum) * norm.running_var + momentum * var


def train_embed_network(utterances, labels, cfg: EmbedNetConfig,
                        utt_ids=None) -> EmbedNetParams:
    """Train a speaker-classification network and return its parameters.

    utterances: list of (L, D) frame arrays;
    labels: parallel list of speaker indices in [0, cfg.n_speakers);
    utt_ids: optional parallel list of names, used in error messages.
    """
    # The TDNN stack trains on float32 chunks (exact for frames read from
    # AFS1) under float64 parameters, velocities and sums.
    frames = [np.asarray(u, dtype=np.float32) for u in utterances]
    if not frames:
        raise EmptyInputError("empty training corpus")
    labels = [int(lb) for lb in labels]
    if len(labels) != len(frames):
        raise ValueError(f"{len(labels)} labels for {len(frames)} utterances")
    if min(labels) < 0 or max(labels) >= cfg.n_speakers:
        raise ValueError(f"labels must lie in [0, {cfg.n_speakers})")

    # Independent streams for the shared layers, the attention head and the
    # data order: a plain and an attentive net trained with one seed start
    # from the same shared layers and see the same chunks in the same order.
    init_seq, head_seq, data_seq = np.random.SeedSequence(cfg.seed).spawn(3)
    params = init_embed_net(cfg, np.random.default_rng(init_seq),
                            np.random.default_rng(head_seq))
    for i, x in enumerate(frames):  # every utterance covers the context
        _check_context(params, x.shape[0], i if utt_ids is None else utt_ids[i])
    rng = np.random.default_rng(data_seq)
    mode = "internal" if cfg.attentive else "uniform"
    n_utts = len(frames)
    if params.attention is not None:
        # Silent scorer: every frame scores zero, so pooling starts uniform
        # and, after the warm start below, the attentive net equals the
        # plain net built from the same seed. What separates the two is then
        # only what the head learns, not a random initial frame selection.
        # The head's first gradient step goes to v alone.
        params.attention.v[:] = 0.0

    # Warm start on a sample of chunks, one ReLU site at a time in forward
    # order: shift the site's bias so its smallest input over the sample sits
    # WARM_MARGIN of the unit's range above zero (off the kink, where rounding
    # would decide whether a window is active), then set its normalization
    # buffers from the (now unclipped) activations. The initial net is then
    # linear on the data, with unit-scale activations everywhere. At a zero
    # bias a random ReLU stack clips about half of each unit's inputs and
    # folds the speaker-plus-channel space along random hyperplanes; training
    # moves the layers too little to undo the folds, so which unseen speakers
    # get confused would depend on the init draw.
    warm_idx = rng.permutation(n_utts)[:min(n_utts, 4 * cfg.batch_size)]
    warm_chunks = [_sample_chunk(frames[i], cfg.chunk_len, rng) for i in warm_idx]
    for site, layer, _ in relu_sites(params):
        net = fold_tdnn(params)
        inputs = [relu_inputs(params, chunk, mode, net)[0][site] for chunk in warm_chunks]
        low = np.min([z.min(axis=0) for z in inputs], axis=0)
        high = np.max([z.max(axis=0) for z in inputs], axis=0)
        low -= WARM_MARGIN * (high - low)
        layer.bias -= low
        sums: dict = {}
        for z in inputs:
            _add_moments(sums, site, z - low)
        _update_norms(params, sums, momentum=1.0)

    # Momentum SGD on each named parameter in place. A parameter outside the
    # active route (the attention head under uniform pooling) gets no
    # gradient entry, so its sum stays zero.
    items = list(_param_items(params))
    velocity = {name: np.zeros_like(arr) for name, arr in items}
    history = []
    for epoch in range(cfg.epochs):
        lr = cfg.lr * (LR_DECAY ** (epoch // DECAY_EVERY))
        order = rng.permutation(n_utts)
        epoch_loss = 0.0
        for start in range(0, n_utts, cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            grad_sum = _zeroed_block(items)
            sums = {}
            net = fold_tdnn(params, np.float32)  # after the last step's updates
            for i in batch:
                chunk = _sample_chunk(frames[i], cfg.chunk_len, rng)
                try:
                    loss, grads, acts = chunk_loss_and_grads(params, chunk, labels[i], mode, net)
                except NumericsError as exc:  # e.g. a pooled variance lost to overflow
                    raise NumericsError(f"training diverged at epoch {epoch}: {exc}") from exc
                epoch_loss += loss
                for name, g in grads.items():
                    grad_sum[name] += g
                for site, r in acts.items():
                    _add_moments(sums, site, r)
            for name, arr in items:
                v = velocity[name]
                v *= MOMENTUM
                v += grad_sum[name] / len(batch)
                arr -= lr * v
            _update_norms(params, sums, BN_MOMENTUM)
        history.append(epoch_loss / n_utts)
        if not np.isfinite(history[-1]):
            raise NumericsError(
                f"training diverged: non-finite mean loss at epoch {epoch}")
        log.debug("epoch %d: lr %.4g mean loss %.4f", epoch, lr, history[-1])

    params.train_loss = np.asarray(history)
    return params

