"""Neural speaker-embedding network with attentive statistics pooling."""

from .network import (DEFAULT_TDNN_OFFSETS, EmbedNetConfig, EmbedNetParams,
                      FoldedTdnn, Linear, TdnnLayer, chunk_loss,
                      chunk_loss_and_grads, embed_hidden,
                      export_attention_weights, extract_embedding,
                      fold_tdnn, forward_logits, hidden_attention_weights,
                      init_embed_net, kink_margin, load_embed_net,
                      save_embed_net, softmax_cross_entropy, tdnn_forward)
from .ops import (AttentionParams, BatchNorm, PooledStats, attention_scores,
                  attention_weights, combine_weights, pool_stats,
                  pool_weighted_stats)
from .train import train_embed_network

__all__ = [
    "DEFAULT_TDNN_OFFSETS", "EmbedNetConfig", "EmbedNetParams", "FoldedTdnn",
    "Linear", "TdnnLayer", "AttentionParams", "BatchNorm", "PooledStats",
    "attention_scores", "attention_weights", "combine_weights", "pool_stats",
    "pool_weighted_stats", "fold_tdnn", "tdnn_forward", "embed_hidden",
    "hidden_attention_weights", "extract_embedding",
    "export_attention_weights", "forward_logits", "train_embed_network",
    "init_embed_net", "save_embed_net", "load_embed_net", "chunk_loss",
    "chunk_loss_and_grads", "softmax_cross_entropy", "kink_margin",
]
