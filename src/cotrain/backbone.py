"""Video backbone: 3-d patch embedding plus pooled multi-head attention blocks.

The network turns a clip ``(B, T, H, W, C)`` into one embedding per clip.  A
strided 3-d convolution cuts the clip into tokens, a learned absolute
positional embedding is added (no class token), and a stack of attention
blocks follows.  Spatial resolution drops at stage transitions: a stage's
query stride pools the attention queries of its first block, and the first
stage's stride is 1.  Channel width grows in the MLP of the last block of the
preceding stage, so every attention layer runs at its stage's width.  The
final embedding is the mean over tokens of the normalized last-stage features.

Each block computes::

    X1       = PooledAttention(LN(X)) + Pool(X)
    Block(X) = MLP(LN(X1)) + X1        (a linear map on X1 when width changes)

where the residual ``Pool`` reuses the query-pooling convolution, applied per
attention head, and the attention itself adds the pooled query to the
attention output right before the output projection.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError
from .nn import LayerNorm, Linear, Mlp, Module, PoolConv, trunc_normal_param
from .rng import Rng
from .tensor import Tensor

Grid = tuple[int, int, int]


@dataclass(frozen=True)
class StageConfig:
    blocks: int
    dim: int
    heads: int
    q_stride: Grid = (1, 1, 1)
    kv_stride: Grid = (1, 1, 1)


@dataclass(frozen=True)
class BackboneConfig:
    input_shape: tuple[int, int, int, int] = (8, 16, 16, 1)
    patch: Grid = (2, 4, 4)
    stages: tuple[StageConfig, ...] = (
        StageConfig(blocks=2, dim=16, heads=2),
        StageConfig(blocks=2, dim=32, heads=4, q_stride=(2, 2, 2)),
    )
    mlp_ratio: float = 4.0
    ln_eps: float = 1e-5

    def __post_init__(self):
        t, h, w, c = self.input_shape
        if min(t, h, w, c) < 1:
            raise ConfigError(f"input shape must be positive, got {self.input_shape}")
        for extent, p, axis in zip((t, h, w), self.patch, "thw"):
            if p < 1 or extent % p:
                raise ConfigError(
                    f"patch size {self.patch} does not divide input axis {axis}={extent}"
                )
        if not self.stages:
            raise ConfigError("backbone needs at least one stage")
        if self.stages[0].q_stride != (1, 1, 1):
            raise ConfigError(
                f"stage 0: query stride must be (1, 1, 1), got {self.stages[0].q_stride}; "
                "the first stage runs on the patch grid"
            )
        grid = list(self.token_grid(0))
        for i, stage in enumerate(self.stages):
            if stage.blocks < 1:
                raise ConfigError(f"stage {i} has no blocks")
            if stage.dim % stage.heads:
                raise ConfigError(
                    f"stage {i}: dim {stage.dim} not divisible by {stage.heads} heads"
                )
            # Keys and values are pooled on the first block's input grid and,
            # in later blocks, on the grid after the query stride.
            kv_grids = [tuple(grid)]
            for ax, s in enumerate(stage.q_stride):
                if s < 1 or grid[ax] % s:
                    raise ConfigError(
                        f"stage {i}: query stride {stage.q_stride} does not divide token grid {tuple(grid)}"
                    )
                grid[ax] //= s
            if stage.blocks > 1:
                kv_grids.append(tuple(grid))
            for kv_grid in kv_grids:
                if any(s < 1 or n % s for s, n in zip(stage.kv_stride, kv_grid)):
                    raise ConfigError(
                        f"stage {i}: key/value stride {stage.kv_stride} does not divide token grid {kv_grid}"
                    )

    def token_grid(self, upto_stage: int) -> Grid:
        """Token grid after the patch embed and the query strides of stages ``0..upto_stage``."""
        t, h, w, _ = self.input_shape
        grid = (t // self.patch[0], h // self.patch[1], w // self.patch[2])
        for stage in self.stages[: upto_stage + 1]:
            s = stage.q_stride
            grid = (grid[0] // s[0], grid[1] // s[1], grid[2] // s[2])
        return grid

    @property
    def embed_dim(self) -> int:
        return self.stages[-1].dim


def _split_heads(x: Tensor, heads: int) -> Tensor:
    b, l, d = x.shape
    return x.reshape(b, l, heads, d // heads).transpose(0, 2, 1, 3)


def _merge_heads(x: Tensor) -> Tensor:
    b, h, l, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, l, h * dh)


def _pool_tokens(x: Tensor, grid: Grid, pool: PoolConv) -> tuple[Tensor, Grid]:
    """Apply a pooling conv to per-head tokens ``(B, H, L, dh)`` laid out on ``grid``."""
    b, h, l, dh = x.shape
    t, gh, gw = grid
    if t * gh * gw != l:
        raise ShapeError(f"token count {l} does not match grid {grid}")
    cube = x.reshape(b * h, t, gh, gw, dh)
    pooled = pool(cube)
    _, to, ho, wo, _ = pooled.shape
    out = pooled.reshape(b, h, to * ho * wo, dh)
    return out, (to, ho, wo)


def _attend(q: Tensor, kt: Tensor, v: Tensor, scale: float) -> Tensor:
    """``softmax(q @ kt * scale) @ v`` over ``(B, H, L, dh)`` heads.

    While a tape is being built this is one op chain over the whole batch,
    whose softmax output the tape keeps anyway.  Without one, the chain runs
    over blocks of batch rows holding at most ``T.ATTENTION_BLOCK_SIZE`` score
    elements (at least one row), so a whole batch's scores, scaled scores and
    softmax never exist at once.  A block issues the same per-(clip, head)
    GEMMs and row-wise softmax as the whole batch, so every element keeps its
    bits.
    """
    b, heads, lq, _ = q.shape
    rows = max(1, T.ATTENTION_BLOCK_SIZE // (heads * lq * kt.shape[-1]))
    if T.is_grad_enabled() or rows >= b:
        return T.softmax((q @ kt) * scale, axis=-1) @ v
    blocks = (slice(start, start + rows) for start in range(0, b, rows))
    return Tensor(np.concatenate([
        (T.softmax((Tensor(q.data[r]) @ Tensor(kt.data[r])) * scale, axis=-1) @ Tensor(v.data[r])).data
        for r in blocks
    ]))


class PooledAttention(Module):
    """Multi-head attention with convolutional pooling of queries, keys, values.

    The pooled query is added to the attention output before the output
    projection, so with unit strides and identity pooling the layer reduces to
    plain multi-head attention plus that query shortcut.
    """

    def __init__(self, dim: int, heads: int, q_stride: Grid, kv_stride: Grid, rng: Rng):
        if dim % heads:
            raise ConfigError(f"dim {dim} not divisible by {heads} heads")
        self.heads = heads
        self.head_dim = dim // heads
        self.scale = 1.0 / np.sqrt(self.head_dim)
        self.q = Linear(dim, dim, rng)
        self.k = Linear(dim, dim, rng)
        self.v = Linear(dim, dim, rng)
        self.out = Linear(dim, dim, rng)
        self.pool_q = PoolConv(self.head_dim, q_stride)
        self.pool_k = PoolConv(self.head_dim, kv_stride)
        self.pool_v = PoolConv(self.head_dim, kv_stride)

    def __call__(self, x: Tensor, grid: Grid) -> tuple[Tensor, Grid]:
        q, q_grid = _pool_tokens(_split_heads(self.q(x), self.heads), grid, self.pool_q)
        k, _ = _pool_tokens(_split_heads(self.k(x), self.heads), grid, self.pool_k)
        v, _ = _pool_tokens(_split_heads(self.v(x), self.heads), grid, self.pool_v)
        mixed = _attend(q, k.transpose(0, 1, 3, 2), v, self.scale) + q  # pooled-query shortcut
        return self.out(_merge_heads(mixed)), q_grid

    def pool_residual(self, x: Tensor, grid: Grid) -> Tensor:
        """Pool raw block input with the query-pooling conv (shared weights)."""
        pooled, _ = _pool_tokens(_split_heads(x, self.heads), grid, self.pool_q)
        return _merge_heads(pooled)


class Block(Module):
    def __init__(
        self,
        dim: int,
        dim_out: int,
        heads: int,
        q_stride: Grid,
        kv_stride: Grid,
        mlp_ratio: float,
        ln_eps: float,
        rng: Rng,
    ):
        self.norm1 = LayerNorm(dim, ln_eps)
        self.attn = PooledAttention(dim, heads, q_stride, kv_stride, rng)
        self.norm2 = LayerNorm(dim, ln_eps)
        self.mlp = Mlp(dim, int(dim * mlp_ratio), dim_out, rng)
        self.proj = Linear(dim, dim_out, rng) if dim_out != dim else None

    def __call__(self, x: Tensor, grid: Grid) -> tuple[Tensor, Grid]:
        attn_out, new_grid = self.attn(self.norm1(x), grid)
        x1 = attn_out + self.attn.pool_residual(x, grid)
        y = self.mlp(self.norm2(x1))
        skip = self.proj(x1) if self.proj is not None else x1
        return y + skip, new_grid


class Backbone(Module):
    def __init__(self, config: BackboneConfig, rng: Rng):
        self.config = config
        t, h, w, c = config.input_shape
        d0 = config.stages[0].dim
        self.patch_kernel = trunc_normal_param(rng, (*config.patch, c, d0))
        self.patch_bias = Tensor(np.zeros(d0, dtype=np.float32), requires_grad=True)
        grid = config.token_grid(0)
        self.pos_embed = trunc_normal_param(rng, (grid[0] * grid[1] * grid[2], d0))
        self.blocks: dict[str, Block] = {}
        stages = config.stages
        for i, stage in enumerate(stages):
            for j in range(stage.blocks):
                last = j == stage.blocks - 1
                dim_out = stages[i + 1].dim if last and i + 1 < len(stages) else stage.dim
                q_stride = stage.q_stride if j == 0 else (1, 1, 1)
                self.blocks[f"stage{i}.block{j}"] = Block(
                    stage.dim,
                    dim_out,
                    stage.heads,
                    q_stride,
                    stage.kv_stride,
                    config.mlp_ratio,
                    config.ln_eps,
                    rng,
                )
        self.final_norm = LayerNorm(config.embed_dim, config.ln_eps)

    def _children(self):
        yield from super()._children()
        yield from self.blocks.items()

    def __call__(self, clips: Tensor) -> Tensor:
        """Embed a batch of clips ``(B, T, H, W, C)`` into ``(B, d)``."""
        cfg = self.config
        if clips.ndim != 5 or clips.shape[1:] != cfg.input_shape:
            raise ShapeError(
                f"expected clips of shape (B, {', '.join(map(str, cfg.input_shape))}), got {clips.shape}"
            )
        tokens = T.conv3d(clips, self.patch_kernel)
        b, t, h, w, d = tokens.shape
        x = tokens.reshape(b, t * h * w, d) + self.patch_bias
        x = x + self.pos_embed
        grid = (t, h, w)
        for block in self.blocks.values():
            x, grid = block(x, grid)
        x = self.final_norm(x)
        return x.mean(axis=1)
