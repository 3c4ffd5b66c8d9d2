"""Backbone tests: token bookkeeping, pooled attention vs. a loop oracle,
and the structural identities the block wiring has to satisfy."""
import numpy as np
import pytest

from cotrain.backbone import Backbone, BackboneConfig, Block, PooledAttention, StageConfig
from cotrain.errors import ConfigError, ShapeError
from cotrain.rng import Rng
from cotrain import tensor as T
from cotrain.tensor import Tensor, no_grad


def naive_pooled_attention(attn, x, grid):
    """Replay PooledAttention with plain numpy loops.

    Pools queries, keys, and values with explicit window sums, runs softmax
    attention one (batch, head) pair at a time, and adds the pooled query
    before the output projection.
    """
    b, l, d = x.shape
    heads, dh = attn.heads, attn.head_dim

    def linear(layer, arr):
        out = arr @ layer.weight.data
        return out + layer.bias.data if layer.bias is not None else out

    def split(arr):
        return arr.reshape(b, l, heads, dh).transpose(0, 2, 1, 3)

    def pool(arr, conv):
        st, sh, sw = conv.stride
        t, gh, gw = grid
        to, ho, wo = t // st, gh // sh, gw // sw
        cube = arr.reshape(b * heads, t, gh, gw, dh)
        kern = conv.kernel.data
        out = np.zeros((b * heads, to, ho, wo, dh), dtype=np.float64)
        for n in range(b * heads):
            for it in range(to):
                for ih in range(ho):
                    for iw in range(wo):
                        patch = cube[n, it * st:(it + 1) * st, ih * sh:(ih + 1) * sh, iw * sw:(iw + 1) * sw]
                        out[n, it, ih, iw] = np.einsum("thwc,thwcd->d", patch, kern)
        return out.reshape(b, heads, to * ho * wo, dh), (to, ho, wo)

    q, q_grid = pool(split(linear(attn.q, x)), attn.pool_q)
    k, _ = pool(split(linear(attn.k, x)), attn.pool_k)
    v, _ = pool(split(linear(attn.v, x)), attn.pool_v)
    mixed = np.zeros_like(q)
    for n in range(b):
        for h in range(heads):
            scores = q[n, h] @ k[n, h].T * attn.scale
            scores -= scores.max(axis=-1, keepdims=True)
            probs = np.exp(scores)
            probs /= probs.sum(axis=-1, keepdims=True)
            mixed[n, h] = probs @ v[n, h] + q[n, h]
    lq = mixed.shape[2]
    merged = mixed.transpose(0, 2, 1, 3).reshape(b, lq, heads * dh)
    return linear(attn.out, merged), q_grid


def randomize(module, rng, std=0.5):
    for _, p in module.named_parameters():
        p.data = rng.normal(p.shape, std=std).astype(p.data.dtype)


class TestConfig:
    def test_default_token_counts(self):
        cfg = BackboneConfig()
        assert cfg.token_grid(0) == (4, 4, 4)
        assert cfg.token_grid(1) == (2, 2, 2)
        assert cfg.embed_dim == 32

    def test_patch_must_divide_input(self):
        with pytest.raises(ConfigError):
            BackboneConfig(input_shape=(8, 15, 16, 1))

    def test_heads_must_divide_dim(self):
        with pytest.raises(ConfigError):
            BackboneConfig(stages=(StageConfig(blocks=1, dim=10, heads=3),))

    def test_query_stride_must_divide_grid(self):
        stages = (
            StageConfig(blocks=1, dim=8, heads=2),
            StageConfig(blocks=1, dim=8, heads=2, q_stride=(3, 1, 1)),
        )
        with pytest.raises(ConfigError):
            BackboneConfig(stages=stages)

    def test_first_stage_query_stride_must_be_one(self):
        """It had been accepted and then ignored, so the run trained the unit-stride model."""
        stages = (StageConfig(blocks=1, dim=8, heads=2, q_stride=(2, 2, 2)),)
        with pytest.raises(ConfigError, match=r"stage 0: query stride must be \(1, 1, 1\), got \(2, 2, 2\)"):
            BackboneConfig(stages=stages)

    @pytest.mark.parametrize(
        "kv_strides,blocks,refused",
        [
            ((3, 1), 2, True),  # stage 0 pools keys and values on a 4-grid
            ((1, 3), 2, True),  # stage 1's first block pools a 4-grid
            ((1, 4), 2, True),  # stage 1's second block pools the 2-grid after the query stride
            ((1, 4), 1, False),  # a 1-block stage pools keys and values on its 4-grid only
            ((2, 2), 2, False),
            ((4, 1), 2, False),
        ],
    )
    def test_key_value_stride_must_divide_every_pooled_grid(self, kv_strides, blocks, refused):
        stages = (
            StageConfig(blocks=2, dim=8, heads=2, kv_stride=(kv_strides[0],) * 3),
            StageConfig(blocks=blocks, dim=8, heads=2, q_stride=(2, 2, 2), kv_stride=(kv_strides[1],) * 3),
        )
        if refused:
            with pytest.raises(ConfigError, match="key/value stride"):
                BackboneConfig(stages=stages)
        else:
            assert BackboneConfig(stages=stages).token_grid(1) == (2, 2, 2)


class TestPooledAttention:
    @pytest.mark.parametrize(
        "dim,heads,q_stride,kv_stride,grid",
        [
            (8, 2, (1, 1, 1), (1, 1, 1), (2, 2, 2)),
            (12, 3, (2, 2, 1), (1, 1, 1), (2, 4, 3)),
            (8, 2, (1, 2, 2), (2, 2, 2), (2, 4, 4)),
        ],
    )
    def test_matches_loop_oracle(self, dim, heads, q_stride, kv_stride, grid):
        attn = PooledAttention(dim, heads, q_stride, kv_stride, Rng(21, 0))
        randomize(attn, Rng(21, 1))
        l = grid[0] * grid[1] * grid[2]
        x = Rng(21, 2).normal((2, l, dim)).astype(np.float32)
        got, got_grid = attn(Tensor(x), grid)
        want, want_grid = naive_pooled_attention(attn, x.astype(np.float64), grid)
        assert got_grid == want_grid
        np.testing.assert_allclose(got.data, want, rtol=0, atol=1e-5)

    @pytest.mark.parametrize(
        "dim,heads,q_stride,batch,block_rows,blocks",
        [
            (8, 2, (1, 1, 1), 7, None, 1),  # the default block holds the whole batch
            (8, 2, (1, 1, 1), 7, 3, 3),  # 3 + 3 + 1 rows
            (8, 2, (1, 1, 1), 6, 2, 3),  # the rows divide the batch
            (8, 2, (1, 1, 1), 5, 1, 5),  # 1-row blocks
            (12, 3, (1, 2, 2), 5, 2, 3),  # pooled queries, 2 + 2 + 1 rows
        ],
    )
    def test_without_a_tape_keeps_the_taped_bits(self, dim, heads, q_stride, batch, block_rows, blocks, monkeypatch):
        """Under ``no_grad`` the attention runs in batch blocks; every output bit is the taped one's."""
        grid = (2, 4, 4)
        attn = PooledAttention(dim, heads, q_stride, (1, 1, 1), Rng(41, 0))
        randomize(attn, Rng(41, 1))
        x = Rng(41, 2).normal((batch, 32, dim)).astype(np.float32)
        taped, taped_grid = attn(Tensor(x), grid)
        assert taped.requires_grad
        if block_rows is not None:
            lq = 32 // (q_stride[0] * q_stride[1] * q_stride[2])
            monkeypatch.setattr(T, "ATTENTION_BLOCK_SIZE", block_rows * heads * lq * 32)
        rows = []
        probs = T._attention_probs  # ``T.attention`` computes each block's probabilities through it
        monkeypatch.setattr(T, "_attention_probs", lambda x, kt, scale: rows.append(x.shape[0]) or probs(x, kt, scale))
        with no_grad():
            blocked, blocked_grid = attn(Tensor(x), grid)
        assert len(rows) == blocks and sum(rows) == batch
        assert blocked_grid == taped_grid
        assert blocked.data.dtype == taped.data.dtype and blocked.data.shape == taped.data.shape
        assert blocked.data.tobytes() == taped.data.tobytes()

    def test_rejects_token_grid_mismatch(self):
        attn = PooledAttention(8, 2, (1, 1, 1), (1, 1, 1), Rng(21, 0))
        x = Tensor(np.zeros((1, 7, 8), dtype=np.float32))
        with pytest.raises(ShapeError):
            attn(x, (2, 2, 2))


class TestBlock:
    def test_zero_projections_reduce_to_identity(self):
        # With the attention output and second MLP layer zeroed, the block is
        # just its pooled residual, which at unit stride is the identity.
        block = Block(16, 16, 2, (1, 1, 1), (1, 1, 1), 4.0, 1e-5, Rng(23, 0))
        block.attn.out.weight.data[:] = 0.0
        block.mlp.fc2.weight.data[:] = 0.0
        x = Rng(23, 1).normal((2, 8, 16)).astype(np.float32)
        out, grid = block(Tensor(x), (2, 2, 2))
        assert grid == (2, 2, 2)
        np.testing.assert_allclose(out.data, x, rtol=0, atol=1e-6)

    def test_zero_projections_with_stride_average_tokens(self):
        block = Block(16, 16, 2, (2, 2, 2), (1, 1, 1), 4.0, 1e-5, Rng(25, 0))
        block.attn.out.weight.data[:] = 0.0
        block.mlp.fc2.weight.data[:] = 0.0
        x = Rng(25, 1).normal((1, 8, 16)).astype(np.float32)
        out, grid = block(Tensor(x), (2, 2, 2))
        assert grid == (1, 1, 1)
        np.testing.assert_allclose(out.data[0, 0], x[0].mean(axis=0), rtol=0, atol=1e-6)

    def test_query_pool_is_shared_with_residual(self):
        block = Block(8, 8, 2, (2, 1, 1), (1, 1, 1), 2.0, 1e-5, Rng(27, 0))
        pool_params = [n for n, _ in block.named_parameters() if "pool_q" in n]
        assert pool_params == ["attn.pool_q.kernel"]

    def test_width_change_adds_linear_skip(self):
        block = Block(8, 16, 2, (1, 1, 1), (1, 1, 1), 2.0, 1e-5, Rng(29, 0))
        assert block.proj is not None
        out, _ = block(Tensor(np.zeros((1, 4, 8), dtype=np.float32)), (1, 2, 2))
        assert out.shape == (1, 4, 16)


class TestBackbone:
    def test_forward_shape(self):
        model = Backbone(BackboneConfig(), Rng(31, 0))
        clips = Rng(31, 1).normal((2, 8, 16, 16, 1)).astype(np.float32)
        out = model(Tensor(clips))
        assert out.shape == (2, 32)

    def test_rejects_wrong_clip_shape(self):
        model = Backbone(BackboneConfig(), Rng(31, 0))
        with pytest.raises(ShapeError):
            model(Tensor(np.zeros((2, 8, 16, 16, 2), dtype=np.float32)))

    def test_zero_clip_zero_pos_embed_gives_zero_embedding(self):
        # Biases start at zero, so zeroing the positional table leaves no
        # constant source anywhere and the all-black clip must map to zero.
        model = Backbone(BackboneConfig(), Rng(33, 0))
        model.pos_embed.data[:] = 0.0
        out = model(Tensor(np.zeros((2, 8, 16, 16, 1), dtype=np.float32)))
        np.testing.assert_array_equal(out.data, np.zeros((2, 32), dtype=np.float32))

    def test_batch_rows_are_independent(self):
        model = Backbone(BackboneConfig(), Rng(35, 0))
        clips = Rng(35, 1).normal((3, 8, 16, 16, 1)).astype(np.float32)
        full = model(Tensor(clips)).data
        for i in range(3):
            row = model(Tensor(clips[i:i + 1])).data
            np.testing.assert_allclose(full[i], row[0], rtol=0, atol=1e-5)

    def test_width_grows_in_last_block_before_transition(self):
        params = dict(Backbone(BackboneConfig(), Rng(37, 0)).named_parameters())
        assert params["stage0.block1.mlp.fc2.weight"].shape == (64, 32)
        assert params["stage0.block1.proj.weight"].shape == (16, 32)
        assert params["stage1.block0.attn.q.weight"].shape == (32, 32)
        assert "stage0.block0.proj.weight" not in params

    def test_gradients_reach_every_parameter(self):
        model = Backbone(BackboneConfig(), Rng(39, 0))
        clips = Rng(39, 1).normal((2, 8, 16, 16, 1)).astype(np.float32)
        out = model(Tensor(clips))
        (out * out).sum().backward()
        for name, p in model.named_parameters():
            assert p.grad is not None, name
            assert np.isfinite(p.grad).all(), name
