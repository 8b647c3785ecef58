"""Dense encoders, the shared cosine classifier, and checkpoint files.

Encoders are small ReLU MLPs whose output is L2-normalized, so every
embedding lives on the unit sphere and cosine similarity is a plain dot
product. A frozen encoder is read-only and safe to share across threads;
trainable encoders have a single writer.

A differentiable pass (:meth:`Encoder.embed`) is one graph node for the
whole MLP and the normalization, and :meth:`CosineClassifier.logits` on a
tensor is one node too. Each replays the float operations of the
``matmul``/``add``/``relu``/``l2_normalize`` (and ``transpose``/``mul``)
chain it stands for, forward and backward, so training gives the same bytes
as that chain; ``tests/oracles.py`` keeps the chains as the reference.
:meth:`Encoder.encode` runs the same forward pass without the graph, so the
two agree bit for bit, non-finite values included.

Checkpoint format (little-endian throughout)::

    magic "PALW" | u32 version | u32 n_layers | n_layers x (u32 in, u32 out)
    then per layer: in*out float32 weights (row-major) + out float32 biases

A checkpoint holding a non-finite value, or an encoder checkpoint whose
layers do not chain (a layer's ``in`` is not the ``out`` before it), is
refused on load.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .core import Tensor, from_op, l2_normalize, reshape
from .data import atomic_write
from .exceptions import FormatError, ParameterError, ShapeError

CHECKPOINT_MAGIC = b"PALW"
CHECKPOINT_VERSION = 1
NORM_EPS = 1e-12  # l2_normalize's default guard


def check_shape(input_dim: int, hidden_dims: tuple[int, ...], embed_dim: int, min_input=1):
    """Reject a network shape no encoder can have, naming the field."""
    if input_dim < min_input:
        raise ParameterError(f"input_dim must be >= {min_input}, got {input_dim}")
    if not hidden_dims or min(hidden_dims) < 1:
        raise ParameterError(f"hidden_dims must be one or more positive widths, got {hidden_dims}")
    if embed_dim < 2:
        raise ParameterError(f"embed_dim must be >= 2, got {embed_dim}")


@dataclass(frozen=True)
class EncoderConfig:
    input_dim: int
    hidden_dims: tuple[int, ...] = (64, 64)
    embed_dim: int = 32
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))
        check_shape(self.input_dim, self.hidden_dims, self.embed_dim)

    @property
    def layer_dims(self) -> list[tuple[int, int]]:
        chain = (self.input_dim, *self.hidden_dims, self.embed_dim)
        return list(zip(chain[:-1], chain[1:]))


def _glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


class Encoder:
    """ReLU MLP with unit-norm output embeddings."""

    def __init__(self, config: EncoderConfig):
        self.config = config
        self.frozen = False
        rng = np.random.default_rng(config.seed)
        self.weights: list[Tensor] = []
        self.biases: list[Tensor] = []
        for fan_in, fan_out in config.layer_dims:
            self.weights.append(Tensor(_glorot_uniform(rng, fan_in, fan_out), requires_grad=True))
            self.biases.append(Tensor(np.zeros(fan_out), requires_grad=True))

    def parameters(self) -> list[Tensor]:
        return [*self.weights, *self.biases]

    def freeze(self) -> "Encoder":
        self.frozen = True
        for p in self.parameters():
            p.requires_grad = False
            p.grad = None
        return self

    def _check_input(self, x: np.ndarray, op: str) -> tuple[np.ndarray, bool]:
        """``x`` as float64 rows and whether it was one vector; a width other
        than ``input_dim`` is refused, naming ``op``, the pass called."""
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        if single:
            x = x[None, :]
        if x.ndim != 2 or x.shape[1] != self.config.input_dim:
            raise ShapeError(
                f"{op}: expected inputs with {self.config.input_dim} features, "
                f"got shape {x.shape}"
            )
        return x, single

    def _forward(self, x: np.ndarray, op: str, inputs: list | None = None):
        """The one MLP forward pass: dense layers with the bias added and the
        ReLU applied in place, then the unit normalization. Returns the
        embeddings, their pre-normalization norms and whether ``x`` was a
        single vector; with ``inputs``, appends each layer's input to it.
        ``op`` names the pass in an input-width error."""
        h, single = self._check_input(x, op)
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if inputs is not None:
                inputs.append(h)
            h = h @ w.data
            h += b.data
            if i != last:
                np.maximum(h, 0.0, out=h)
        norms = np.linalg.norm(h, axis=-1, keepdims=True)
        return h / np.maximum(norms, NORM_EPS), norms, single

    def encode(self, x: np.ndarray) -> np.ndarray:
        """Graph-free forward pass; unit embeddings, one per input row
        (a single vector in gives a single vector out)."""
        out, _, single = self._forward(x, "encode")
        return out[0] if single else out

    def embed(self, x: np.ndarray) -> Tensor:
        """Differentiable forward pass, one graph node whose parents are the
        weights and biases. A frozen encoder's node is a constant (``from_op``
        prunes it), so no gradient can ever reach its parameters."""
        weights = [w.data for w in self.weights]
        inputs = []
        out, norms, single = self._forward(x, "embed", inputs)

        def vjp(g: np.ndarray):
            # l2_normalize: project out the radial component where the norm
            # is live, plain 1/eps scaling where the eps guard holds. A
            # hidden unit passed gradient where its ReLU output, the next
            # layer's input, is positive.
            inner = np.sum(g * out, axis=-1, keepdims=True)
            live = norms >= NORM_EPS
            grad_live = out * inner
            np.subtract(g, grad_live, out=grad_live)
            grad_live /= np.maximum(norms, NORM_EPS)
            g = grad_live if live.all() else np.where(live, grad_live, g / NORM_EPS)
            d_weights, d_biases = [None] * len(weights), [None] * len(weights)
            for i in range(len(weights) - 1, -1, -1):
                d_biases[i] = g.sum(axis=0)
                d_weights[i] = inputs[i].T @ g
                if i:
                    g = g @ weights[i].T
                    g *= inputs[i] > 0
            return (*d_weights, *d_biases)

        node = from_op(out, (*self.weights, *self.biases), vjp, "embed")
        return reshape(node, (node.shape[1],)) if single else node


class CosineClassifier:
    """Scaled cosine-similarity classifier over unit class-weight rows.

    The same object is shared between the partner path and the main path
    during logit alignment; mutating the weights is visible to both.
    """

    def __init__(self, n_classes: int, embed_dim: int, scale: float = 10.0, seed: int = 0):
        if n_classes < 2:
            raise ParameterError(f"need at least 2 classes, got {n_classes}")
        if scale <= 0:
            raise ParameterError(f"scale must be positive, got {scale}")
        rng = np.random.default_rng(seed)
        raw = rng.normal(size=(n_classes, embed_dim))
        self.weights = Tensor(l2_normalize(raw, axis=-1), requires_grad=True)
        self.scale = float(scale)

    @property
    def n_classes(self) -> int:
        return self.weights.shape[0]

    def parameters(self) -> list[Tensor]:
        return [self.weights]

    def logits(self, z):
        """``scale * <z, w_c>`` per class; Tensor in, Tensor out (one graph
        node over ``z`` and the weights), and array in, array out for
        constant targets."""
        w = self.weights.data
        if not isinstance(z, Tensor):
            return (np.asarray(z, dtype=np.float64) @ w.T) * self.scale
        zd, s = z.data, self.scale
        if zd.ndim not in (1, 2) or zd.shape[-1] != w.shape[1]:
            raise ShapeError(f"logits: embeddings of shape {zd.shape} vs weights {w.shape}")

        def vjp(g: np.ndarray):
            g = g * s
            return g @ w, (np.outer(zd, g) if zd.ndim == 1 else zd.T @ g).T

        return from_op((zd @ w.T) * s, (z, self.weights), vjp, "logits")

    def renormalize(self) -> None:
        """Project weight rows back onto the unit sphere (run after every
        optimizer step)."""
        self.weights.data = l2_normalize(self.weights.data, axis=-1)


def _write_palw(path, layers: list[tuple[np.ndarray, np.ndarray]]) -> None:
    with atomic_write(path) as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(layers)))
        for w, b in layers:
            fh.write(struct.pack("<II", w.shape[0], w.shape[1]))
        for w, b in layers:
            fh.write(np.ascontiguousarray(w, dtype="<f4").tobytes())
            fh.write(np.ascontiguousarray(b, dtype="<f4").tobytes())


def _read_palw(path) -> list[tuple[np.ndarray, np.ndarray]]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: bad magic {blob[:4]!r} at byte 0, expected PALW")
    if len(blob) < 12:
        raise FormatError(f"{path}: truncated header at byte {len(blob)}")
    version, n_layers = struct.unpack_from("<II", blob, 4)
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"{path}: unsupported version {version} at byte 4")
    offset = 12
    dims = []
    for _ in range(n_layers):
        if offset + 8 > len(blob):
            raise FormatError(f"{path}: truncated layer table at byte {offset}")
        dims.append(struct.unpack_from("<II", blob, offset))
        offset += 8
    layers = []
    for fan_in, fan_out in dims:
        w_bytes = fan_in * fan_out * 4
        b_bytes = fan_out * 4
        if offset + w_bytes + b_bytes > len(blob):
            raise FormatError(f"{path}: truncated payload at byte {offset}")
        w = np.frombuffer(blob, dtype="<f4", count=fan_in * fan_out, offset=offset)
        offset += w_bytes
        b = np.frombuffer(blob, dtype="<f4", count=fan_out, offset=offset)
        offset += b_bytes
        for kind, values in (("weight", w), ("bias", b)):
            if not np.isfinite(values).all():
                raise FormatError(f"{path}: non-finite {kind} value in layer {len(layers)}")
        layers.append((w.reshape(fan_in, fan_out).astype(np.float64), b.astype(np.float64)))
    if offset != len(blob):
        raise FormatError(f"{path}: {len(blob) - offset} trailing bytes at byte {offset}")
    return layers


def save_encoder(encoder: Encoder, path) -> None:
    _write_palw(path, [(w.data, b.data) for w, b in zip(encoder.weights, encoder.biases)])


def load_encoder(path) -> Encoder:
    layers = _read_palw(path)
    if len(layers) < 2:
        raise FormatError(f"{path}: an encoder checkpoint needs >= 2 layers")
    for i in range(1, len(layers)):
        fan_in, gives = layers[i][0].shape[0], layers[i - 1][0].shape[1]
        if fan_in != gives:
            raise FormatError(
                f"{path}: layer {i} takes {fan_in} inputs but layer {i - 1} gives {gives}"
            )
    hidden = tuple(w.shape[1] for w, _ in layers[:-1])
    config = EncoderConfig(
        input_dim=layers[0][0].shape[0],
        hidden_dims=hidden,
        embed_dim=layers[-1][0].shape[1],
        seed=0,
    )
    enc = Encoder(config)
    for i, (w, b) in enumerate(layers):
        enc.weights[i].data = w
        enc.biases[i].data = b
    return enc


def save_classifier(clf: CosineClassifier, path) -> None:
    # Stored as a single affine layer (embed_dim -> n_classes); the bias
    # slot is zeros, kept only so the container format stays uniform.
    w = clf.weights.data.T
    _write_palw(path, [(w, np.zeros(w.shape[1]))])
