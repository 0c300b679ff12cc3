"""Brownian-sheet noise over price buckets.

The sheet W(t, s) is represented on an orthonormal indicator basis: factor j
owns price bucket j of width delta_p and carries an independent Brownian
motion in t.  Integrating a loading row b against the sheet reduces to
sum_j b_j * sqrt(delta_p) * dW_j, and Cov(W(t,s1), W(t,s2)) = t * min(s1,s2).

Draws come from a counter-based Philox generator keyed by (seed, stream
chunk) with the step index in the counter, so any (stream, step) block can be
regenerated independently and runs are bit-identical for a fixed seed and
step schedule.  Streams are grouped in chunks of 256 per key; the normals
come off the generator in row order, so a draw of the first n streams is a
prefix of the draw of more.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

_CHUNK = 256


@dataclass(frozen=True)
class SheetConfig:
    factor_count: int
    delta_p: float
    seed: int = 0

    def __post_init__(self):
        check_seed(self.seed)

    @property
    def span(self) -> float:
        """Total price span covered by the factor buckets."""
        return self.factor_count * self.delta_p


def is_whole(value) -> bool:
    """Whether `value` is an int, a numpy integer included, and not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_seed(seed) -> None:
    """Reject a seed that is not an int in [0, 2**64), the Philox key's first word."""
    if not is_whole(seed):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")


def generator() -> np.random.Generator:
    """A Philox generator for increments_block to re-key at every chunk.

    One per run is enough: building a Philox seeds a SeedSequence from OS
    entropy, about four times the cost of setting its state, and the key and
    counter of each chunk's draw override that seed.
    """
    return np.random.Generator(np.random.Philox())


def _chunk_block(cfg: SheetConfig, step: int, chunk: int, out: np.ndarray,
                 gen: np.random.Generator) -> None:
    """Draw the leading len(out) rows of one chunk's standard-normal
    (_CHUNK, factor_count) block into `out`.

    `gen` is re-keyed to the Philox keyed (seed, chunk) with counter
    (0, 0, 0, step) and an empty buffer, so the draw does not depend on what
    the generator drew before.
    """
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, step], "key": [cfg.seed, chunk]},
        "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    gen.standard_normal(out.shape, out=out)


def increments_block(cfg: SheetConfig, dt: float, step: int, n_streams: int,
                     gen: np.random.Generator | None = None,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Factor increments dW ~ N(0, dt) for streams 0..n_streams-1 at one step,
    into `out` ((n_streams, factor_count)) when given; an `out` of any other
    shape is a ValueError.

    A loop over steps passes its one `generator()` as `gen` and one array as
    `out`; the draws depend on neither.
    """
    if not dt >= 0:
        raise ValueError(f"dt must be non-negative, got {dt}")
    gen = generator() if gen is None else gen
    shape = (n_streams, cfg.factor_count)
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape:
        raise ValueError(f"out must have shape {shape}, got {out.shape}")
    for c, start in enumerate(range(0, n_streams, _CHUNK)):
        _chunk_block(cfg, step, c, out[start:start + _CHUNK], gen)
    out *= math.sqrt(dt)
    return out


def basis_integral(cfg: SheetConfig, s: float) -> np.ndarray:
    """int_0^s g_j(a) da for each indicator-basis factor j."""
    if not 0 <= s <= cfg.span + 1e-12:
        raise ValueError(f"s={s} outside the sheet span [0, {cfg.span}]")
    left = np.arange(cfg.factor_count) * cfg.delta_p
    overlap = np.clip(s - left, 0.0, cfg.delta_p)
    return overlap / np.sqrt(cfg.delta_p)


def sheet_value(cfg: SheetConfig, beta: np.ndarray, s: float) -> np.ndarray:
    """W(t, s) from factor levels beta_j(t) (cumulated increments up to t)."""
    beta = np.asarray(beta, dtype=float)
    return beta @ basis_integral(cfg, s)
