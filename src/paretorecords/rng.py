"""Counter-based random streams with per-observation random access.

Every observation vector is addressed by (master_seed, trial, index): the
coordinates of observation ``i`` in trial ``t`` are a pure function of that
triple, independent of how the stream is chunked or of any draws made before.
This is what makes ensembles reproducible under any threading layout: workers
never share mutable generator state, they just compute at disjoint addresses.

Implementation: Philox4x64 keyed by (master_seed, trial). The Philox counter
advances one unit per 4 generated doubles, so observation ``i`` of dimension
``d`` owns the block range ``[i*B, (i+1)*B)`` with ``B = ceil(d/4)`` blocks,
and positioning is exact: observation ``i`` starts at counter block ``i*B``.
Any unused doubles at the tail of an observation's block budget are
discarded, never carried over.

A stream keeps one generator and the observation index it stands at.  Every
read consumes whole counter blocks, so after a read the generator stands
exactly where a generator built for the next address would start, and the
next read draws from it directly.  Only a read after the cursor has moved
away (``seek``, or an assignment to ``index``) builds a new generator at the
new address.  Copies and pickles leave the generator behind and build their
own on their first read, so no two streams share one.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Generator, Philox

from .records import _as_int

__all__ = ["ObservationStream"]

_DOUBLES_PER_BLOCK = 4  # Philox4x64 emits 4 uint64 words per counter increment

_U64 = 1 << 64


def _exponential(u: np.ndarray) -> np.ndarray:
    """The exponential map: Exponential(1) values -log1p(-U), elementwise.

    Finite and nonnegative for every U in [0, 1).  The one definition of an
    observation's coordinates, whether a stream or the trial engine (which
    maps only the uniforms it keeps) applies it; being elementwise, it gives
    a uniform the same value wherever it sits in an array.
    """
    return -np.log1p(-u)


class ObservationStream:
    """Deterministic stream of iid Exponential(1) observation vectors.

    Parameters
    ----------
    master_seed : int
        Ensemble-level seed, in ``[0, 2**64)``.
    trial : int, optional
        Trial index within the ensemble.  Distinct trials give statistically
        independent streams under the same master seed.
    dim : int, optional
        Number of coordinates per observation (default 1).

    Notes
    -----
    ``take(k)`` returns the next ``k`` observations and advances the cursor;
    ``seek(i)`` repositions it.  The sequence of observations is a function of
    the address alone, so ``take(5)`` followed by ``take(3)`` yields bitwise
    the same 8 vectors as a single ``take(8)``.
    """

    def __init__(self, master_seed: int, trial: int = 0, dim: int = 1):
        self.master_seed = _as_int(master_seed, "master_seed", 0, _U64 - 1)
        self.trial = _as_int(trial, "trial", 0, _U64 - 1)
        self.dim = _as_int(dim, "dim", 1)
        self._blocks_per_obs = -(-self.dim // _DOUBLES_PER_BLOCK)
        self._key = np.array([self.master_seed, self.trial], dtype=np.uint64)
        self.index = 0  # index of the next observation to be produced
        self._gen = None  # built on the first read
        self._gen_index = -1  # the observation self._gen stands at; -1: none

    def __getstate__(self) -> dict:
        # copies and pickles build their own generator: a shared one would
        # advance under both streams
        return {**self.__dict__, "_gen": None, "_gen_index": -1}

    def _generator_at(self, obs_index: int) -> Generator:
        """The stream's generator, standing at the first block of
        ``obs_index``: the one a read left there, else a new one."""
        if self._gen_index != obs_index:
            # Philox counter is 256-bit, little word first; block address fits
            # the low word for any realistic index (n_max * B << 2**64).
            block = obs_index * self._blocks_per_obs
            counter = np.array([block % _U64, block // _U64, 0, 0], dtype=np.uint64)
            self._gen = Generator(Philox(key=self._key, counter=counter))
            self._gen_index = obs_index
        return self._gen

    def seek(self, obs_index: int) -> None:
        """Position the cursor so the next ``take`` starts at ``obs_index``."""
        self.index = _as_int(obs_index, "obs_index", 0)

    def take_uniforms(self, count: int) -> np.ndarray:
        """Next ``count`` observation slots as raw U(0,1) matrices.

        Returns a ``(count, dim)`` array of uniforms on [0, 1) and advances
        the cursor by ``count``.  Each observation still consumes its full
        block budget, so uniform and exponential reads at the same address
        see the same underlying bits.
        """
        count = _as_int(count, "count", 0)
        if count == 0:
            return np.empty((0, self.dim), dtype=np.float64)
        gen = self._generator_at(self.index)
        width = self._blocks_per_obs * _DOUBLES_PER_BLOCK
        raw = gen.random(count * width).reshape(count, width)
        self.index += count
        self._gen_index = self.index
        return raw[:, : self.dim]

    def take(self, count: int) -> np.ndarray:
        """Next ``count`` observations as a ``(count, dim)`` array.

        Coordinates are iid Exponential(1), the uniforms of
        ``take_uniforms`` under the exponential map -log1p(-U).
        """
        return _exponential(self.take_uniforms(count))

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"ObservationStream(master_seed={self.master_seed}, trial={self.trial}, "
            f"dim={self.dim}, index={self.index})"
        )
