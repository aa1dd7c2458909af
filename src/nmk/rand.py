"""Seeded random generators for states and matrices.

``density_hs`` draws from the Hilbert-Schmidt measure: a complex Gaussian
matrix G gives GG^dagger / Tr[GG^dagger].  Unitaries and isometries come
from QR-orthonormalized Gaussian columns with the R-diagonal phase fixed,
so every draw is deterministic per seed.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import BadDims
from .registers import Party, Register, RegisterLayout, require_integer
from .states import DensityState, PureState, _require_budget

DEFAULT_PARTIES = (Party.ALICE, Party.BOB, Party.EVE)


def as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def map_indexed(fn, count: int, jobs: int = 1) -> list:
    """``[fn(i) for i in range(count)]``, on a pool of ``jobs`` threads
    when ``jobs > 1``; results come back in index order either way."""
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, range(count)))
    return [fn(i) for i in range(count)]


def _gaussian_complex(rng, *shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_unitary(dim: int, seed) -> np.ndarray:
    """Haar-distributed unitary of order ``dim``."""
    if dim < 1:
        raise BadDims(f"unitary dim must be positive, got {dim}")
    return random_isometry(dim, dim, seed)


def random_isometry(in_dim: int, out_dim: int, seed) -> np.ndarray:
    """Column-orthonormal (out_dim x in_dim) matrix, W^dagger W = I."""
    if in_dim < 1 or out_dim < in_dim:
        raise BadDims(f"isometry needs out_dim >= in_dim >= 1, got {in_dim}->{out_dim}")
    rng = as_rng(seed)
    q, r = np.linalg.qr(_gaussian_complex(rng, out_dim, in_dim))
    phases = np.diagonal(r).copy()
    phases /= np.abs(phases)
    return q * phases


def random_pure_vector(dim: int, seed) -> np.ndarray:
    if dim < 1:
        raise BadDims(f"pure-state dim must be positive, got {dim}")
    rng = as_rng(seed)
    v = _gaussian_complex(rng, dim)
    return v / np.linalg.norm(v)


def random_density_matrix(dim: int, seed, rank: int | None = None) -> np.ndarray:
    """Hilbert-Schmidt random density matrix (optionally rank-limited)."""
    if dim < 1:
        raise BadDims(f"density dim must be positive, got {dim}")
    rank = dim if rank is None else require_integer("rank", rank, 1)
    if rank > dim:
        raise BadDims(f"rank must be in [1, {dim}], got {rank}")
    rng = as_rng(seed)
    g = _gaussian_complex(rng, dim, rank)
    m = g @ g.conj().T
    return m / np.trace(m).real


def _default_layout(dims) -> RegisterLayout:
    regs = []
    for i, d in enumerate(dims):
        party = DEFAULT_PARTIES[i] if i < len(DEFAULT_PARTIES) else Party.EVE
        label = ("A", "B", "E")[i] if i < 3 else f"E{i - 2}"
        regs.append(Register(label, d, party))
    return RegisterLayout(tuple(regs))


def sample(kind: str, dims, seed, *, layout: RegisterLayout | None = None, rank=None):
    """Draw a random object, deterministic per seed.

    kind:
        ``pure``       -> PureState on ``dims``
        ``density_hs`` -> DensityState on ``dims`` (Hilbert-Schmidt measure)
        ``unitary``    -> ndarray, ``dims`` a single int or [d]
        ``isometry``   -> ndarray, ``dims`` = (in_dim, out_dim)

    The output dimension is checked against the budget before anything is
    drawn.
    """
    rng = as_rng(seed)
    if kind == "isometry":
        try:
            in_dim, out_dim = dims
        except (TypeError, ValueError):
            raise BadDims("isometry dims must be a pair (in_dim, out_dim)") from None
        in_dim = require_integer("in_dim", in_dim, 1)
        out_dim = require_integer("out_dim", out_dim, 1)
        _require_budget(out_dim)
        return random_isometry(in_dim, out_dim, rng)
    dims = tuple(require_integer("dims", d, 1) for d in ([dims] if np.isscalar(dims) else dims))
    if kind == "unitary":
        d = math.prod(dims)
        _require_budget(d)
        return random_unitary(d, rng)
    if not dims:
        raise BadDims("need at least one register dimension")
    lay = layout if layout is not None else _default_layout(dims)
    if lay.dims != dims:
        raise BadDims(f"layout dims {lay.dims} do not match requested dims {dims}")
    total = math.prod(dims)
    _require_budget(total)
    if kind == "pure":
        return PureState(lay, random_pure_vector(total, rng))
    if kind == "density_hs":
        return DensityState(lay, random_density_matrix(total, rng, rank=rank))
    raise BadDims(f"unknown sample kind {kind!r}")
