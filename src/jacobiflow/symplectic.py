"""Core symplectic linear algebra on R^(2n).

Coordinates are ordered ``(p_1, .., p_n, q_1, .., q_n)`` and the symplectic
form is ``sigma(u, v) = u^T J v`` with ``J = [[0, I], [-I, 0]]``.  The
structure matrix J is never materialised: :func:`apply_j` swaps the blocks
in place, which is all any routine here needs.

Unless stated otherwise a *frame* is a ``(2n, k)`` array whose columns span
the subspace under discussion.  :func:`gram` and :func:`isotropy_residual`
also take a ``(K, 2n, k)`` stack of frames and then give one result per
frame, each equal bit for bit to the call on that frame alone.
"""

from __future__ import annotations

import numpy as np

from .errors import PreconditionError

__all__ = [
    "apply_j",
    "symplectic_form",
    "gram",
    "symplectic_inverse",
]

#: relative tolerance used for numerical rank decisions
TOL_RANK = 1e-9
#: relative tolerance on the sigma-Gram matrix of an isotropic frame
TOL_ISO = 1e-8


def dim_to_n(dim: int) -> int:
    """Half-dimension n from an ambient dimension 2n."""
    if dim % 2 != 0 or dim <= 0:
        raise PreconditionError(f"ambient dimension must be even and positive, got {dim}")
    return dim // 2


def apply_j(v: np.ndarray, axis: int = 0) -> np.ndarray:
    """Apply the structure matrix J to a vector or to the columns of a matrix.

    ``J (p, q) = (q, -p)`` in block form, along ``axis``, the coordinate axis.
    """
    v = np.asarray(v, dtype=float)
    n = dim_to_n(v.shape[axis])
    out = np.empty_like(v)
    head = (slice(None),) * (axis % v.ndim)
    out[head + (slice(None, n),)] = v[head + (slice(n, None),)]
    out[head + (slice(n, None),)] = -v[head + (slice(None, n),)]
    return out


def symplectic_form(u: np.ndarray, v: np.ndarray) -> float:
    """Evaluate sigma(u, v) = u^T J v for two vectors in R^(2n)."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape or u.ndim != 1:
        raise PreconditionError("symplectic_form expects two vectors of equal even length")
    n = dim_to_n(u.shape[0])
    return float(u[:n] @ v[n:] - u[n:] @ v[:n])


def gram(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Matrix of sigma-pairings ``G[i, j] = sigma(f_i, g_j)`` between two frames.

    Stacks of frames give the stack of their Gram matrices.
    """
    f = np.atleast_2d(np.asarray(f, dtype=float))
    g = np.atleast_2d(np.asarray(g, dtype=float))
    if f.ndim == 2 and f.shape[0] == 1:
        f = f.T
    if g.ndim == 2 and g.shape[0] == 1:
        g = g.T
    return np.swapaxes(f, -1, -2) @ apply_j(g, axis=-2)


def isotropy_residual(f: np.ndarray):
    """Max |sigma(f_i, f_j)| scaled by the column norms (0 for exact isotropy).

    A float for one frame, an array with one residual per frame for a stack.
    """
    f = np.asarray(f, dtype=float)
    if f.ndim == 1:
        f = f[:, None]
    scale = np.linalg.norm(f, axis=-2)
    scale = np.where(scale == 0.0, 1.0, scale)
    res = np.max(np.abs(gram(f, f)) / (scale[..., :, None] * scale[..., None, :]), axis=(-2, -1))
    return float(res) if f.ndim == 2 else res


def symplectic_inverse(t: np.ndarray) -> np.ndarray:
    """Inverse ``-J T^T J`` of a symplectic matrix, or of each matrix of a stack.

    Blockwise ``[[T_qq^T, -T_pq^T], [-T_qp^T, T_pp^T]]``: only moves and
    sign changes, so the result is exact.  ``t`` is ``(..., 2n, 2n)``.
    """
    x = np.swapaxes(np.asarray(t, dtype=float), -1, -2)
    n = dim_to_n(x.shape[-1])
    out = np.empty_like(x)
    out[..., :n, :n] = x[..., n:, n:]
    out[..., :n, n:] = -x[..., n:, :n]
    out[..., n:, :n] = -x[..., :n, n:]
    out[..., n:, n:] = x[..., :n, :n]
    return out

