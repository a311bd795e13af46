"""Core symplectic linear algebra on R^(2n).

Coordinates are ordered ``(p_1, .., p_n, q_1, .., q_n)`` and the symplectic
form is ``sigma(u, v) = u^T J v`` with ``J = [[0, I], [-I, 0]]``.  The
structure matrix J is never materialised: :func:`apply_j` swaps the blocks
in place, which is all any routine here needs.

Unless stated otherwise a *frame* is a ``(2n, k)`` array whose columns span
the subspace under discussion.
"""

from __future__ import annotations

import numpy as np

from .errors import PreconditionError

__all__ = [
    "apply_j",
    "symplectic_form",
    "gram",
    "skew_complement",
    "symplectic_inverse",
    "check_structure",
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


def apply_j(v: np.ndarray) -> np.ndarray:
    """Apply the structure matrix J to a vector or to the columns of a matrix.

    ``J (p, q) = (q, -p)`` in block form; works for 1-D and 2-D arrays.
    """
    v = np.asarray(v, dtype=float)
    n = dim_to_n(v.shape[0])
    out = np.empty_like(v)
    out[:n] = v[n:]
    out[n:] = -v[:n]
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
    """Matrix of sigma-pairings ``G[i, j] = sigma(f_i, g_j)`` between two frames."""
    f = np.atleast_2d(np.asarray(f, dtype=float))
    g = np.atleast_2d(np.asarray(g, dtype=float))
    if f.ndim == 2 and f.shape[0] == 1:
        f = f.T
    if g.ndim == 2 and g.shape[0] == 1:
        g = g.T
    return f.T @ apply_j(g)


def isotropy_residual(f: np.ndarray) -> float:
    """Max |sigma(f_i, f_j)| scaled by the column norms (0 for exact isotropy)."""
    f = np.asarray(f, dtype=float)
    if f.ndim == 1:
        f = f[:, None]
    scale = np.linalg.norm(f, axis=0)
    scale = np.where(scale == 0.0, 1.0, scale)
    return float(np.max(np.abs(gram(f, f)) / np.outer(scale, scale)))


def frame_rank(f: np.ndarray, tol: float = TOL_RANK) -> int:
    """Numerical rank of a frame (relative threshold on singular values)."""
    f = np.asarray(f, dtype=float)
    if f.ndim == 1:
        f = f[:, None]
    if f.size == 0:
        return 0
    s = np.linalg.svd(f, compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.sum(s > tol * s[0]))


def skew_complement(g: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the sigma-orthogonal complement of span(g).

    Returns a ``(2n, 2n - rank g)`` frame spanning
    ``{v : sigma(g_i, v) = 0 for all columns g_i}``.
    """
    g = np.asarray(g, dtype=float)
    if g.ndim == 1:
        g = g[:, None]
    dim = g.shape[0]
    dim_to_n(dim)
    a = gram(g, np.eye(dim))  # rows are sigma(g_i, e_j)
    u, s, vt = np.linalg.svd(a)
    if s.size and s[0] > 0:
        rank = int(np.sum(s > TOL_RANK * s[0]))
    else:
        rank = 0
    return vt[rank:].T.copy()


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


def check_structure(m: np.ndarray, kind: str, tol: float = 1e-9) -> bool:
    """Test whether a 2n x 2n matrix is symplectic or Hamiltonian.

    Parameters
    ----------
    m : (2n, 2n) array
    kind : {"symplectic", "hamiltonian"}
        ``symplectic`` tests ``M^T J M = J``; ``hamiltonian`` tests that
        ``J M`` is symmetric (equivalently ``M^T J + J M = 0``).
    tol : float
        Absolute tolerance on the max-norm of the residual, scaled by
        ``max(1, |M|_max^2)`` for the symplectic test.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise PreconditionError("check_structure expects a square matrix")
    dim_to_n(m.shape[0])
    jm = apply_j(m)
    if kind == "symplectic":
        resid = m.T @ jm
        n = m.shape[0] // 2
        resid[:n, n:] -= np.eye(n)
        resid[n:, :n] += np.eye(n)
        scale = max(1.0, float(np.max(np.abs(m))) ** 2)
        return bool(np.max(np.abs(resid)) <= tol * scale)
    if kind == "hamiltonian":
        resid = jm - jm.T
        scale = max(1.0, float(np.max(np.abs(m))))
        return bool(np.max(np.abs(resid)) <= tol * scale)
    raise PreconditionError(f"unknown structure kind {kind!r}")
