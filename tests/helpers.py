"""Builders shared by the tests: linear Hamiltonian systems from polynomial
coefficient blocks, random Lagrangian planes, the first-jet continuation
carried past its series window, and the SVD route of the isotropic
extension as the oracle of the rank-one update."""

import numpy as np

from jacobiflow.errors import PoleError, PreconditionError
from jacobiflow.flows import flow_plane
from jacobiflow.grassmann import _as_frame, canonicalize
from jacobiflow.series import meval, strim
from jacobiflow.singular.firstjet import first_jet_continuation
from jacobiflow.symplectic import TOL_ISO, TOL_RANK, gram, isotropy_residual


def hamiltonian(a, b, c, pole_order: int = 0):
    """The system ``M(t) = [[A(t), B(t)/t^m], [C(t), -A(t)^T]]`` as a callable
    of times, in the form the transport takes.

    ``a``, ``b``, ``c`` are one ``(n, n)`` matrix or a ``(d+1, n, n)`` stack of
    coefficients, lowest order first; ``m`` is ``pole_order``.  The blocks go
    into one stack that :func:`~jacobiflow.series.meval` evaluates; at a 1-D
    array of K times the result is the ``(K, 2n, 2n)`` stack.
    """
    a, b, c = (np.asarray(x, dtype=float) for x in (a, b, c))
    a, b, c = (x[None] if x.ndim == 2 else x for x in (a, b, c))
    n = a.shape[-1]
    stack = np.zeros((max(a.shape[0], b.shape[0], c.shape[0]), 2 * n, 2 * n))
    stack[: a.shape[0], :n, :n] = a
    stack[: a.shape[0], n:, n:] = -np.transpose(a, (0, 2, 1))
    stack[: b.shape[0], :n, n:] = b
    stack[: c.shape[0], n:, :n] = c
    stack = strim(stack)

    def system(t):
        out = meval(stack, t)
        if pole_order > 0:
            t = np.asarray(t, dtype=float)
            if np.any(t == 0.0):
                raise PoleError("coefficients have a pole at t = 0", 0.0)
            out[..., :n, n:] /= (t**pole_order)[..., None, None]
        return out

    return system


def random_lagrangian(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random Lagrangian plane, uniform w.r.t. the unitary-invariant measure.

    A unitary ``U = A + iB`` gives the Lagrangian frame ``[A; B]``: column
    orthonormality of U is exactly isotropy plus orthonormality downstairs.
    """
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    q = q @ np.diag(np.sign(np.where(np.real(np.diag(r)) == 0, 1.0, np.real(np.diag(r)))))
    return np.vstack([np.real(q), np.imag(q)])


def continued(coeffs, case, grid):
    """The trace of :func:`first_jet_continuation` on ``grid`` and the planes at
    every grid node: the series window's up to its handover time, then a
    march of the normal-form system from the window's last plane, as an
    oracle for the transport past the window."""
    trace = first_jet_continuation(coeffs, case, grid)
    times, planes = trace.curve.times, trace.curve.planes
    kept = int(np.count_nonzero(grid <= times[-1]))
    if kept == grid.size:
        return trace, planes
    flow = flow_plane(coeffs.system, planes[-1], np.append(times[-1], grid[kept:]))
    return trace, np.concatenate([planes[:kept], flow.planes[1:]])


def _paired(s, scale: float):
    """Which singular values ``s`` of the pairing matrix sigma(G, L) pair G with L.

    The threshold is ``TOL_RANK`` times ``scale``, the product of the two
    frames' spectral norms: when G nearly lies inside L the whole pairing
    matrix is round-off, and a threshold relative to the largest pairing
    would promote that noise to full rank.
    """
    return np.asarray(s) > TOL_RANK * max(scale, 1e-300)


def svd_meet(plane: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``L ∩ G^∠`` by the SVD of the pairing matrix: ``plane @ vt[rank:].T``."""
    a = gram(g, plane)  # rows: sigma(g_i, l_j)
    if not a.size:
        return plane
    u, s, vt = np.linalg.svd(a)
    rank = int(np.sum(_paired(s, np.linalg.norm(g, 2) * np.linalg.norm(plane, 2))))
    return plane @ vt[rank:].T


def svd_extension(plane: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The extension ``L^G = (L ∩ G^∠) + G`` by two SVDs, with the arithmetic
    ``grassmann.extend_by_isotropic`` had before the rank-one update replaced
    it; a canonical frame."""
    plane = _as_frame(plane)
    g = _as_frame(g)
    if g.shape[0] != plane.shape[0]:
        raise PreconditionError("frames live in different ambient spaces")
    if isotropy_residual(g) > TOL_ISO:
        raise PreconditionError("extension frame is not isotropic to tolerance")
    stacked = np.hstack([svd_meet(plane, g), g])
    # G may already lie inside L, making the stacked frame rank deficient;
    # keep an orthonormal basis of the span before canonicalising
    u, s, _ = np.linalg.svd(stacked, full_matrices=False)
    keep = int(np.sum(s > TOL_RANK * s[0])) if s.size and s[0] > 0 else 0
    return canonicalize(u[:, :keep])
