"""Builders shared by the tests: linear Hamiltonian systems from polynomial
coefficient blocks, random Lagrangian planes, the first-jet continuation
carried past its series window, the chart transform of a plane and its
jump extension, the SVD route of the isotropic
extension as the oracle of the rank-one update, and the general spectral
test of ``C(0) B(0)`` as the oracle of the scalar oscillation rule."""

import numpy as np

from jacobiflow.errors import PoleError, PreconditionError
from jacobiflow.flows import flow_plane
from jacobiflow.grassmann import _as_frame, canonicalize, extend_by_isotropic
from jacobiflow.series import meval, strim
from jacobiflow.singular.classify import NON_OSCILLATING, OSCILLATING, THRESHOLD, TOL_THRESH
from jacobiflow.singular.firstjet import first_jet_case, first_jet_continuation
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


def jet_case(plane):
    """:func:`first_jet_case` of ``plane``, with its jump extension by ``e_1``
    as the post-jump plane."""
    plane = np.asarray(plane, dtype=float)
    return first_jet_case(plane, extend_by_isotropic(plane, np.eye(plane.shape[0])[0]))


def continued(coeffs, case, grid, **kwargs):
    """The trace of :func:`first_jet_continuation` on ``grid`` and the planes at
    every grid node: the series window's up to its handover time, then a
    march of the normal-form system from the window's last plane, as an
    oracle for the transport past the window.  ``kwargs`` go to
    :func:`first_jet_continuation`."""
    trace = first_jet_continuation(coeffs, case, grid, **kwargs)
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


def kneser_classify(
    bnf0: np.ndarray,
    cnf0: np.ndarray,
    m: int,
    tol_thresh: float = TOL_THRESH,
) -> str:
    """Verdict from the block data at the singular instant.

    ``bnf0`` is the analytic numerator of ``B`` evaluated at zero (so its
    (1,1) entry is ``1/b_m``) and ``cnf0`` the diagonal ``C(0)``.
    """
    bnf0 = np.atleast_2d(np.asarray(bnf0, dtype=float))
    cnf0 = np.atleast_2d(np.asarray(cnf0, dtype=float))
    if m <= 1:
        return NON_OSCILLATING

    if m == 2:
        eigs = np.linalg.eigvals(cnf0 @ bnf0)
        if np.max(np.abs(eigs.imag)) > 1e-9 * max(1.0, np.max(np.abs(eigs))):
            # complex pair below the critical line still oscillates
            return OSCILLATING if np.min(eigs.real) < -0.25 else NON_OSCILLATING
        vals = np.sort(eigs.real)
        product = bnf0[0, 0] * cnf0[0, 0]
        band = 0.25 * tol_thresh
        if abs(product + 0.25) <= band or abs(product) <= band:
            return THRESHOLD
        if np.any(np.abs(vals + 0.25) <= band):
            return THRESHOLD
        return OSCILLATING if vals[0] < -0.25 else NON_OSCILLATING

    # m > 2: sign of C(0) restricted to the range of B(0)
    u, s, _ = np.linalg.svd(bnf0)
    rng_cols = u[:, s > 1e-12 * max(s[0], 1.0)]
    if rng_cols.shape[1] == 0:
        raise PreconditionError("B(0) vanishes; no singular direction to classify")
    wb = np.linalg.eigvalsh(rng_cols.T @ bnf0 @ rng_cols)
    wc = np.linalg.eigvalsh(rng_cols.T @ cnf0 @ rng_cols)
    b_sign = np.sign(wb[np.argmax(np.abs(wb))])
    scale = max(1.0, float(np.max(np.abs(cnf0))))
    if np.any(np.abs(wc) <= tol_thresh * scale):
        return THRESHOLD
    if np.all(np.sign(wc) == b_sign):
        return NON_OSCILLATING
    return OSCILLATING


def spectral_report(coeffs, tol_thresh: float = TOL_THRESH) -> dict:
    """The fields of the report that :func:`kneser_classify` decides, with the
    arithmetic ``classify_coefficients`` had around it: ``B(0) = diag(1/b_m,
    0)`` and ``C(0)`` from the compiled block system at zero."""
    k = coeffs.k
    bnf0 = np.zeros((k, k))
    bnf0[0, 0] = 1.0 / coeffs.b_m
    cnf0 = meval(coeffs._system_stack, 0.0)[k:, :k]
    delta = None
    if coeffs.m == 2:
        disc = 1.0 + 4.0 * bnf0[0, 0] * cnf0[0, 0]
        delta = float(np.sqrt(disc)) if disc >= 0.0 else None
    return {"m": coeffs.m, "b_m": coeffs.b_m, "sigma_xxdot": -float(cnf0[0, 0]), "delta": delta,
            "verdict": kneser_classify(bnf0, cnf0, coeffs.m, tol_thresh), "case": "", "k": k}
