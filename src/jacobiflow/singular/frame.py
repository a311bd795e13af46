"""Moving-frame normal form of the flow near a vanishing weight.

Near an instant where the weight ``b`` vanishes to finite order ``m`` while
``sigma(X, Xdot)`` stays nonzero, the rank-one flow

    eta' = sigma(X(t), eta) / b(t) * X(t)

is conjugated by a symplectic series frame ``M(t)`` into a block system

    mu' = [[0, B(t)], [C(t), 0]] mu,      B(t) = Bnum(t) / t**m,

where the singular block has size ``k`` (1 when ``span{X, X', X''}`` is
two-dimensional, 2 when it is three-dimensional), ``Bnum`` is analytic with
``Bnum(0) = diag(1/b_m, 0)`` and ``C`` is diagonal.  The frame columns are

    e1 = X,   f1 = X' / sigma(X, X'),   e2, f2 (three-dimensional case),

completed by constant-coefficient pairs spanning the skew complement.  The
block matrices are extracted by exact truncated-series conjugation of the
frame rather than from tabulated bracket formulas, so every consumer of the
normal form (classification, model solutions, blow-up jets, jump operators)
sees one consistent sign convention.  ``B`` is negative definite for small
positive times; when the raw frame violates this in the (2,2) entry the
``f2`` column is sheared by ``a(t) * e2`` with a polynomial ``a``.

The block system is evaluated on every integrator stage, so
:class:`NormalFormCoefficients` compiles its stacks once at construction
and evaluates them in a single Horner pass (see its docstring).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from ..errors import (
    AdjustError,
    DegenerateError,
    NondegeneracyError,
    PoleError,
    PreconditionError,
    SingularityError,
)
from ..flows import HamiltonianCoefficients
from ..series import (
    mconv,
    meval,
    sconv,
    sder,
    sexp,
    sint,
    srecip,
    strim,
    taylor_recenter,
)

__all__ = [
    "NormalFormCoefficients",
    "NormalFormFrame",
    "build_normal_frame",
    "f2_negativity_adjust",
]

SYMPLECTIC_TOL = 1e-8
BLOCK_TOL = 1e-8
DEFAULT_NTERMS = 40


# ---------------------------------------------------------------------------
# stack utilities
# ---------------------------------------------------------------------------


def _pad(a: np.ndarray, nterms: int) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.shape[0] >= nterms:
        return a[:nterms].copy()
    out = np.zeros((nterms,) + a.shape[1:])
    out[: a.shape[0]] = a
    return out


def _shift_up(a: np.ndarray, m: int) -> np.ndarray:
    if m == 0:
        return a.copy()
    out = np.zeros_like(a)
    out[m:] = a[: a.shape[0] - m]
    return out


def _vsigma(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """Series of sigma(u(t), v(t)) for vector stacks shaped (L, 2n)."""
    length = min(u.shape[0], v.shape[0])
    out = np.zeros(length)
    for j in range(length):
        a = u[j]
        if not a.any():
            continue
        w = v[: length - j]
        out[j:] += w[:, n:] @ a[:n] - w[:, :n] @ a[n:]
    return out


def _svmul(s: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Scalar-series times vector-series, truncated to the vector window."""
    length = v.shape[0]
    out = np.zeros_like(v)
    for j in range(min(s.shape[0], length)):
        if s[j] == 0.0:
            continue
        out[j:] += s[j] * v[: length - j]
    return out


def _japply(a: np.ndarray) -> np.ndarray:
    """Left multiplication by the structure matrix on a (L, 2n, 2n) stack."""
    n = a.shape[1] // 2
    return np.concatenate([a[:, n:, :], -a[:, :n, :]], axis=1)


def _jright(a: np.ndarray) -> np.ndarray:
    """Right multiplication by the structure matrix on a (L, 2n, 2n) stack."""
    n = a.shape[2] // 2
    return np.concatenate([-a[:, :, n:], a[:, :, :n]], axis=2)


def _mtranspose(a: np.ndarray) -> np.ndarray:
    return np.transpose(a, (0, 2, 1))


def _symplectic_inverse_stack(m: np.ndarray) -> np.ndarray:
    return -_japply(_jright(_mtranspose(m)))


def _series_solve(rows: list[list[np.ndarray]], rhs: list[np.ndarray]) -> list[np.ndarray]:
    """Solve a small square series system by Gaussian elimination.

    Pivots on the largest constant term; every entry is a coefficient stack.
    """
    size = len(rows)
    a = [[row[j].copy() for j in range(size)] for row in rows]
    r = [x.copy() for x in rhs]
    perm = list(range(size))
    for col in range(size):
        piv = max(range(col, size), key=lambda i: abs(a[i][col][0]))
        if abs(a[piv][col][0]) < 1e-13:
            raise DegenerateError("singular series system in frame construction")
        a[col], a[piv] = a[piv], a[col]
        r[col], r[piv] = r[piv], r[col]
        perm[col], perm[piv] = perm[piv], perm[col]
        inv = srecip(a[col][col])
        for j in range(col, size):
            a[col][j] = sconv(inv, a[col][j], inv.shape[0])
        r[col] = sconv(inv, r[col], inv.shape[0])
        for i in range(size):
            if i == col:
                continue
            factor = a[i][col]
            if not factor.any():
                continue
            for j in range(col, size):
                a[i][j] = a[i][j] - sconv(factor, a[col][j], factor.shape[0])
            r[i] = r[i] - sconv(factor, r[col], factor.shape[0])
    return r


# ---------------------------------------------------------------------------
# coefficient container
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormalFormCoefficients:
    """Block-system data ``B = 1/b + [[b11, b12], [b12, b22]]``, ``C`` diagonal.

    All entries are coefficient stacks in the local time (lowest order
    first); ``b`` vanishes to order ``m`` at zero.  For ``k == 1`` only
    ``b11`` and ``c11`` are meaningful.

    The stacks are compiled once, at construction: the analytic part of
    ``[[0, B], [C, 0]]`` becomes one ``(L, 2k, 2k)`` stack and ``b`` one
    stack, both without trailing zero orders.  :meth:`system` is then one
    :func:`~jacobiflow.series.meval` pass plus the pole term ``1/b(t)``
    added to entry ``(0, k)``; every value equals the entrywise ``polyval``
    assembly bit for bit.  The instance and its arrays are read-only, so the
    compiled stacks cannot go stale.
    """

    k: int
    m: int
    b: np.ndarray
    b11: np.ndarray
    c11: np.ndarray
    b12: np.ndarray = field(default_factory=lambda: np.zeros(1))
    b22: np.ndarray = field(default_factory=lambda: np.zeros(1))
    c22: np.ndarray = field(default_factory=lambda: np.zeros(1))
    _system_stack: np.ndarray = field(init=False, repr=False, compare=False)
    _b_stack: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.k not in (1, 2):
            raise PreconditionError("block size must be 1 or 2")
        if self.m < 0:
            raise PreconditionError("vanishing order must be nonnegative")
        for name in ("b", "b11", "c11", "b12", "b22", "c22"):
            arr = np.array(getattr(self, name), dtype=float, ndmin=1)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        scale = float(np.max(np.abs(self.b))) if self.b.size else 0.0
        if scale == 0.0:
            raise PreconditionError("weight series is identically zero")
        lead = self.b[self.m] if self.m < self.b.size else 0.0
        if abs(lead) <= 1e-12 * scale:
            raise PreconditionError("weight series does not have the stated vanishing order")

        k = self.k
        entries = [((0, k), self.b11), ((k, 0), self.c11)]
        if k == 2:
            entries += [((0, 3), self.b12), ((1, 2), self.b12), ((1, 3), self.b22),
                        ((3, 1), self.c22)]
        stack = np.zeros((max(c.size for _, c in entries), 2 * k, 2 * k))
        for (i, j), c in entries:
            stack[: c.size, i, j] = c
        for name, arr in (("_system_stack", strim(stack)), ("_b_stack", strim(self.b))):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def b_m(self) -> float:
        return float(self.b[self.m])

    def b_value(self, tau: float) -> float:
        return float(meval(self._b_stack, tau))

    def bhat(self, tau: float) -> np.ndarray:
        """Full ``B(tau)`` including the ``1/b`` pole; exact rational."""
        k = self.k
        return self.system(tau)[:k, k:]

    def chat(self, tau: float) -> np.ndarray:
        k = self.k
        return meval(self._system_stack, tau)[k:, :k]

    def system(self, tau: float) -> np.ndarray:
        """Block system matrix ``[[0, B], [C, 0]]`` at ``tau``."""
        bval = self.b_value(tau)
        if bval == 0.0:
            raise PoleError(f"weight vanishes at t={tau!r}")
        out = meval(self._system_stack, tau)
        out[0, self.k] += 1.0 / bval
        return out

    def bnum_stack(self, nterms: int) -> np.ndarray:
        """Stack of the analytic numerator ``t**m * B(t)``."""
        sb = srecip(_pad(self.b, nterms + self.m)[self.m :], nterms)
        out = np.zeros((nterms, self.k, self.k))
        out[:, 0, 0] = sb + _shift_up(_pad(self.b11, nterms), self.m)
        if self.k == 2:
            off = _shift_up(_pad(self.b12, nterms), self.m)
            out[:, 0, 1] = off
            out[:, 1, 0] = off
            out[:, 1, 1] = _shift_up(_pad(self.b22, nterms), self.m)
        return out

    def cnf_stack(self, nterms: int) -> np.ndarray:
        out = np.zeros((nterms, self.k, self.k))
        out[:, 0, 0] = _pad(self.c11, nterms)
        if self.k == 2:
            out[:, 1, 1] = _pad(self.c22, nterms)
        return out

    def hamiltonian(self, nterms: int = DEFAULT_NTERMS) -> HamiltonianCoefficients:
        """Polynomial-coefficient view usable by the adaptive integrator.

        The stacks are truncated series, so the view is only valid inside
        their common convergence window; exact for polynomial inputs.
        """
        k = self.k
        return HamiltonianCoefficients(
            a=np.zeros((1, k, k)),
            b=self.bnum_stack(nterms),
            c=self.cnf_stack(nterms),
            pole_order=self.m,
        )

    def as_callable(self):
        return self.system


# ---------------------------------------------------------------------------
# frame container
# ---------------------------------------------------------------------------


@dataclass
class NormalFormFrame:
    """Symplectic series frame together with the extracted block system."""

    case: str
    k: int
    n: int
    m: int
    beta: int
    frame: np.ndarray
    coeffs: NormalFormCoefficients
    q: np.ndarray
    sigma_xxdot: float
    b_m: float
    symplectic_residual: float
    cross_residual: float
    adjust: np.ndarray | None
    x_stack: np.ndarray
    b_stack: np.ndarray

    @property
    def nterms(self) -> int:
        return self.frame.shape[0]

    def frame_at(self, tau: float) -> np.ndarray:
        return meval(self.frame, tau)

    def block_columns(self) -> list[int]:
        return list(range(self.k)) + list(range(self.n, self.n + self.k))


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def _local_data(data, tau_star: float, nterms: int) -> tuple[np.ndarray, np.ndarray]:
    """Recentre the piece of ``data`` right of ``tau_star`` at zero."""
    piece = data.piece_index(tau_star, side="+")
    b_loc = taylor_recenter(np.asarray(data.b_pieces[piece], dtype=float), tau_star)
    xp = np.asarray(data.x_pieces[piece], dtype=float)
    x_loc = np.stack([taylor_recenter(row, tau_star) for row in xp], axis=1)
    return _pad(b_loc, nterms), _pad(x_loc, nterms)


def _vanishing_order(b_loc: np.ndarray) -> int:
    scale = float(np.max(np.abs(b_loc)))
    if scale == 0.0:
        raise PreconditionError("weight is identically zero near the marked instant")
    idx = np.nonzero(np.abs(b_loc) > 1e-12 * scale)[0]
    return int(idx[0])


def _span_size(x: np.ndarray, dx: np.ndarray, ddx: np.ndarray) -> int:
    cols = np.stack([x[0], dx[0], ddx[0]], axis=1)
    norms = np.linalg.norm(cols, axis=0)
    norms[norms == 0.0] = 1.0
    sv = np.linalg.svd(cols / norms, compute_uv=False)
    return int(np.sum(sv > 1e-7 * sv[0]))


def _basis_pairing(u: np.ndarray, coord: int, n: int) -> np.ndarray:
    """Series of sigma(u(t), basis_vector(coord))."""
    if coord < n:
        return -u[:, n + coord].copy()
    return u[:, coord - n].copy()


def _assemble(
    x: np.ndarray,
    b_loc: np.ndarray,
    m: int,
    k: int,
    a_coeffs: np.ndarray | None,
) -> dict:
    nterms, dim = x.shape
    n = dim // 2
    dx = _pad(sder(x), nterms)
    ddx = _pad(sder(dx), nterms)

    s1 = _vsigma(x, dx, n)
    e1 = x.copy()
    f1 = _svmul(srecip(s1), dx)

    columns = [e1]
    f_columns = [f1]
    pairs = [(e1, f1)]

    if k == 2:
        inv_rev = srecip(_vsigma(dx, x, n))
        coef1 = sconv(_vsigma(ddx, x, n), inv_rev, nterms)
        coef2 = sconv(_vsigma(ddx, dx, n), inv_rev, nterms)
        e2 = ddx - _svmul(coef1, dx) + _svmul(coef2, x)
        rows_src = (x, dx, ddx)
        best = None
        for triple in combinations(range(dim), 3):
            det0 = np.linalg.det(
                np.array([[_basis_pairing(u, c, n)[0] for c in triple] for u in rows_src])
            )
            if best is None or abs(det0) > abs(best[1]):
                best = (triple, det0)
        triple, det0 = best
        if abs(det0) < 1e-10:
            raise NondegeneracyError("derivative pairings too degenerate to build f2")
        rows = [[_basis_pairing(u, c, n) for c in triple] for u in rows_src]
        rhs = [np.zeros(nterms), np.zeros(nterms), np.zeros(nterms)]
        rhs[2][0] = 1.0
        sol = _series_solve(rows, rhs)
        f2 = np.zeros_like(x)
        for c, s in zip(triple, sol):
            f2[:, c] += s
        if a_coeffs is not None:
            f2 = f2 + _svmul(_pad(a_coeffs, nterms), e2)
        # the raw pair carries a diagonal drift sigma(e2', f2); rescaling the
        # pair by exp(-integral) removes it and is the Q factor of the block
        rate = _vsigma(_pad(sder(e2), nterms), f2, n)
        q22 = sexp(sint(rate)[:nterms])
        e2 = _svmul(srecip(q22), e2)
        f2 = _svmul(q22, f2)
        columns.append(e2)
        f_columns.append(f2)
        pairs.append((e2, f2))

    def project(v: np.ndarray) -> np.ndarray:
        for e, f in pairs:
            v = v - _svmul(_vsigma(v, f, n), e) + _svmul(_vsigma(v, e, n), f)
        return v

    pool = []
    for c in range(dim):
        cand = np.zeros_like(x)
        cand[0, c] = 1.0
        cand = project(cand)
        if np.linalg.norm(cand[0]) > 1e-6:
            pool.append(cand)

    while len(pairs) < n:
        pool.sort(key=lambda v: -np.linalg.norm(v[0]))
        g = pool.pop(0)
        scores = [abs(_vsigma(g, w, n)[0]) for w in pool]
        if not scores or max(scores) < 1e-8:
            raise NondegeneracyError("cannot complete the frame to a symplectic basis")
        w = pool.pop(int(np.argmax(scores)))
        h = _svmul(srecip(_vsigma(g, w, n)), w)
        pairs.append((g, h))
        columns.append(g)
        f_columns.append(h)
        pool = [
            v - _svmul(_vsigma(v, h, n), g) + _svmul(_vsigma(v, g, n), h) for v in pool
        ]

    frame = np.zeros((nterms, dim, dim))
    for j, col in enumerate(columns):
        frame[:, :, j] = col
    for j, col in enumerate(f_columns):
        frame[:, :, n + j] = col

    # symplectic residual of the series frame
    gram = mconv(_mtranspose(frame), _japply(frame))
    gram[0, :n, n:] -= np.eye(n)
    gram[0, n:, :n] += np.eye(n)
    scale = max(1.0, float(np.max(np.abs(frame))) ** 2)
    sym_res = float(np.max(np.abs(gram))) / scale

    minv = _symplectic_inverse_stack(frame)
    # the padded derivative has an unknown top coefficient; drop that order
    g_mat = -mconv(minv, _pad(sder(frame), nterms))[: nterms - 1]

    ps = list(range(k))
    qs = list(range(n, n + k))
    a_blk = g_mat[:, ps, :][:, :, ps]
    b_an = g_mat[:, ps, :][:, :, qs]
    c_blk = g_mat[:, qs, :][:, :, ps]

    comp = [i for i in range(dim) if i not in ps + qs]
    if comp:
        cross = max(
            float(np.max(np.abs(g_mat[:, ps + qs, :][:, :, comp]))),
            float(np.max(np.abs(g_mat[:, comp, :][:, :, ps + qs]))),
        )
    else:
        cross = 0.0

    return {
        "frame": frame,
        "sym_res": sym_res,
        "a_blk": a_blk,
        "b_an": b_an,
        "c_blk": c_blk,
        "cross": cross,
        "s1": s1,
        "q22": q22 if k == 2 else None,
        "n": n,
    }


def _frame_from_parts(
    x: np.ndarray,
    b_loc: np.ndarray,
    m: int,
    k: int,
    parts: dict,
    a_coeffs: np.ndarray | None,
) -> NormalFormFrame:
    nterms = x.shape[0]
    n = parts["n"]
    scale = max(1.0, float(np.max(np.abs(parts["b_an"]))), float(np.max(np.abs(parts["c_blk"]))))
    if parts["sym_res"] > SYMPLECTIC_TOL:
        raise NondegeneracyError(
            f"frame symplectic residual {parts['sym_res']:.2e} exceeds {SYMPLECTIC_TOL:.0e}"
        )
    a_res = float(np.max(np.abs(parts["a_blk"]))) / scale
    if a_res > BLOCK_TOL:
        raise NondegeneracyError(f"diagonal block of the reduced system is not zero ({a_res:.2e})")
    c_off = 0.0
    if k == 2:
        c_off = max(
            float(np.max(np.abs(parts["c_blk"][:, 0, 1]))),
            float(np.max(np.abs(parts["c_blk"][:, 1, 0]))),
        ) / scale
        if c_off > BLOCK_TOL:
            raise NondegeneracyError(f"reduced C block is not diagonal ({c_off:.2e})")
        b_asym = float(np.max(np.abs(parts["b_an"][:, 0, 1] - parts["b_an"][:, 1, 0]))) / scale
        if b_asym > BLOCK_TOL:
            raise NondegeneracyError(f"reduced B block is not symmetric ({b_asym:.2e})")
    if parts["cross"] / scale > BLOCK_TOL:
        raise NondegeneracyError(
            "singular block couples to the skew complement; the derivative span "
            "of X does not close at this instant"
        )

    b_an = parts["b_an"]
    c_blk = parts["c_blk"]
    if k == 2:
        coeffs = NormalFormCoefficients(
            k=2,
            m=m,
            b=b_loc,
            b11=b_an[:, 0, 0],
            b12=0.5 * (b_an[:, 0, 1] + b_an[:, 1, 0]),
            b22=b_an[:, 1, 1],
            c11=c_blk[:, 0, 0],
            c22=c_blk[:, 1, 1],
        )
    else:
        coeffs = NormalFormCoefficients(
            k=1, m=m, b=b_loc, b11=b_an[:, 0, 0], c11=c_blk[:, 0, 0]
        )

    q = np.zeros((nterms, k, k))
    q[0, 0, 0] = 1.0
    if k == 2:
        q[:, 1, 1] = _pad(parts["q22"], nterms)

    return NormalFormFrame(
        case="span3" if k == 2 else "span2",
        k=k,
        n=n,
        m=m,
        beta=m - 2,
        frame=parts["frame"],
        coeffs=coeffs,
        q=q,
        sigma_xxdot=float(parts["s1"][0]),
        b_m=float(b_loc[m]),
        symplectic_residual=parts["sym_res"],
        cross_residual=parts["cross"],
        adjust=None if a_coeffs is None else np.asarray(a_coeffs, dtype=float),
        x_stack=x,
        b_stack=b_loc,
    )


def build_normal_frame(
    data,
    tau_star: float = 0.0,
    *,
    nterms: int = DEFAULT_NTERMS,
    adjust: bool = True,
) -> NormalFormFrame:
    """Build the symplectic series frame at a vanishing instant of the weight.

    ``data`` is a :class:`~jacobiflow.engine.PiecewiseAnalytic`; the piece to
    the right of ``tau_star`` is recentred so the frame lives at local time
    zero.  With ``adjust`` the (2,2) entry of the reduced ``B`` block is made
    negative at zero by shearing ``f2``.
    """
    b_loc, x = _local_data(data, tau_star, nterms)
    m = _vanishing_order(b_loc)
    if m >= 1 and b_loc[m] > 0.0:
        raise SingularityError("leading weight coefficient must be negative")
    if m == 0 and b_loc[0] > 0.0:
        raise SingularityError("weight must be negative on the regular side")

    dx = _pad(sder(x), nterms)
    ddx = _pad(sder(dx), nterms)
    s1 = _vsigma(x, dx, x.shape[1] // 2)
    x_scale = max(1.0, float(np.max(np.abs(x[0]))) ** 2)
    if abs(s1[0]) <= 1e-10 * x_scale:
        raise NondegeneracyError("sigma(X, Xdot) vanishes at the marked instant")
    k = min(2, _span_size(x, dx, ddx) - 1)
    if k < 1:
        raise NondegeneracyError("X and Xdot are parallel at the marked instant")

    parts = _assemble(x, b_loc, m, k, None)
    frame = _frame_from_parts(x, b_loc, m, k, parts, None)
    if adjust and k == 2:
        frame = f2_negativity_adjust(frame)
    return frame


def f2_negativity_adjust(frame: NormalFormFrame, max_degree: int = 4) -> NormalFormFrame:
    """Shear ``f2`` by ``a(t) e2`` so the reduced ``B(2,2)`` entry is negative at 0.

    The entry is affine in the linear coefficient of ``a``, so a degree-one
    shear always suffices; the degree cap is kept as a guard for callers that
    lower it.
    """
    if frame.k != 2:
        return frame
    v0 = float(frame.coeffs.b22[0])
    if v0 < -1e-10:
        return frame
    if max_degree < 1:
        raise AdjustError("negativity adjustment requires at least a degree-1 shear")

    def rebuild(a_coeffs: np.ndarray) -> NormalFormFrame:
        parts = _assemble(frame.x_stack, frame.b_stack, frame.m, 2, a_coeffs)
        return _frame_from_parts(frame.x_stack, frame.b_stack, frame.m, 2, parts, a_coeffs)

    probe = rebuild(np.array([0.0, 1.0]))
    slope = float(probe.coeffs.b22[0]) - v0
    if abs(slope) < 1e-8:
        raise AdjustError("shear has no effect on the B(2,2) entry")
    kstar = (-1.0 - v0) / slope
    adjusted = rebuild(np.array([0.0, kstar]))
    if float(adjusted.coeffs.b22[0]) >= 0.0:
        raise AdjustError("negativity adjustment failed to make B(2,2) negative")
    return adjusted
