"""Singular set analysis: tracing, null directions, classification.

The signed area density (written lam throughout) is the determinant of the
chart differential; the singular set is its zero locus.  Tracing extracts
that locus on a grid by marching squares plus an analytic sweep for zero
lines of even multiplicity, which sign-based extraction cannot see.  At a
singular point the kernel direction of the differential, the rank of the
lifted map, two algebraic frontal conditions, and the determinant criterion
det(gamma', eta) with its arc-length derivative decide the class label.

Classification runs on arrays of points.  `_classify_points` takes each
stage once, on all rows that reach it: lift ranks from one stack of SVDs; the
branch, frontal-not-front and degenerate masks; five-point windows marched
by a masked Newton projection; the null fields along them; det(gamma', eta)
and its stencil derivative; and the psi test on exact null lines.  A report
thus costs a fixed number of kernel calls, not a number per traced node.
`classify_point`, `ccr_psi` and `lift_rank` are one-row calls.

Each primitive has one implementation that every stage shares, acting on
the last axis of arrays (one point is a (2,) row) with the same IEEE
operations per row as for a single point, so a row of a batch equals its
one-row result bit for bit: the level-set tangent rot(grad lam)
(`_level_tangent`) with its sign alignment (`_aligned`), the null direction
of the chart matrix (`_null_candidates`, `_null_direction`), the five-point
windows marched along {lam = 0} or stepped along an exact null line
(`_windows`), the Newton projection onto {lam = 0}
(`_newton_project_rows`), and Brent's method (`_brent`).  `_brent` solves a
batch of brackets in lockstep, one call of f per iteration for the lanes
still open, and each lane returns the float scipy's brentq returns on its
bracket: the trace solves all crossed grid edges in one call, and the
swallowtail search all brackets of all traced curves in another.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .paracomplex import para_to_dalembert
from .surfaces import Domain, compile_surface

TAG_REGULAR = "Regular"
TAG_BRANCH = "BranchPoint"
TAG_FRONTAL_NOT_FRONT = "FrontalNotFront"
TAG_CUSPIDAL_EDGE = "CuspidalEdge"
TAG_SWALLOWTAIL = "Swallowtail"
TAG_FRONT_UNCLASSIFIED = "FrontUnclassified"
TAG_DEGENERATE_OTHER = "DegenerateOther"

ALL_TAGS = (
    TAG_REGULAR, TAG_BRANCH, TAG_FRONTAL_NOT_FRONT, TAG_CUSPIDAL_EDGE,
    TAG_SWALLOWTAIL, TAG_FRONT_UNCLASSIFIED, TAG_DEGENERATE_OTHER,
)
_DET_TOL = 1e-6  # floor of |det(gamma', eta)| in the front criteria
_NULL_TOL = 1e-7  # relative kernel residual above which null_vector uses the SVD


class NotSingular(ValueError):
    """Point fails |lam| <= tol_sing, so singular-point machinery is undefined."""


class BranchPointError(ValueError):
    """The differential vanishes entirely; there is no null direction."""


class TraceRequired(RuntimeError):
    """Classification needed a singular curve through the point and none exists."""


@dataclass(frozen=True)
class Tolerances:
    """Scale-aware thresholds; S = coefficient scale x domain radius.

    Fields are numbers, or arrays with one entry per row of points.
    """

    sing: float
    deg: float
    branch: float
    ff: float

    def rows(self, idx):
        """Tolerances of the selected rows, when the fields are arrays over rows."""
        return Tolerances(self.sing[idx], self.deg[idx], self.branch[idx], self.ff[idx])


def tolerances_for(curve, radius=1.0) -> Tolerances:
    """Thresholds for a radius, or for an array of radii, one row each."""
    s = curve.coeff_scale * np.maximum(1.0, radius)
    return Tolerances(
        sing=1e-9 * s * s, deg=1e-7 * s, branch=1e-9 * s, ff=1e-9 * s
    )


def _point_tols(curve, p) -> Tolerances:
    """Thresholds at a point (u, v), or at each row of an (n, 2) array."""
    p = np.asarray(p, dtype=float)
    return tolerances_for(curve, np.maximum(np.abs(p[..., 0]), np.abs(p[..., 1])))


# -- density --------------------------------------------------------------


def area_density(curve, p):
    """Signed area density lam at p (exact for exact curve and point)."""
    return compile_surface(curve).area_density(p[0], p[1])


def grad_density(curve, p):
    """Exact gradient of the density polynomial at p."""
    return compile_surface(curve).grad_density(p[0], p[1])


# -- row helpers ---------------------------------------------------------------
#
# Vectors are the last axis of an array: one point is a (2,) row, n points an
# (n, 2) array, n five-point windows an (n, 5, 2) array.  Every helper runs the
# same IEEE operations on each row as on a single point.


def _rows(pts):
    """(n, 2) float array of a sequence of (u, v) pairs or an (n, 2) array."""
    return np.asarray(pts, dtype=float).reshape(-1, 2)


def _dot(a, b):
    """Row-wise dot products over the last axis.

    matmul of (1, k) by (k, 1) runs the BLAS dot that a 1-D `a @ b` runs, so
    each row equals the dot of that row alone bit for bit; an elementwise sum
    of products does not.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _unit(vec):
    """(unit rows, lengths) of the rows of vec; a zero row stays zero."""
    n = np.hypot(vec[..., 0], vec[..., 1])
    zero = (n == 0.0)[..., None]
    return np.where(zero, 0.0, vec / np.where(zero, 1.0, n[..., None])), n


def _det2(a, b):
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def _aligned(vec, ref):
    """vec, each row negated where it points against ref; unchanged when ref is None."""
    if ref is None:
        return vec
    return np.where((_dot(vec, ref) < 0)[..., None], -vec, vec)


def _density_floats(surf, u, v):
    return surf.density_jet(float(u), float(v))


def _level_tangent(surf, q):
    """(unit rot(grad lam), |grad lam|) at the rows of q: tangents of the level sets of lam."""
    _, gu, gv = surf.density_jet(q[..., 0], q[..., 1])
    return _unit(np.stack([-gv, gu], axis=-1))


def _newton_project_rows(surf, q, tol, max_travel):
    """Nearest-point Newton iteration onto {lam = 0} from every row of q, with
    per-row tol and max_travel.

    Returns (projected rows, ok).  A row is ok once |lam| <= tol, or after 60
    steps when |lam| <= 100 tol; it fails where the gradient vanishes or the
    iterate moves farther than max_travel from its start.  A row freezes as
    soon as it is decided and is never evaluated after that, so each row
    equals its one-row result bit for bit.
    """
    start = q
    q = q.copy()
    ok = np.zeros(len(q), dtype=bool)
    active = np.arange(len(q))
    for _ in range(60):
        if not active.size:
            return q, ok
        val, gu, gv = surf.density_jet(q[active, 0], q[active, 1])
        done = np.abs(val) <= tol[active]
        ok[active[done]] = True
        g2 = gu * gu + gv * gv
        moving = ~done & (g2 != 0.0)
        active, val, gu, gv, g2 = (x[moving] for x in (active, val, gu, gv, g2))
        q[active, 0] -= val * gu / g2
        q[active, 1] -= val * gv / g2
        near = ~(np.hypot(*(q[active] - start[active]).T) > max_travel[active])
        active = active[near]
    if active.size:
        val, _, _ = surf.density_jet(q[active, 0], q[active, 1])
        ok[active] = np.abs(val) <= 100 * tol[active]
    return q, ok


# -- null directions --------------------------------------------------------


def _chart_matrix(surf, u, v):
    """Differential of (u, v) -> (x1, x2); its determinant is the density.

    2 x 2 at a point; for arrays of points the two leading axes index the matrix.
    """
    f1u, f2u, g1u, g2u = surf.chart_derivatives(u, v)
    s = surf.curve.unit_sq
    return np.array([[f1u - s * g1u, s * f2u - g2u], [s * f2u + g2u, s * f1u + g1u]])


def _null_candidates(m):
    """Kernel candidates: rotated rows of the chart differential m, as vectors on the last axis."""
    return np.stack([-m[0, 1], m[0, 0]], axis=-1), np.stack([-m[1, 1], m[1, 0]], axis=-1)


def _null_direction(m):
    """(unit vector, length) of the larger rotated-row candidate; callers set the floor."""
    c1, c2 = _null_candidates(m)
    n1, n2 = np.hypot(c1[..., 0], c1[..., 1]), np.hypot(c2[..., 0], c2[..., 1])
    return _unit(np.where((n1 >= n2)[..., None], c1, c2))


def null_vector(curve, p):
    """Unit kernel direction of the chart differential at a singular point.

    Of the two rotated-row candidates the larger one is returned (they are
    parallel on the singular set); an SVD fallback covers points where the
    chosen candidate fails the kernel residual check.
    """
    surf = compile_surface(curve)
    tols = _point_tols(curve, p)
    lam = float(surf.area_density(float(p[0]), float(p[1])))
    if abs(lam) > tols.sing:
        raise NotSingular(f"|lam| = {abs(lam):.3e} exceeds {tols.sing:.3e}")
    m = _chart_matrix(surf, float(p[0]), float(p[1]))
    eta, norm = _null_direction(m)
    if norm <= tols.branch:
        raise BranchPointError("differential vanishes; no null direction")
    scale = max(np.linalg.norm(m), 1e-300)
    if np.linalg.norm(m @ eta) > 10 * _NULL_TOL * scale:
        _, _, vt = np.linalg.svd(m)
        eta = vt[-1]
    return eta


def _lift_frames(surf, u, v):
    """(x_u, x_v, nu, nu_u, nu_v) at the points (u, v), each an (n, 3) array.

    The first partials of the position and of the unit normal, from one
    field_jets call.  The normal runs surfaces._unit_normal_jet's operations
    row by row: dots through `_dot`, and powers through float_power, which
    calls the C pow that Python floats use, so each row equals
    Surface.position_jet and Surface.normal_jet at that point bit for bit.
    """
    j = surf.field_jets(u, v)
    one, zero = np.ones_like(u), np.zeros_like(u)
    x_u = np.stack([j.x1[1], j.x2[1], j.phi[1]], axis=-1)
    x_v = np.stack([j.x1[2], j.x2[2], j.phi[2]], axis=-1)
    n = np.stack([j.n1[0], j.n2[0], one], axis=-1)
    n_u = np.stack([j.n1[1], j.n2[1], zero], axis=-1)
    n_v = np.stack([j.n1[2], j.n2[2], zero], axis=-1)
    d = _dot(n, n)
    du, dv = 2 * _dot(n, n_u), 2 * _dot(n, n_v)
    w = np.float_power(d, -0.5)[:, None]
    w_u = (-0.5 * du * np.float_power(d, -1.5))[:, None]
    w_v = (-0.5 * dv * np.float_power(d, -1.5))[:, None]
    return x_u, x_v, n * w, n_u * w + n * w_u, n_v * w + n * w_v


def _lift_ranks(curve, frames):
    """Numeric ranks of the 6x2 Jacobians of (position, unit normal), one SVD stack."""
    x_u, x_v, _, n_u, n_v = frames
    jac = np.stack([np.concatenate(col, axis=1) for col in ((x_u, n_u), (x_v, n_v))], axis=-1)
    sv = np.linalg.svd(jac, compute_uv=False)
    floor = 1e-9 * max(1.0, curve.coeff_scale)
    return np.where(sv[:, 0] <= floor, 0, np.where(sv[:, 1] > 1e-7 * sv[:, 0], 2, 1))


def lift_rank(curve, p) -> int:
    """Numeric rank of the 6x2 Jacobian of (position, unit normal)."""
    u, v = _rows([p]).T
    return int(_lift_ranks(curve, _lift_frames(compile_surface(curve), u, v))[0])


# -- frontal-not-front conditions --------------------------------------------


def _fnf_kind(surf, u, v, tols):
    """'difference' if f1_u=f2_u, g1_u=g2_u; 'sum' if the mirrored signs hold.

    The names record which combination u-v or u+v is constant along the null
    line the condition defines.  Convex-signature surfaces are always fronts,
    so the answer there is None.  For arrays of points (and tolerances), an
    object array of these answers, one per point.
    """
    f1u, f2u, g1u, g2u = surf.chart_derivatives(u, v)
    diff = (np.abs(f1u - f2u) <= tols.ff) & (np.abs(g1u - g2u) <= tols.ff)
    summ = (np.abs(f1u + f2u) <= tols.ff) & (np.abs(g1u + g2u) <= tols.ff)
    if surf.signature != "indefinite":
        diff = summ = np.zeros_like(diff)
    kinds = np.where(diff, "difference", np.where(summ, "sum", None))
    return kinds if kinds.ndim else kinds.item()


# -- singular-curve tracing ---------------------------------------------------


@dataclass(frozen=True)
class SingularCurve:
    """Polyline on {lam = 0} with unit tangents and degeneracy flags."""

    points: np.ndarray
    tangents: np.ndarray
    degenerate_flags: np.ndarray
    closed: bool
    kind: str  # "traced" | "null-line"
    line: tuple | None = None  # ("sum"|"difference", constant) for null lines

    def __len__(self):
        return len(self.points)


_BRENT_MAXITER = 100


def _not_nan(x, fx):
    bad = np.isnan(fx)
    if bad.any():
        raise ValueError(f"f({x[bad][0]}) is NaN; Brent's method cannot continue")
    return fx


def _brent(f, a, b, fa, fb, xtol=2e-12, rtol=4 * sys.float_info.epsilon):
    """Roots of f on the brackets [a[i], b[i]] (lanes) by Brent's method, from
    f(a) = fa and f(b) = fb; an end where f is 0, or NaN where the ends share a sign.

    The lanes advance in lockstep, each iteration one call f(x, lanes) at the
    iterates x of the unconverged lanes (indices into a).  Each lane takes the
    IEEE steps of scipy's ``brentq`` (``Zeros/brentq.c``) with the same
    stopping test and defaults, so it returns brentq's float.  Raises
    ValueError on a NaN value of f and RuntimeError when _BRENT_MAXITER
    iterations do not converge.
    """
    a, b, fa, fb = (np.asarray(x, dtype=float) for x in (a, b, fa, fb))
    roots = np.where(fa == 0.0, a, np.where(fb == 0.0, b, np.nan))
    lanes = np.flatnonzero((fa != 0.0) & (fb != 0.0) & ((fa < 0.0) != (fb < 0.0)))
    xpre, xcur = a[lanes], b[lanes]
    fpre, fcur = _not_nan(xpre, fa[lanes]), _not_nan(xcur, fb[lanes])
    xblk = fblk = spre = scur = np.zeros(len(lanes))
    for _ in range(_BRENT_MAXITER):
        flip = (fpre != 0.0) & (fcur != 0.0) & ((fpre < 0.0) != (fcur < 0.0))
        xblk, fblk = np.where(flip, xpre, xblk), np.where(flip, fpre, fblk)
        spre, scur = np.where(flip, xcur - xpre, spre), np.where(flip, xcur - xpre, scur)
        swap = np.abs(fblk) < np.abs(fcur)
        xpre, xcur, xblk, fpre, fcur, fblk = np.where(
            swap, [xcur, xblk, xcur, fcur, fblk, fcur], [xpre, xcur, xblk, fpre, fcur, fblk])
        delta = (xtol + rtol * np.abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        done = (fcur == 0.0) | (np.abs(sbis) < delta)
        roots[lanes[done]] = xcur[done]
        lanes, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis = (
            x[~done] for x in (lanes, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis)
        )
        if not lanes.size:
            return roots
        # a zero divisor makes the step +-inf or nan, which is never short: the lane bisects
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            interpolate = -fcur * (xcur - xpre) / (fcur - fpre)
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            extrapolate = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
        tried = (np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre))
        stry = np.where(tried, np.where(xpre == xblk, interpolate, extrapolate), np.inf)
        short = 2 * np.abs(stry) < np.minimum(np.abs(spre), 3 * np.abs(sbis) - delta)
        spre, scur = np.where(short, scur, sbis), np.where(short, stry, sbis)
        xpre, fpre = xcur, fcur
        xcur = xcur + np.where(np.abs(scur) > delta, scur, np.where(sbis > 0, delta, -delta))
        fcur = _not_nan(xcur, np.asarray(f(xcur, lanes), dtype=float))
    raise RuntimeError(f"Brent's method failed to converge after {_BRENT_MAXITER} iterations, value is {xcur[0]}")


def _bracket_root(f, a, b, fa, fb, **tol):
    """Root of f on [a, b] from its end values fa, fb; None when they share a sign.

    The one-lane `_brent` (tol: its xtol / rtol), f taking a Python float."""
    root = _brent(lambda x, _: [f(float(x[0]))], [a], [b], [fa], [fb], **tol)[0]
    return None if math.isnan(root) else float(root)


def _marching_squares(surf, u_axis, v_axis, lam_grid):
    """Segments of {lam=0} as pairs of edge ids, plus edge crossing points.

    Cell cases come from the grid signs in one array pass; only the cells
    that cross zero are visited, in row-major order.  The saddle cells'
    centres take one density call, and the crossed edges one lockstep
    `_brent` call whose lanes each give the float of a scalar solve on that
    edge.  lam_grid must come from surf.density_grid, whose nodes equal the
    scalar density bit for bit, so every bracket changes sign.
    """
    sgn = lam_grid >= 0.0
    s00, s10, s01, s11 = sgn[:-1, :-1], sgn[1:, :-1], sgn[:-1, 1:], sgn[1:, 1:]
    case = (s00 != s10) * 1 + (s10 != s11) * 2 + (s01 != s11) * 4 + (s00 != s01) * 8
    iu, iv = np.nonzero(case)
    if not iu.size:
        return [], {}
    cases = case[iu, iv]
    # saddle: the centre sign says which diagonal pair of corners joins
    saddles = np.flatnonzero(cases == 15)
    si, sj = iu[saddles], iv[saddles]
    joins_00 = np.zeros(len(cases), dtype=bool)
    if saddles.size:
        centre = surf._density(0.5 * (u_axis[si] + u_axis[si + 1]), 0.5 * (v_axis[sj] + v_axis[sj + 1]))
        joins_00[saddles] = (centre >= 0) == s00[si, sj]

    segments = []
    for i, j, c, join_00 in zip(iu.tolist(), iv.tolist(), cases.tolist(), joins_00.tolist()):
        edges = (("bottom", ("h", i, j)), ("right", ("v", i + 1, j)),
                 ("top", ("h", i, j + 1)), ("left", ("v", i, j)))
        cell_edges = {name: key for bit, (name, key) in zip((1, 2, 4, 8), edges) if c & bit}
        # a cell crosses zero on 2 or 4 of its edges
        if len(cell_edges) == 2:
            pairs = [tuple(cell_edges)]
        elif join_00:
            pairs = [("bottom", "right"), ("top", "left")]
        else:
            pairs = [("bottom", "left"), ("right", "top")]
        segments += [(cell_edges[ea], cell_edges[eb]) for ea, eb in pairs]

    keys = list(dict.fromkeys(key for segment in segments for key in segment))
    kind, i, j = zip(*keys)
    horizontal, i, j = np.array(kind) == "h", np.array(i), np.array(j)
    i1, j1 = i + horizontal, j + ~horizontal  # far end of each edge
    fixed = np.where(horizontal, v_axis[j], u_axis[i])

    def density_along(x, lanes):
        h, c = horizontal[lanes], fixed[lanes]
        return surf._density(np.where(h, x, c), np.where(h, c, x))

    roots = _brent(
        density_along,
        np.where(horizontal, u_axis[i], v_axis[j]), np.where(horizontal, u_axis[i1], v_axis[j1]),
        lam_grid[i, j], lam_grid[i1, j1], xtol=1e-14, rtol=8.9e-16,
    )
    crossings = {
        key: (x, c) if h else (c, x)
        for key, h, x, c in zip(keys, horizontal.tolist(), roots.tolist(), fixed.tolist())
    }
    return segments, crossings


def _chain_segments(segments):
    """Join edge-id segments into ordered chains; returns (chains, closed?)."""
    adjacency = {}
    for a, b in segments:
        adjacency.setdefault(a, []).append(b)
        adjacency.setdefault(b, []).append(a)
    unused = {frozenset(segment) for segment in segments}

    def walk(start, nxt):
        chain = [start, nxt]
        unused.discard(frozenset((start, nxt)))
        while True:
            options = [
                k for k in adjacency.get(chain[-1], ())
                if frozenset((chain[-1], k)) in unused
            ]
            if not options:
                return chain
            chain.append(options[0])
            unused.discard(frozenset((chain[-2], chain[-1])))

    chains = []
    for key, nbrs in adjacency.items():
        if len(nbrs) == 1:
            for nxt in nbrs:
                if frozenset((key, nxt)) in unused:
                    chains.append((walk(key, nxt), False))
    # closed loops start at their first segment in grid order, so the
    # polylines do not depend on set iteration order (string hashes)
    for a, b in segments:
        if frozenset((a, b)) in unused:
            chain = walk(a, b)
            chains.append((chain, chain[0] == chain[-1]))
    return chains


def _polyline_tangents(surf, pts, tols):
    """Unit tangents along rot(grad lam), aligned with the walk direction."""
    t, norm = _level_tangent(surf, pts)
    flags = norm <= tols.deg
    steps = np.concatenate([pts[1:] - pts[:-1], pts[-1:] - pts[-2:-1]])
    tangents = np.where(flags[:, None], _unit(steps)[0], _aligned(t, steps))
    return tangents, flags


def _null_line_values(curve):
    """Constants c with {u-v=c} or {u+v=c} inside {lam=0}, via the wave split.

    The density factors as 4[rF'(u+v) sF'(u-v) - rG'(u+v) sG'(u-v)] with
    (r, s) the wave components of F and G.  A difference line u-v=c lies in
    the zero set exactly when sF'(c) a_k = sG'(c) b_k for every coefficient
    a_k of rF' and b_k of rG'; candidates come from the first nontrivial
    coefficient pair and are verified against all of them.
    """
    pf = para_to_dalembert(curve.F)
    pg = para_to_dalembert(curve.G)
    rf, sf = pf.rho.derivative(), pf.sigma.derivative()
    rg, sg = pg.rho.derivative(), pg.sigma.derivative()

    def axis_lines(p_left, q_left, p_right, q_right):
        # lines where p_left(c) a_k = q_left(c) b_k for coefficients of
        # p_right (a) and q_right (b)
        deg = max(p_right.degree, q_right.degree)
        if deg < 0:
            return []

        def coeff(poly, k):
            return float(poly.coeffs[k]) if k < len(poly.coeffs) else 0.0

        pairs = [
            (coeff(p_right, k), coeff(q_right, k)) for k in range(deg + 1)
        ]
        candidates = None
        for a_k, b_k in pairs:
            if a_k == 0.0 and b_k == 0.0:
                continue
            combo = a_k * p_left - b_k * q_left
            if combo.is_zero():
                continue
            candidates = combo.real_roots()
            break
        if candidates is None:
            return []
        out = []
        for c in candidates:
            ok = True
            pl, ql = float(p_left(c)), float(q_left(c))
            for a_k, b_k in pairs:
                resid = abs(pl * a_k - ql * b_k)
                m = max(1.0, abs(pl * a_k), abs(ql * b_k))
                if resid > 1e-9 * m:
                    ok = False
                    break
            if ok and not any(abs(c - prior) < 1e-10 for prior in out):
                out.append(c)
        return out

    diff_lines = axis_lines(sf, sg, rf, rg)
    sum_lines = axis_lines(rf, rg, sf, sg)
    return sum_lines, diff_lines


# unit direction of the null lines {u - v = c} ("difference") and {u + v = c} ("sum")
_NULL_LINE_DIRECTION = {
    "difference": np.array([1.0, 1.0]) / np.sqrt(2),
    "sum": np.array([1.0, -1.0]) / np.sqrt(2),
}


def _clip_line(domain, kind, c):
    """Segment of {u+v=c} or {u-v=c} inside the domain rectangle, as u-range."""
    if kind == "difference":  # v = u - c
        lo = max(domain.u0, domain.v0 + c)
        hi = min(domain.u1, domain.v1 + c)
    else:  # v = c - u
        lo = max(domain.u0, c - domain.v1)
        hi = min(domain.u1, c - domain.v0)
    return (lo, hi) if hi > lo else None


def _null_line_curves(curve, surf, domain, n_samples, tols):
    curves = []
    if curve.signature != "indefinite":
        return curves
    sum_lines, diff_lines = _null_line_values(curve)
    for kind, values in (("sum", sum_lines), ("difference", diff_lines)):
        for c in values:
            span = _clip_line(domain, kind, c)
            if span is None:
                continue
            us = np.linspace(span[0], span[1], n_samples)
            vs = us - c if kind == "difference" else c - us
            pts = np.column_stack([us, vs])
            tangents = np.tile(_NULL_LINE_DIRECTION[kind], (len(pts), 1))
            flags = _level_tangent(surf, pts)[1] <= tols.deg
            curves.append(
                SingularCurve(
                    points=pts, tangents=tangents, degenerate_flags=flags,
                    closed=False, kind="null-line", line=(kind, float(c)),
                )
            )
    return curves


def _near_null_line(pts, line, tol):
    kind, c = line
    if kind == "difference":
        dist = np.abs(pts[:, 0] - pts[:, 1] - c) / np.sqrt(2)
    else:
        dist = np.abs(pts[:, 0] + pts[:, 1] - c) / np.sqrt(2)
    return dist <= tol


def _mask_runs(mask, closed):
    """Index runs where mask holds, merging across the seam of closed chains."""
    runs, cur = [], []
    for i in range(len(mask)):
        if mask[i]:
            cur.append(i)
        elif cur:
            runs.append(cur)
            cur = []
    if cur:
        runs.append(cur)
    if closed and len(runs) >= 2 and runs[0][0] == 0 and runs[-1][-1] == len(mask) - 1:
        runs[0] = runs.pop() + runs[0]
    return runs


def trace_singular_curves(curve, domain: Domain, grid_res=64):
    """All components of {lam = 0} in the domain as SingularCurve polylines.

    Marching squares on a grid_res x grid_res grid with root-refined edge
    crossings catches every sign-changing component; zero lines of even
    multiplicity are recovered analytically and reported as straight
    'null-line' polylines.  An empty list is a normal outcome.
    """
    n = int(grid_res)
    if n < 16:
        raise ValueError("trace grid resolution must be at least 16 per axis")
    surf = compile_surface(curve)
    tols = tolerances_for(curve, domain.radius)
    if surf.density_is_zero:
        return []

    u_axis, v_axis = domain.axes(n, n)
    lam_grid = surf.density_grid(u_axis, v_axis)

    line_curves = _null_line_curves(curve, surf, domain, n, tols)

    segments, crossings = _marching_squares(surf, u_axis, v_axis, lam_grid)
    cell_diag = float(np.hypot(u_axis[1] - u_axis[0], v_axis[1] - v_axis[0]))
    curves = list(line_curves)
    for chain, closed in _chain_segments(segments):
        pts = np.array([crossings[k] for k in chain])
        if closed and len(pts) > 1:
            pts = pts[:-1]
        if len(pts) < 2:
            continue
        # points already covered by an analytic null line are duplicates
        near = np.zeros(len(pts), dtype=bool)
        for lc in line_curves:
            near |= _near_null_line(pts, lc.line, 0.75 * cell_diag)
        runs = _mask_runs(~near, closed)
        whole = len(runs) == 1 and len(runs[0]) == len(pts)
        for run in runs:
            if len(run) < 2:
                continue
            piece = pts[run]
            tangents, flags = _polyline_tangents(surf, piece, tols)
            curves.append(
                SingularCurve(
                    points=piece, tangents=tangents, degenerate_flags=flags,
                    closed=closed and whole, kind="traced",
                )
            )
    return curves


# -- local windows along the singular curve -----------------------------------

# offsets, in units of the spacing h, of the five-point stencil
_STENCIL = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])


def _stencil_derivative(values, h):
    """Derivative at the middle of five samples values[0..4] with spacing h."""
    return (-values[4] + 8 * values[3] - 8 * values[1] + values[0]) / (12 * h)


def _march_windows(surf, p, tols, h):
    """Points at arc-length offsets -2h .. 2h along {lam = 0} through each row of p.

    Tangent steps plus Newton projection, marched forward and then backward
    from the projected centre; the gradient must stay above tols.deg on the
    way.  Returns (points, tangents), (n, 5, 2) each and ordered by offset,
    and the mask of rows whose window exists.  Failed rows stop marching.
    """
    tol = np.maximum(1e-13, tols.sing * 1e-4)
    travel = 10 * h
    points, dirs = np.zeros((len(p), 5, 2)), np.zeros((len(p), 5, 2))
    q0, ok = _newton_project_rows(surf, p, tol, travel)
    rows = np.flatnonzero(ok)
    t0, norm = _level_tangent(surf, q0[rows])
    smooth = ~(norm <= tols.deg[rows])
    rows, t0 = rows[smooth], t0[smooth]
    points[rows, 2], dirs[rows, 2] = q0[rows], t0
    alive = []
    for sign, slots in ((1.0, (3, 4)), (-1.0, (1, 0))):
        live, q, t = rows, q0[rows], sign * t0
        for k in slots:
            q, ok = _newton_project_rows(surf, q + h[live, None] * t, tol[live], travel[live])
            live, q, t = live[ok], q[ok], t[ok]
            t_next, norm = _level_tangent(surf, q)
            smooth = ~(norm <= tols.deg[live])
            live, q, t = live[smooth], q[smooth], _aligned(t_next[smooth], t[smooth])
            points[live, k], dirs[live, k] = q, sign * t
        alive.append(live)
    ok = np.zeros(len(p), dtype=bool)
    ok[np.intersect1d(*alive)] = True
    return points, dirs, ok


def _null_fields(surf, points, branch):
    """Unit null vectors along windows of points (n, 5, 2), and a mask of rows where they exist.

    One rotated-row candidate serves a whole window: the one whose smallest
    length over it is larger, the first on a tie.  A row fails when that
    length is within its branch tolerance.  Signs follow the first point.
    """
    c1, c2 = _null_candidates(_chart_matrix(surf, points[..., 0], points[..., 1]))
    n1, n2 = np.hypot(c1[..., 0], c1[..., 1]), np.hypot(c2[..., 0], c2[..., 1])
    second = n2.min(axis=1) > n1.min(axis=1)
    ok = ~(np.where(second, n2.min(axis=1), n1.min(axis=1)) <= branch)
    etas = _unit(np.where(second[:, None, None], c2, c1))[0]
    for k in range(1, 5):
        etas[:, k] = _aligned(etas[:, k], etas[:, k - 1])
    return etas, ok


def _windows(surf, p, tols, h, kinds):
    """(points, tangents, etas, ok) of the five-point stencils with spacing h at the rows of p.

    A row whose kind is "sum" or "difference" steps along that exact null
    line through it; a row of kind None marches along {lam = 0}.  ok marks
    the rows whose window and null field exist.
    """
    on_line = np.array([k is not None for k in kinds], dtype=bool)
    points, dirs = np.zeros((len(p), 5, 2)), np.zeros((len(p), 5, 2))
    ok = np.ones(len(p), dtype=bool)
    rows = np.flatnonzero(on_line)
    direction = np.array([_NULL_LINE_DIRECTION[k] for k in kinds[rows]]).reshape(-1, 1, 2)
    points[rows] = p[rows, None, :] + (h[rows, None] * _STENCIL)[:, :, None] * direction
    dirs[rows] = direction
    rows = np.flatnonzero(~on_line)
    points[rows], dirs[rows], ok[rows] = _march_windows(surf, p[rows], tols.rows(rows), h[rows])
    etas = np.zeros_like(points)
    rows = np.flatnonzero(ok)
    etas[rows], ok[rows] = _null_fields(surf, points[rows], tols.branch[rows])
    return points, dirs, etas, ok


# -- point classification ------------------------------------------------------


@dataclass(frozen=True)
class Evidence:
    """Numbers behind a verdict; unevaluated entries stay None."""

    density: float
    grad_norm: float
    det_ge: float | None = None
    ddet_ge: float | None = None
    psi0: float | None = None
    dpsi0: float | None = None
    lift_rank: int | None = None

    def as_dict(self):
        return {
            "lambda": self.density,
            "grad_norm": self.grad_norm,
            "det_ge": self.det_ge,
            "ddet_ge": self.ddet_ge,
            "psi0": self.psi0,
            "dpsi0": self.dpsi0,
            "lift_rank": self.lift_rank,
        }


@dataclass(frozen=True)
class SingularClass:
    tag: str
    point: tuple
    evidence: Evidence
    degenerate: bool


def _snap_to_traced(p, traced, tol):
    best = None
    for sc in traced:
        d = np.hypot(*(sc.points - np.asarray(p, float)).T)
        k = int(np.argmin(d))
        if best is None or d[k] < best[0]:
            best = (float(d[k]), sc, k)
    if best is None or best[0] > tol:
        return None
    return best[1], best[2]


def _classify_points(curve, pts) -> list:
    """Class labels of the points of the surface over the rows of pts, with evidence.

    Decision order per row: regular; branch point; the two frontal-not-front
    conditions; degenerate gradient; then the front criteria det(gamma', eta)
    and its arc-length derivative on a five-point window marched along the
    singular curve.  Each stage runs once, on the array of rows that reach
    it.  An entry is None where the window or its null field does not exist.
    """
    p = _rows(pts)
    if not len(p):  # an empty batch would still pay numpy's per-call cost in every stage
        return []
    surf = compile_surface(curve)
    u, v = p[:, 0], p[:, 1]
    n = len(p)
    tols = _point_tols(curve, p)
    lam, gu, gv = surf.density_jet(u, v)
    grad = np.hypot(gu, gv)
    degenerate = grad <= tols.deg
    tags = np.full(n, TAG_REGULAR, dtype=object)
    rank, det0, ddet, psi0, dpsi0 = (np.full(n, None, dtype=object) for _ in range(5))

    rows = np.flatnonzero(~(np.abs(lam) > tols.sing))
    rank[rows] = _lift_ranks(curve, _lift_frames(surf, u[rows], v[rows])).tolist()
    branch = np.max(np.abs(surf.chart_derivatives(u[rows], v[rows])), axis=0) <= tols.branch[rows]
    tags[rows[branch]] = TAG_BRANCH
    rows = rows[~branch]

    kinds = _fnf_kind(surf, u[rows], v[rows], tols.rows(rows))
    fnf = np.array([k is not None for k in kinds], dtype=bool)
    line = rows[fnf]
    tags[line] = TAG_FRONTAL_NOT_FRONT
    a, b, ok = _psi_windows(surf, p[line], tols.rows(line), kinds[fnf])
    psi0[line[ok]], dpsi0[line[ok]] = a[ok].tolist(), b[ok].tolist()
    rows = rows[~fnf]
    tags[rows[degenerate[rows]]] = TAG_DEGENERATE_OTHER
    rows = rows[~degenerate[rows]]

    h = 0.01 * np.maximum(1.0, np.maximum(np.abs(u[rows]), np.abs(v[rows])))
    _, dirs, etas, ok = _windows(surf, p[rows], tols.rows(rows), h, np.full(len(rows), None))
    dets = _det2(dirs, etas)
    d, dd = dets[:, 2], _stencil_derivative(dets.T, h)
    two = rank[rows] == 2
    swallowtail = two & (np.abs(d) <= _DET_TOL) & (np.abs(dd) > _DET_TOL)
    tags[rows] = np.where(
        two & (np.abs(d) > _DET_TOL), TAG_CUSPIDAL_EDGE,
        np.where(swallowtail, TAG_SWALLOWTAIL, TAG_FRONT_UNCLASSIFIED),
    ).tolist()
    tags[rows[~ok]] = None
    det0[rows], ddet[rows] = d.tolist(), dd.tolist()

    return [
        None if tag is None else SingularClass(
            tag=tag, point=(pu, pv), degenerate=deg,
            evidence=Evidence(density=lm, grad_norm=g, det_ge=d0, ddet_ge=dd0,
                              psi0=s0, dpsi0=ds0, lift_rank=r),
        )
        for tag, pu, pv, deg, lm, g, d0, dd0, s0, ds0, r in zip(
            tags, u.tolist(), v.tolist(), degenerate.tolist(), lam.tolist(), grad.tolist(),
            det0, ddet, psi0, dpsi0, rank,
        )
    ]


def classify_point(curve, p, traced=None) -> SingularClass:
    """Class label of the point of the surface over p, with evidence.

    One row of `_classify_points`.  When `traced` is given, p must lie on
    one of its polylines for the front criteria; otherwise a local window is
    marched directly.  Raises TraceRequired when the front criteria need a
    window that does not exist.
    """
    cls = _classify_points(curve, [p])[0]
    u, v = float(p[0]), float(p[1])
    # the snap check guards the front criteria, the rows that carry det_ge
    if traced is not None and (cls is None or cls.evidence.det_ge is not None):
        h = 0.01 * max(1.0, abs(u), abs(v))
        cell = max(
            float(np.hypot(*np.ptp(sc.points, axis=0))) / max(len(sc) - 1, 1)
            for sc in traced
        ) if traced else 0.0
        if _snap_to_traced((u, v), traced, max(4 * cell, 4 * h)) is None:
            raise TraceRequired(f"({u}, {v}) is not on a traced singular curve")
    if cls is None:
        raise TraceRequired(f"no smooth non-degenerate singular curve through {(u, v)}")
    return cls


# -- cuspidal cross cap obstruction ---------------------------------------------


def _psi_values(frames, dirs, etas):
    """det(dpsi(gamma'), D_eta nu, nu) at window points.

    frames: the (x_u, x_v, nu, nu_u, nu_v) rows of `_lift_frames` at the
    points; dirs and etas: the curve tangents and null vectors there.
    """
    x_u, x_v, nu, nu_u, nu_v = frames
    gamma_dot = dirs[..., 0:1] * x_u + dirs[..., 1:2] * x_v
    d_eta_nu = etas[..., 0:1] * nu_u + etas[..., 1:2] * nu_v
    return np.linalg.det(np.stack([gamma_dot, d_eta_nu, nu], axis=-2))


# stencil spacing of the cuspidal-cross-cap test
_PSI_H = 0.01


def _psi_windows(surf, p, tols, kinds):
    """(Psi(0), Psi'(0), ok) at the singular rows of p; see `ccr_psi`.

    kinds: the frontal-not-front kind of each row, whose window is the exact
    null line, or None for a marched window.  ok marks the rows whose window
    exists; the values of the others are meaningless.
    """
    if not len(p):  # most curves have no frontal-not-front rows
        return np.zeros(0), np.zeros(0), np.zeros(0, dtype=bool)
    points, dirs, etas, ok = _windows(surf, p, tols, np.full(len(p), _PSI_H), kinds)
    rows = np.flatnonzero(ok)
    flat = points[rows].reshape(-1, 2)
    frames = [f.reshape(len(rows), 5, 3) for f in _lift_frames(surf, flat[:, 0], flat[:, 1])]
    psis = np.zeros((len(p), 5))
    psis[rows] = _psi_values(frames, dirs[rows], etas[rows])
    return psis[:, 2], _stencil_derivative(psis.T, _PSI_H), ok


def ccr_psi(curve, p):
    """(Psi(0), Psi'(0)) for the cuspidal-cross-cap test along the curve at p.

    Psi(t) = det(dpsi(gamma'), D_eta nu, nu) along the singular curve through
    p; the derivative comes from a 5-point stencil with spacing _PSI_H.
    At frontal-not-front points the curve is the exact null line; elsewhere a
    marched window is used.  Raises TraceRequired when neither exists.
    """
    surf = compile_surface(curve)
    q = _rows([p])
    tols = _point_tols(curve, q)
    lam, _, _ = surf.density_jet(q[:, 0], q[:, 1])
    if np.abs(lam[0]) > tols.sing[0]:
        raise NotSingular(f"({q[0, 0]}, {q[0, 1]}) is not singular")
    kinds = _fnf_kind(surf, q[:, 0], q[:, 1], tols)
    psi0, dpsi0, ok = _psi_windows(surf, q, tols, kinds)
    if not ok[0]:
        raise TraceRequired(f"no five-point window along a singular curve through {tuple(p)}")
    return float(psi0[0]), float(dpsi0[0])


def ccr_psi_control():
    """Same test on the frontal (u, v^2, u v^3), which has nonzero Psi'(0).

    A hand-built normal frame stands in for the surface jets; this is the
    non-vacuity control for the obstruction test.
    """

    def normal(u, v):
        n = np.array([-2 * v**3, -3 * u * v, 2.0])
        return n / np.linalg.norm(n)

    def frame(u, v, fd=1e-6):
        """(x_u, x_v, nu, nu_u, nu_v) at (u, v), the normal's partials by central differences."""
        return (
            np.array([1.0, 0.0, v**3]),
            np.array([0.0, 2 * v, 3 * u * v**2]),
            normal(u, v),
            (normal(u + fd, v) - normal(u - fd, v)) / (2 * fd),
            (normal(u, v + fd) - normal(u, v - fd)) / (2 * fd),
        )

    points = np.column_stack([_PSI_H * _STENCIL, np.zeros(5)])
    frames = [np.array(rows) for rows in zip(*(frame(u, v) for u, v in points))]
    directions = np.tile([1.0, 0.0], (5, 1))
    etas = np.tile([0.0, 1.0], (5, 1))
    psis = _psi_values(frames, directions, etas)
    return float(psis[2]), float(_stencil_derivative(psis, _PSI_H))


# -- swallowtail search ----------------------------------------------------------


def _frame_dets(surf, q, ref_dir, ref_eta):
    """(det(gamma', eta), gamma', eta, defined) at the rows of q, the level tangent
    gamma' and null direction eta `_aligned` with the reference rows; det is
    undefined where either vector vanishes."""
    t, t_norm = _level_tangent(surf, q)
    eta, eta_norm = _null_direction(_chart_matrix(surf, q[:, 0], q[:, 1]))
    t, eta = _aligned(t, ref_dir), _aligned(eta, ref_eta)
    return _det2(t, eta), t, eta, (t_norm != 0.0) & (eta_norm != 0.0)


def _node_dets(surf, curves):
    """det(gamma', eta) at the nodes of each traced curve, a list per curve; None where it is undefined.

    One array pass over the nodes of all curves.  Undefined at nodes flagged
    degenerate and where the tangent or the null direction vanishes.  Along
    the other nodes of a curve each vector is `_aligned` with the aligned
    vector of the node before; since a sign flip of a reference flips its
    dot exactly, the chain of signs follows from the dots of consecutive raw
    vectors.
    """
    _, t, eta, defined = _frame_dets(surf, np.concatenate([sc.points for sc in curves]), None, None)
    defined &= ~np.concatenate([sc.degenerate_flags for sc in curves])
    cuts = np.cumsum([len(sc) for sc in curves])[:-1]
    out = []
    for ts, etas, ok in zip(np.split(t, cuts), np.split(eta, cuts), np.split(defined, cuts)):
        rows = np.flatnonzero(ok)
        ts, etas = ts[rows], etas[rows]
        dets = [None] * len(ok)
        for k, d in zip(rows.tolist(), _det2(_chain_signs(ts) * ts, _chain_signs(etas) * etas).tolist()):
            dets[k] = d
        out.append(dets)
    return out


def _chain_signs(vecs):
    """(n, 1) signs s with s[0] = 1 and s[k] vecs[k] = `_aligned`(vecs[k], s[k-1] vecs[k-1])."""
    signs = [1.0]
    for d in _dot(vecs[1:], vecs[:-1]).tolist():
        signs.append(-1.0 if signs[-1] * d < 0 else 1.0)
    return np.array(signs[:len(vecs)])[:, None]


def _project_or_keep(surf, curve, q):
    """Rows of q Newton-projected onto {lam = 0}; a row whose projection fails stays put."""
    tol = np.maximum(1e-13, _point_tols(curve, q).sing * 1e-4)
    proj, ok = _newton_project_rows(surf, q, tol, np.full(len(q), np.inf))
    return np.where(ok[:, None], proj, q)


def locate_swallowtails(curve, traced):
    """Zeros of det(gamma', eta) along traced curves that classify as swallowtails.

    Every pair of consecutive nodes where det changes sign is a bracket, and
    all brackets of all curves are solved in one lockstep `_brent` call,
    det evaluated at the Newton projections of the points of the segment.
    The roots are classified in one `_classify_points` call.  A root without
    a window is dropped, as a traced node without one is, and a root within
    1e-6 of a swallowtail found before it is skipped.
    """
    surf = compile_surface(curve)
    curves = [sc for sc in traced if sc.kind == "traced"]
    if not curves:
        return []
    brackets = []
    for sc, dets in zip(curves, _node_dets(surf, curves)):
        for k in range(len(sc) - 1 + sc.closed):  # a closed curve's last bracket ends at node 0
            k_next = (k + 1) % len(sc)
            if not (dets[k] is None or dets[k_next] is None or dets[k] * dets[k_next] > 0):
                brackets.append((sc.points[k], sc.points[k_next], sc.tangents[k]))
    if not brackets:
        return []
    pa, pb, tangent = (np.array(x) for x in zip(*brackets))
    # constant references keep the sign of det continuous while
    # `_brent` samples a bracket out of order
    _, dir0, eta0, defined = _frame_dets(surf, pa, tangent, None)
    pa, pb, dir0, eta0 = pa[defined], pb[defined], dir0[defined], eta0[defined]

    def det_along(s, lanes):
        q = _project_or_keep(surf, curve, (1 - s)[:, None] * pa[lanes] + s[:, None] * pb[lanes])
        d, _, _, defined = _frame_dets(surf, q, dir0[lanes], eta0[lanes])
        return np.where(defined, d, 0.0)

    lanes = np.arange(len(pa))  # both ends of every bracket in one call
    fa, fb = np.split(det_along(np.repeat([0.0, 1.0], len(pa)), np.tile(lanes, 2)), 2)
    s = _brent(det_along, np.zeros(len(pa)), np.ones(len(pa)), fa, fb, xtol=1e-13)
    hit = ~np.isnan(s)
    s, pa, pb = s[hit], pa[hit], pb[hit]
    roots = _project_or_keep(surf, curve, (1 - s)[:, None] * pa + s[:, None] * pb)
    found = []
    for q, cls in zip(roots, _classify_points(curve, roots)):
        if cls is None or cls.tag != TAG_SWALLOWTAIL:
            continue
        if not any(np.hypot(*(q - prev)) < 1e-6 for prev, _ in found):
            found.append((q, cls))
    return found


# -- reports -----------------------------------------------------------------


def classification_report(curve, domain: Domain, grid_res=64, probes=()) -> dict:
    """Trace plus classification at curve nodes, located swallowtails, probes.

    The nodes and the probes are classified in one `_classify_points` call.
    """
    from .io import curve_to_json

    traced = trace_singular_curves(curve, domain, grid_res)
    probes = list(probes)
    nodes = [q for sc in traced for q in sc.points]
    classes = _classify_points(curve, nodes + probes)
    points = []

    def add(p, cls):
        points.append(
            {
                "u": float(p[0]),
                "v": float(p[1]),
                "class": cls.tag,
                "degenerate": cls.degenerate,
                "evidence": cls.evidence.as_dict(),
            }
        )

    # a node without a window is dropped
    for q, cls in zip(nodes, classes):
        if cls is not None:
            add(q, cls)
    for q, cls in locate_swallowtails(curve, traced):
        add(q, cls)
    for q, cls in zip(probes, classes[len(nodes):]):
        if cls is None:
            cls = SingularClass(
                tag=TAG_FRONT_UNCLASSIFIED,
                point=(float(q[0]), float(q[1])),
                evidence=Evidence(
                    density=float(area_density(curve, q)),
                    grad_norm=float(np.hypot(*grad_density(curve, q))),
                ),
                degenerate=False,
            )
        add(q, cls)

    return {
        "curve": curve_to_json(curve),
        "domain": [domain.u0, domain.u1, domain.v0, domain.v1],
        "singular_curves": [sc.points.tolist() for sc in traced],
        "points": points,
    }
