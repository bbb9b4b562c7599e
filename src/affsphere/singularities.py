"""Singular set analysis: tracing, null directions, classification.

The signed area density (written lam throughout) is the determinant of the
chart differential; the singular set is its zero locus.  Tracing extracts
that locus on a grid by marching squares plus an analytic sweep for zero
lines of even multiplicity, which sign-based extraction cannot see.  At a
singular point the kernel direction of the differential, the rank of the
lifted map, two algebraic frontal conditions, and the determinant criterion
det(gamma', eta) with its arc-length derivative decide the class label.

Each primitive has one implementation that every stage shares: the level-set
tangent rot(grad lam) (`_level_tangent`) with its sign alignment (`_aligned`),
the null direction of one chart matrix (`_null_candidates`,
`_null_direction`), the five-point window either marched along {lam = 0} or
stepped along an exact null line (`_window`), and the bracketed root
(`_bracket_root`) behind both edge crossings and swallowtail search.
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


class NotSingular(ValueError):
    """Point fails |lam| <= tol_sing, so singular-point machinery is undefined."""


class BranchPointError(ValueError):
    """The differential vanishes entirely; there is no null direction."""


class TraceRequired(RuntimeError):
    """Classification needed a singular curve through the point and none exists."""


@dataclass(frozen=True)
class Tolerances:
    """Scale-aware thresholds; S = coefficient scale x domain radius."""

    sing: float
    deg: float
    branch: float
    ff: float
    det: float = 1e-6
    null: float = 1e-7


def tolerances_for(curve, radius=1.0) -> Tolerances:
    s = curve.coeff_scale * max(1.0, float(radius))
    return Tolerances(
        sing=1e-9 * s * s, deg=1e-7 * s, branch=1e-9 * s, ff=1e-9 * s
    )


def _point_tols(curve, p) -> Tolerances:
    return tolerances_for(curve, max(1.0, abs(float(p[0])), abs(float(p[1]))))


# -- density --------------------------------------------------------------


def area_density(curve, p):
    """Signed area density lam at p (exact for exact curve and point)."""
    return compile_surface(curve).area_density(p[0], p[1])


def grad_density(curve, p):
    """Exact gradient of the density polynomial at p."""
    return compile_surface(curve).grad_density(p[0], p[1])


# -- small vector helpers --------------------------------------------------


def _unit(vec):
    n = float(np.hypot(vec[0], vec[1]))
    if n == 0.0:
        return np.array([0.0, 0.0]), 0.0
    return np.asarray(vec, float) / n, n


def _det2(a, b):
    return float(a[0] * b[1] - a[1] * b[0])


def _aligned(vec, ref):
    """vec, negated when it points against ref; unchanged when ref is None."""
    return -vec if ref is not None and vec @ ref < 0 else vec


def _density_floats(surf, u, v):
    return surf.density_jet(float(u), float(v))


def _level_tangent(surf, q):
    """(unit rot(grad lam), |grad lam|) at q: the tangent of the level set of lam."""
    _, gu, gv = _density_floats(surf, q[0], q[1])
    return _unit(np.array([-gv, gu]))


def _newton_project(surf, p, tol, max_travel=None):
    """Nearest-point Newton iteration onto {lam = 0}; None on failure."""
    q = np.array([float(p[0]), float(p[1])])
    start = q.copy()
    for _ in range(60):
        val, gu, gv = _density_floats(surf, q[0], q[1])
        if abs(val) <= tol:
            return q
        g2 = gu * gu + gv * gv
        if g2 == 0.0:
            return None
        q = q - val * np.array([gu, gv]) / g2
        if max_travel is not None and np.hypot(*(q - start)) > max_travel:
            return None
    val, _, _ = _density_floats(surf, q[0], q[1])
    return q if abs(val) <= 100 * tol else None


# -- null directions --------------------------------------------------------


def _chart_matrix(surf, u, v):
    """Differential of (u, v) -> (x1, x2); its determinant is the density."""
    f1u, f2u, g1u, g2u = surf.chart_derivatives(float(u), float(v))
    s = surf.curve.unit_sq
    return np.array([[f1u - s * g1u, s * f2u - g2u], [s * f2u + g2u, s * f1u + g1u]])


def _null_candidates(m):
    """Kernel candidates: rotated rows of the 2x2 chart differential m."""
    return np.array([-m[0, 1], m[0, 0]]), np.array([-m[1, 1], m[1, 0]])


def _null_direction(m):
    """(unit vector, length) of the larger rotated-row candidate; callers set the floor."""
    c1, c2 = _null_candidates(m)
    return _unit(c1 if np.hypot(*c1) >= np.hypot(*c2) else c2)


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
    m = _chart_matrix(surf, p[0], p[1])
    eta, norm = _null_direction(m)
    if norm <= tols.branch:
        raise BranchPointError("differential vanishes; no null direction")
    scale = max(np.linalg.norm(m), 1e-300)
    if np.linalg.norm(m @ eta) > 10 * tols.null * scale:
        _, _, vt = np.linalg.svd(m)
        eta = vt[-1]
    return eta


def lift_rank(curve, p) -> int:
    """Numeric rank of the 6x2 Jacobian of (position, unit normal)."""
    pj, nj = compile_surface(curve).lift_jets(p[0], p[1])
    jac = np.column_stack(
        [np.concatenate([pj.du, nj.du]), np.concatenate([pj.dv, nj.dv])]
    )
    sv = np.linalg.svd(jac, compute_uv=False)
    floor = 1e-9 * max(1.0, curve.coeff_scale)
    if sv[0] <= floor:
        return 0
    return 2 if sv[1] > 1e-7 * sv[0] else 1


# -- frontal-not-front conditions --------------------------------------------


def _fnf_kind(surf, u, v, tols):
    """'difference' if f1_u=f2_u, g1_u=g2_u; 'sum' if the mirrored signs hold.

    The names record which combination u-v or u+v is constant along the null
    line the condition defines.  Convex-signature surfaces are always fronts,
    so the answer there is None.
    """
    if surf.signature != "indefinite":
        return None
    f1u, f2u, g1u, g2u = surf.chart_derivatives(float(u), float(v))
    if abs(f1u - f2u) <= tols.ff and abs(g1u - g2u) <= tols.ff:
        return "difference"
    if abs(f1u + f2u) <= tols.ff and abs(g1u + g2u) <= tols.ff:
        return "sum"
    return None


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


def _brent(f, a, b, fa, fb, xtol=2e-12, rtol=4 * sys.float_info.epsilon):
    """Root of f in [a, b] by Brent's method, from nonzero f(a) = fa and f(b) = fb
    of opposite signs.

    A step-for-step port of scipy's ``brentq`` (``Zeros/brentq.c``): the same
    interpolate / extrapolate / bisect choices, the same stopping test on
    delta = (xtol + rtol |xcur|) / 2 and the same defaults, so it returns the
    same float.  Raises ValueError on a NaN value of f and RuntimeError when
    _BRENT_MAXITER iterations do not converge.
    """

    def checked(x, fx):
        if math.isnan(fx):
            raise ValueError(f"f({x}) is NaN; Brent's method cannot continue")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = checked(xpre, float(fa)), checked(xcur, float(fb))
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # bisect unless interpolation gives a short step
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # IEEE division gives +-inf or nan here; either bisects
                pass
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = checked(xcur, float(f(xcur)))
    raise RuntimeError(f"Brent's method failed to converge after {_BRENT_MAXITER} iterations, value is {xcur}")


def _bracket_root(f, a, b, fa, fb, **tol):
    """Root of f on [a, b] from its end values fa, fb; None when they share a sign.

    tol: `_brent`'s xtol / rtol, which each caller sets for its own variable.
    """
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa < 0.0) == (fb < 0.0):
        return None
    return _brent(f, a, b, fa, fb, **tol)


def _marching_squares(surf, u_axis, v_axis, lam_grid):
    """Segments of {lam=0} as pairs of edge ids, plus edge crossing points.

    lam_grid must come from surf.density_grid, whose nodes equal the scalar
    density bit for bit, so every bracket handed to `_brent` changes sign.
    """
    d = surf.area_density
    tol = {"xtol": 1e-14, "rtol": 8.9e-16}
    nu, nv = lam_grid.shape
    sgn = np.where(lam_grid >= 0.0, 1, -1)
    crossings = {}

    def edge_point(kind, i, j):
        key = (kind, i, j)
        if key in crossings:
            return key
        if kind == "h":
            a, b = u_axis[i], u_axis[i + 1]
            v0 = v_axis[j]
            root = _bracket_root(
                lambda x: d(x, v0), a, b, lam_grid[i, j], lam_grid[i + 1, j], **tol
            )
            crossings[key] = (root, v0)
        else:
            a, b = v_axis[j], v_axis[j + 1]
            u0 = u_axis[i]
            root = _bracket_root(
                lambda x: d(u0, x), a, b, lam_grid[i, j], lam_grid[i, j + 1], **tol
            )
            crossings[key] = (u0, root)
        return key

    segments = []
    for i in range(nu - 1):
        for j in range(nv - 1):
            s00, s10 = sgn[i, j], sgn[i + 1, j]
            s11, s01 = sgn[i + 1, j + 1], sgn[i, j + 1]
            cell_edges = {}
            if s00 != s10:
                cell_edges["bottom"] = ("h", i, j)
            if s10 != s11:
                cell_edges["right"] = ("v", i + 1, j)
            if s01 != s11:
                cell_edges["top"] = ("h", i, j + 1)
            if s00 != s01:
                cell_edges["left"] = ("v", i, j)
            # a cell crosses zero on 0, 2 or 4 of its edges
            if len(cell_edges) == 2:
                pairs = [tuple(cell_edges)]
            elif cell_edges:
                # saddle: the center sign says which diagonal pair of corners joins
                center_sign = 1 if d(
                    0.5 * (u_axis[i] + u_axis[i + 1]), 0.5 * (v_axis[j] + v_axis[j + 1])
                ) >= 0 else -1
                if center_sign == s00:
                    pairs = [("bottom", "right"), ("top", "left")]
                else:
                    pairs = [("bottom", "left"), ("right", "top")]
            else:
                continue
            for ea, eb in pairs:
                segments.append((edge_point(*cell_edges[ea]), edge_point(*cell_edges[eb])))
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
    n = len(pts)
    tangents = np.zeros((n, 2))
    flags = np.zeros(n, dtype=bool)
    for k in range(n):
        t, norm = _level_tangent(surf, pts[k])
        flags[k] = norm <= tols.deg
        if k + 1 < n:
            step = pts[k + 1] - pts[k]
        else:
            step = pts[k] - pts[k - 1]
        tangents[k] = _unit(step)[0] if flags[k] else _aligned(t, step)
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
            flags = np.array([_level_tangent(surf, q)[1] <= tols.deg for q in pts])
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


def _march_window(surf, center, tols, h, steps=2):
    """Points at arc-length offsets -steps*h .. steps*h along {lam=0}.

    Tangent-step plus Newton projection; requires a non-degenerate gradient
    along the way.  Returns (points, directions) ordered by offset, or None.
    """
    proj_tol = max(1e-13, tols.sing * 1e-4)
    q0 = _newton_project(surf, center, proj_tol, max_travel=10 * h)
    if q0 is None:
        return None

    def tangent_at(q, align_with=None):
        t, norm = _level_tangent(surf, q)
        return None if norm <= tols.deg else _aligned(t, align_with)

    t0 = tangent_at(q0)
    if t0 is None:
        return None

    def march(direction):
        pts, dirs = [], []
        q, t = q0, direction
        for _ in range(steps):
            q_next = _newton_project(surf, q + h * t, proj_tol, max_travel=10 * h)
            if q_next is None:
                return None
            t_next = tangent_at(q_next, align_with=t)
            if t_next is None:
                return None
            pts.append(q_next)
            dirs.append(t_next)
            q, t = q_next, t_next
        return pts, dirs

    fwd = march(t0)
    bwd = march(-t0)
    if fwd is None or bwd is None:
        return None
    points = [*reversed(bwd[0]), q0, *fwd[0]]
    directions = [*(-d for d in reversed(bwd[1])), t0, *fwd[1]]
    return np.array(points), np.array(directions)


def _window_null_fields(surf, points, tols):
    """Unit null vectors along a window: one candidate, sign-aligned."""
    cands = [_null_candidates(_chart_matrix(surf, q[0], q[1])) for q in points]
    norms = np.array([[np.hypot(*c1), np.hypot(*c2)] for c1, c2 in cands])
    pick = int(np.argmax(norms.min(axis=0)))
    if norms[:, pick].min() <= tols.branch:
        return None
    etas = []
    for pair in cands:
        etas.append(_aligned(_unit(pair[pick])[0], etas[-1] if etas else None))
    return np.array(etas)


# offsets, in units of the spacing h, of the five-point stencil
_STENCIL = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])


def _stencil_derivative(values, h):
    return (-values[4] + 8 * values[3] - 8 * values[1] + values[0]) / (12 * h)


def _window(surf, p, tols, h, null_line=None):
    """(points, tangents, etas) of the five-point stencil with spacing h at p.

    null_line None marches along {lam = 0}; "sum" or "difference" steps along
    that exact null line through p instead.
    """
    if null_line is None:
        window = _march_window(surf, p, tols, h)
        if window is None:
            raise TraceRequired(
                f"no smooth non-degenerate singular curve through {tuple(p)}"
            )
        points, directions = window
    else:
        direction = _NULL_LINE_DIRECTION[null_line]
        points = np.array([p], float) + (h * _STENCIL)[:, None] * direction
        directions = np.tile(direction, (5, 1))
    etas = _window_null_fields(surf, points, tols)
    if etas is None:
        raise TraceRequired("null direction degenerates inside the window")
    return points, directions, etas


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


def classify_point(curve, p, traced=None) -> SingularClass:
    """Class label of the point of the surface over p, with evidence.

    Decision order: regular; branch point; the two frontal-not-front
    conditions; degenerate gradient; then the front criteria det(gamma', eta)
    and its arc-length derivative on a five-point window along the singular
    curve.  When `traced` is given, p must lie on one of its polylines for
    the front criteria; otherwise a local window is marched directly.
    """
    surf = compile_surface(curve)
    tols = _point_tols(curve, p)
    u, v = float(p[0]), float(p[1])
    lam, gu, gv = _density_floats(surf, u, v)
    grad_norm = float(np.hypot(gu, gv))
    degenerate = grad_norm <= tols.deg

    def verdict(tag, **extra):
        ev = Evidence(density=lam, grad_norm=grad_norm, **extra)
        return SingularClass(tag=tag, point=(u, v), evidence=ev, degenerate=degenerate)

    if abs(lam) > tols.sing:
        return verdict(TAG_REGULAR)

    rank = lift_rank(curve, p)
    f1u, f2u, g1u, g2u = surf.chart_derivatives(u, v)
    if max(abs(f1u), abs(f2u), abs(g1u), abs(g2u)) <= tols.branch:
        return verdict(TAG_BRANCH, lift_rank=rank)

    fnf = _fnf_kind(surf, u, v, tols)
    if fnf is not None:
        psi0 = dpsi0 = None
        try:
            psi0, dpsi0 = ccr_psi(curve, (u, v))
        except (TraceRequired, NotSingular, BranchPointError):
            pass
        return verdict(TAG_FRONTAL_NOT_FRONT, lift_rank=rank, psi0=psi0, dpsi0=dpsi0)

    if degenerate:
        return verdict(TAG_DEGENERATE_OTHER, lift_rank=rank)

    h = 0.01 * max(1.0, abs(u), abs(v))
    if traced is not None:
        cell = max(
            float(np.hypot(*np.ptp(sc.points, axis=0))) / max(len(sc) - 1, 1)
            for sc in traced
        ) if traced else 0.0
        if _snap_to_traced((u, v), traced, max(4 * cell, 4 * h)) is None:
            raise TraceRequired(f"({u}, {v}) is not on a traced singular curve")
    points, directions, etas = _window(surf, (u, v), tols, h)
    dets = np.array([_det2(t, e) for t, e in zip(directions, etas)])
    det0 = float(dets[2])
    ddet = float(_stencil_derivative(dets, h))

    if rank == 2 and abs(det0) > tols.det:
        return verdict(
            TAG_CUSPIDAL_EDGE, det_ge=det0, ddet_ge=ddet, lift_rank=rank
        )
    if rank == 2 and abs(det0) <= tols.det and abs(ddet) > tols.det:
        return verdict(
            TAG_SWALLOWTAIL, det_ge=det0, ddet_ge=ddet, lift_rank=rank
        )
    return verdict(
        TAG_FRONT_UNCLASSIFIED, det_ge=det0, ddet_ge=ddet, lift_rank=rank
    )


# -- cuspidal cross cap obstruction ---------------------------------------------


def _psi_values(lift_jets, gammas, etas):
    """det(dpsi(gamma'), D_eta nu, nu) at each window point.

    lift_jets(u, v) gives the (position, unit normal) jets at a point.
    """
    out = []
    for (q, gdir), eta in zip(gammas, etas):
        pj, nj = lift_jets(q[0], q[1])
        gamma_dot = gdir[0] * pj.du + gdir[1] * pj.dv
        d_eta_nu = eta[0] * nj.du + eta[1] * nj.dv
        out.append(float(np.linalg.det(np.array([gamma_dot, d_eta_nu, nj.value]))))
    return np.array(out)


# stencil spacing of the cuspidal-cross-cap test
_PSI_H = 0.01


def ccr_psi(curve, p):
    """(Psi(0), Psi'(0)) for the cuspidal-cross-cap test along the curve at p.

    Psi(t) = det(dpsi(gamma'), D_eta nu, nu) along the singular curve through
    p; the derivative comes from a 5-point stencil with spacing _PSI_H.
    At frontal-not-front points the curve is the exact null line; elsewhere a
    marched window is used.  Raises TraceRequired when neither exists.
    """
    surf = compile_surface(curve)
    tols = _point_tols(curve, p)
    u, v = float(p[0]), float(p[1])
    lam, _, _ = _density_floats(surf, u, v)
    if abs(lam) > tols.sing:
        raise NotSingular(f"({u}, {v}) is not singular")
    fnf = _fnf_kind(surf, u, v, tols)
    points, directions, etas = _window(surf, (u, v), tols, _PSI_H, null_line=fnf)
    psis = _psi_values(surf.lift_jets, zip(points, directions), etas)
    return float(psis[2]), float(_stencil_derivative(psis, _PSI_H))


def ccr_psi_control():
    """Same test on the frontal (u, v^2, u v^3), which has nonzero Psi'(0).

    A hand-built normal frame stands in for the surface jets; this is the
    non-vacuity control for the obstruction test.
    """

    def normal(u, v):
        n = np.array([-2 * v**3, -3 * u * v, 2.0])
        return n / np.linalg.norm(n)

    class _J:
        def __init__(self, value, du, dv):
            self.value, self.du, self.dv = value, du, dv

    def lift_jets(u, v, fd=1e-6):
        position = _J(
            np.array([u, v * v, u * v**3]),
            np.array([1.0, 0.0, v**3]),
            np.array([0.0, 2 * v, 3 * u * v**2]),
        )
        unit_normal = _J(
            normal(u, v),
            (normal(u + fd, v) - normal(u - fd, v)) / (2 * fd),
            (normal(u, v + fd) - normal(u, v - fd)) / (2 * fd),
        )
        return position, unit_normal

    points = np.column_stack([_PSI_H * _STENCIL, np.zeros(5)])
    directions = np.tile([1.0, 0.0], (5, 1))
    etas = np.tile([0.0, 1.0], (5, 1))
    psis = _psi_values(lift_jets, zip(points, directions), etas)
    return float(psis[2]), float(_stencil_derivative(psis, _PSI_H))


# -- swallowtail search ----------------------------------------------------------


def locate_swallowtails(curve, traced):
    """Zeros of det(gamma', eta) along traced curves that classify as swallowtails."""
    surf = compile_surface(curve)
    found = []

    def det_at(q, ref_dir, ref_eta):
        """Signed determinant with orientation pinned to the references."""
        t, norm = _level_tangent(surf, q)
        if norm == 0.0:
            return None, None, None
        eta, eta_norm = _null_direction(_chart_matrix(surf, q[0], q[1]))
        if eta_norm == 0.0:
            return None, None, None
        t, eta = _aligned(t, ref_dir), _aligned(eta, ref_eta)
        return _det2(t, eta), t, eta

    def project(q):
        tols = _point_tols(curve, q)
        q_proj = _newton_project(surf, q, max(1e-13, tols.sing * 1e-4))
        return q if q_proj is None else q_proj

    for sc in traced:
        if sc.kind != "traced":
            continue
        dets = [None] * len(sc)
        ref_dir = ref_eta = None
        for k in range(len(sc)):
            if sc.degenerate_flags[k]:
                continue
            d, t, e = det_at(sc.points[k], ref_dir, ref_eta)
            if d is None:
                continue
            dets[k], ref_dir, ref_eta = d, t, e
        brackets = [(k, k + 1) for k in range(len(sc) - 1)]
        if sc.closed:
            brackets.append((len(sc) - 1, 0))
        for k, k_next in brackets:
            da, db = dets[k], dets[k_next]
            if da is None or db is None or da * db > 0:
                continue
            pa, pb = sc.points[k], sc.points[k_next]
            # constant references keep the sign of det continuous while
            # `_brent` samples the bracket out of order
            _, dir0, eta0 = det_at(pa, sc.tangents[k], None)
            if dir0 is None:
                continue

            def along(s):
                d, _, _ = det_at(project((1 - s) * pa + s * pb), dir0, eta0)
                return 0.0 if d is None else d

            s_root = _bracket_root(along, 0.0, 1.0, along(0.0), along(1.0), xtol=1e-13)
            if s_root is None:
                continue
            q = project((1 - s_root) * pa + s_root * pb)
            if any(np.hypot(*(q - prev)) < 1e-6 for prev, _ in found):
                continue
            cls = classify_point(curve, q)
            if cls.tag == TAG_SWALLOWTAIL:
                found.append((q, cls))
    return found


# -- reports -----------------------------------------------------------------


def classification_report(curve, domain: Domain, grid_res=64, probes=()) -> dict:
    """Trace plus classification at curve nodes, located swallowtails, probes."""
    from .io import curve_to_json

    traced = trace_singular_curves(curve, domain, grid_res)
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

    # every node lies on `traced`, so the snap check of classify_point is moot
    for sc in traced:
        for q in sc.points:
            try:
                cls = classify_point(curve, q)
            except TraceRequired:
                continue
            add(q, cls)
    for q, cls in locate_swallowtails(curve, traced):
        add(q, cls)
    for q in probes:
        try:
            cls = classify_point(curve, q, traced=None)
        except TraceRequired:
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
