"""Singular set analysis: tracing, null directions, classification.

The signed area density (written lam throughout) is the determinant of the
chart differential; the singular set is its zero locus.  Tracing extracts
that locus on a grid by marching squares plus an analytic sweep for zero
lines of even multiplicity, which sign-based extraction cannot see.  At a
singular point the kernel direction of the differential, the rank of the
lifted map, two algebraic frontal conditions, and the front criteria of
Kokubu, Rossman, Saji, Umehara and Yamada decide the class label:
D = det(gamma', eta) != 0 gives a cuspidal edge, D = 0 with dD/dt != 0 a
swallowtail.

Every quantity in these criteria is a polynomial jet of F and G, so
classification is a function of the jets at the point, with no solver.
`_classify_rows` is the one singular-point pipeline, whose rows
classification, `ccr_psi` and the ccr suite all read.  Each stage runs
once, on all rows that reach it, from one `Surface.chart_jet` pass over
all rows (lam, grad lam, the chart components, the front jets) and one
`Surface.field_jets` pass over the singular rows (the lift frames): lift
ranks from |dnu(eta)| against |dnu|; the branch, frontal-not-front and
degenerate masks; D and dD/dt in closed form (`_front_jet`); and the Psi
test of Fujimori, Saji, Umehara and Yamada, Psi(0) and Psi'(0) along each
exact null line in closed form from the lift frames (`_psi`).  A report
classifies its nodes, swallowtail roots and probes in one call, so it
costs a fixed number of kernel calls, not a number per traced node.
Swallowtails are common zeros of lam and Lambda = grad lam . c, c the
chosen rotated row of the chart matrix: one batched 2x2 Newton
(`_swallowtail_newton`) from the midpoints of the brackets where D changes
sign between traced nodes.  `classify_point`, `ccr_psi`, `lift_rank` and
`null_vector` are one-row calls.

Each primitive has one implementation that every stage shares, acting on
the last axis of arrays (one point is a (2,) row) with the same IEEE
operations per row as for a single point, so a row of a batch equals its
one-row result bit for bit: the sign alignment of vectors (`_aligned`), the
null direction of the chart matrix (`_null_candidates`, `_null_direction`),
the front jets (`_front_jet`), and Brent's method (`_brent`).  `_brent`
solves a batch of brackets in lockstep, one call of f per iteration for the
lanes still open, and each lane returns the float scipy's brentq returns on
its bracket: the trace solves all crossed grid edges in one call.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from .paracomplex import para_to_dalembert
from .surfaces import Domain, Jet2, _conormal_jet, _dot, _point_pairs, _position_jet, _unit_normal_jet, compile_surface

TAG_REGULAR = "Regular"
TAG_BRANCH = "BranchPoint"
TAG_FRONTAL_NOT_FRONT = "FrontalNotFront"
TAG_CUSPIDAL_EDGE = "CuspidalEdge"
TAG_SWALLOWTAIL = "Swallowtail"
TAG_FRONT_UNCLASSIFIED = "FrontUnclassified"
TAG_DEGENERATE_OTHER = "DegenerateOther"

_DET_TOL = 1e-6  # floor of |det(gamma', eta)| in the front criteria


class NotSingular(ValueError):
    """Point fails |lam| <= tol_sing, so singular-point machinery is undefined."""


class BranchPointError(ValueError):
    """The differential vanishes entirely; there is no null direction."""


class TraceRequired(RuntimeError):
    """The point is on no singular curve the test runs along: a front point off
    the given traced polylines (classify_point), or a singular point whose
    row of the classifier carries no Psi (ccr_psi)."""


@dataclass(frozen=True)
class Tolerances:
    """Scale-aware thresholds; S = coefficient scale x domain radius.

    branch is the one first-derivative tolerance, of the branch-point and
    frontal-not-front tests alike.  Fields are numbers, or arrays over rows.
    """

    sing: float
    deg: float
    branch: float

    def rows(self, idx):
        """Tolerances of the selected rows, when the fields are arrays over rows."""
        return Tolerances(self.sing[idx], self.deg[idx], self.branch[idx])


def tolerances_for(curve, radius=1.0) -> Tolerances:
    """Thresholds for a radius, or for an array of radii, one row each."""
    s = curve.coeff_scale * np.maximum(1.0, radius)
    return Tolerances(sing=1e-9 * s * s, deg=1e-7 * s, branch=1e-9 * s)


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
# (n, 2) array.  Every helper runs the same IEEE operations on each row as on a
# single point.


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


# -- null directions --------------------------------------------------------


def _chart(f1u, f2u, g1u, g2u, s):
    """Chart matrix of the components of F' and G', or of any of their partials,
    which enter it linearly: 2 x 2 at a point, the two leading axes on arrays."""
    return np.array([[f1u - s * g1u, s * f2u - g2u], [s * f2u + g2u, s * f1u + g1u]])


def _chart_matrix(surf, u, v):
    """Differential of (u, v) -> (x1, x2); its determinant is the density."""
    return _chart(*surf.chart_derivatives(u, v), surf.unit_sq)


def _null_candidates(m):
    """Kernel candidates: rotated rows of the chart differential m, as vectors on the last axis."""
    return np.stack([-m[0, 1], m[0, 0]], axis=-1), np.stack([-m[1, 1], m[1, 0]], axis=-1)


def _first_is_larger(c1, c2):
    """Where the first rotated-row candidate is at least as long as the second."""
    return np.hypot(c1[..., 0], c1[..., 1]) >= np.hypot(c2[..., 0], c2[..., 1])


def _null_direction(m):
    """(unit vector, length) of the larger rotated-row candidate; callers set the floor."""
    c1, c2 = _null_candidates(m)
    return _unit(np.where(_first_is_larger(c1, c2)[..., None], c1, c2))


def null_vector(curve, p):
    """Unit kernel direction of the chart differential at a singular point.

    The larger of the two rotated-row candidates, which are parallel on the
    singular set: the one-row `_null_direction` of the classifier, so it
    equals that row of a batch bit for bit.
    """
    surf = compile_surface(curve)
    tols = _point_tols(curve, p)
    lam = float(surf.area_density(float(p[0]), float(p[1])))
    if abs(lam) > tols.sing:
        raise NotSingular(f"|lam| = {abs(lam):.3e} exceeds {tols.sing:.3e}")
    eta, norm = _null_direction(_chart_matrix(surf, float(p[0]), float(p[1])))
    if norm <= tols.branch:
        raise BranchPointError("differential vanishes; no null direction")
    return eta


def _lift_frames(surf, u, v):
    """(x, nu): the second-order jets of the position and of the unit normal at
    the points (u, v), Jet2s of (n, 3) rows.

    From one field_jets call and the row forms of the surface's jets, so each
    row equals Surface.position_jet and Surface.normal_jet at that point bit
    for bit.
    """
    j = surf.field_jets(u, v)
    return _position_jet(j), _unit_normal_jet(_conormal_jet(j))


def _lift_ranks(x, nu, eta):
    """Ranks of the lift (position, unit normal) at rows with null direction eta.

    At a singular point with null direction eta the lift is an immersion
    exactly when dnu(eta) != 0, so the rank is 2 where |dnu(eta)| > 1e-9 |dnu|
    (Frobenius norm), 0 where dx and dnu are both zero, and 1 otherwise: a
    test homogeneous in the scale of F and G.
    """
    n_u, n_v = nu.du, nu.dv
    n_eta = eta[:, 0:1] * n_u + eta[:, 1:2] * n_v
    flat = ~np.any(np.concatenate([x.du, x.dv, n_u, n_v], axis=-1) != 0.0, axis=-1)
    immersed = np.sqrt(_dot(n_eta, n_eta)) > 1e-9 * np.sqrt(_dot(n_u, n_u) + _dot(n_v, n_v))
    return np.where(immersed, 2, np.where(flat, 0, 1))


def lift_rank(curve, p) -> int:
    """Rank of the lift (position, unit normal) at p: one row of `_lift_ranks`."""
    surf = compile_surface(curve)
    u, v = _point_pairs([p]).T
    eta, _ = _null_direction(_chart_matrix(surf, u, v))
    return int(_lift_ranks(*_lift_frames(surf, u, v), eta)[0])


# -- frontal-not-front conditions --------------------------------------------


def _fnf_kind(surf, comps, tols):
    """'difference' if f1_u=f2_u, g1_u=g2_u; 'sum' if the mirrored signs hold.

    comps: the chart components (f1u, f2u, g1u, g2u) of
    `Surface.chart_derivatives` at a point or at arrays of points.  The names
    record which combination u-v or u+v is constant along the null line the
    condition defines.  Convex-signature surfaces are always fronts, so the
    answer there is None.  For arrays of points (and tolerances), an object
    array of these answers, one per point.
    """
    f1u, f2u, g1u, g2u = comps
    diff = (np.abs(f1u - f2u) <= tols.branch) & (np.abs(g1u - g2u) <= tols.branch)
    summ = (np.abs(f1u + f2u) <= tols.branch) & (np.abs(g1u + g2u) <= tols.branch)
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
        step = xcur - xpre
        spre, scur = np.where(flip, step, spre), np.where(flip, step, scur)
        swap = np.abs(fblk) < np.abs(fcur)
        xpre, xcur, xblk, fpre, fcur, fblk = np.where(
            swap, [xcur, xblk, xcur, fcur, fblk, fcur], [xpre, xcur, xblk, fpre, fcur, fblk])
        delta = (xtol + rtol * np.abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        done = (fcur == 0.0) | (np.abs(sbis) < delta)
        if done.any():  # most iterations close no lane, and keep every array as it is
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
    """Join edge-id segments into ordered chains: a list of (chain, closed?).

    An edge id lies on one segment (a chain end) or two, so the walk steps
    to the neighbour it did not come from, and a set of the ids seen so far
    tells what is walked.  Open chains start at the ids on one segment, in
    order of first appearance; closed loops start at their first unseen
    segment in grid order and end on their first id again.  The order
    depends on neither dict nor set iteration (string hashes).
    """
    nbrs = {}
    for a, b in segments:
        nbrs.setdefault(a, []).append(b)
        nbrs.setdefault(b, []).append(a)
    seen = set()

    def walk(prev, key):
        chain = [prev, key]
        seen.update(chain)
        while len(nbrs[key]) == 2:
            a, b = nbrs[key]
            prev, key = key, b if a == prev else a
            chain.append(key)
            if key in seen:  # back at the start of a loop
                break
            seen.add(key)
        return chain

    chains = []
    for key, ends in nbrs.items():
        if len(ends) == 1 and key not in seen:
            chains.append((walk(key, ends[0]), False))
    for a, b in segments:
        if a not in seen:
            chains.append((walk(a, b), True))
    return chains


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
        # lines where p_left(c) a_k = q_left(c) b_k for the coefficients a_k of
        # p_right and b_k of q_right; exact pairs keep the combinations exact,
        # so real_roots can find their multiple roots
        pairs = list(zip_longest(p_right.coeffs, q_right.coeffs, fillvalue=0))
        combos = (a * p_left - b * q_left for a, b in pairs)
        combo = next((c for c in combos if not c.is_zero()), None)
        if combo is None:
            return []
        out = []
        for c in combo.real_roots():
            pl, ql = float(p_left(c)), float(q_left(c))
            if any(abs(pl * a - ql * b) > 1e-9 * max(1.0, abs(pl * a), abs(ql * b)) for a, b in pairs):
                continue
            if not any(abs(c - prior) < 1e-10 for prior in out):
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


def _null_lines(curve, domain, n_samples):
    """(line, points) of the analytic null lines inside the domain, line as
    ("sum"|"difference", constant), n_samples evenly spaced points each."""
    if curve.signature != "indefinite":
        return []
    lines = []
    sum_lines, diff_lines = _null_line_values(curve)
    for kind, values in (("sum", sum_lines), ("difference", diff_lines)):
        for c in values:
            span = _clip_line(domain, kind, c)
            if span is None:
                continue
            us = np.linspace(span[0], span[1], n_samples)
            vs = us - c if kind == "difference" else c - us
            lines.append(((kind, float(c)), np.column_stack([us, vs])))
    return lines


def _near_null_line(pts, line, tol):
    kind, c = line
    if kind == "difference":
        dist = np.abs(pts[:, 0] - pts[:, 1] - c) / np.sqrt(2)
    else:
        dist = np.abs(pts[:, 0] + pts[:, 1] - c) / np.sqrt(2)
    return dist <= tol


def _mask_runs(mask, closed):
    """Index arrays of the runs where mask holds, merging across the seam of closed chains."""
    idx = np.flatnonzero(mask)
    if not idx.size:
        return []
    runs = np.split(idx, np.flatnonzero(np.diff(idx) != 1) + 1)
    if closed and len(runs) >= 2 and runs[0][0] == 0 and runs[-1][-1] == len(mask) - 1:
        runs[0] = np.concatenate([runs.pop(), runs[0]])
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

    lines = _null_lines(curve, domain, n)

    segments, crossings = _marching_squares(surf, u_axis, v_axis, lam_grid)
    cell_diag = float(np.hypot(u_axis[1] - u_axis[0], v_axis[1] - v_axis[0]))
    pieces = []  # (points, closed) of the traced runs
    for chain, closed in _chain_segments(segments):
        pts = np.array([crossings[k] for k in chain])
        if closed and len(pts) > 1:
            pts = pts[:-1]
        if len(pts) < 2:
            continue
        # points already covered by an analytic null line are duplicates
        near = np.zeros(len(pts), dtype=bool)
        for line, _ in lines:
            near |= _near_null_line(pts, line, 0.75 * cell_diag)
        runs = _mask_runs(~near, closed)
        whole = len(runs) == 1 and len(runs[0]) == len(pts)
        pieces.extend((pts[run], closed and whole) for run in runs if len(run) >= 2)

    # one density pass over the nodes of every line and run
    polylines = [pts for _, pts in lines] + [pts for pts, _ in pieces]
    if not polylines:
        return []
    nodes = np.concatenate(polylines)
    _, gu, gv = surf.density_jet(nodes[:, 0], nodes[:, 1])
    level, norm = _unit(np.stack([-gv, gu], axis=-1))  # unit rot(grad lam), |grad lam|
    cuts = np.cumsum([len(pts) for pts in polylines])[:-1]
    levels, flags = np.split(level, cuts), np.split(norm <= tols.deg, cuts)
    curves = [
        SingularCurve(
            points=pts, tangents=np.tile(_NULL_LINE_DIRECTION[line[0]], (len(pts), 1)),
            degenerate_flags=flag, closed=False, kind="null-line", line=line,
        )
        for (line, pts), flag in zip(lines, flags)
    ]
    for (pts, closed), t, flag in zip(pieces, levels[len(lines):], flags[len(lines):]):
        # unit tangents along rot(grad lam), aligned with the walk direction
        steps = np.concatenate([pts[1:] - pts[:-1], pts[-1:] - pts[-2:-1]])
        tangents = np.where(flag[:, None], _unit(steps)[0], _aligned(t, steps))
        curves.append(SingularCurve(points=pts, tangents=tangents, degenerate_flags=flag,
                                    closed=closed, kind="traced"))
    return curves


# -- front criteria from jets -----------------------------------------------------


def _take(tree, idx):
    """The rows idx of every array in a nested tuple or list of arrays over rows."""
    if isinstance(tree, np.ndarray):
        return tree[idx]
    return tuple(_take(x, idx) for x in tree)


def _front_jet(jet, s, first=None):
    """The front criteria and their Newton system at the rows of jet, a
    `Surface.chart_jet` result on arrays of points, s = e**2; a pure
    function of the jet, with no kernel call and no projection onto {lam = 0}.

    c is the rotated row of the chart matrix m that `_null_direction` picks,
    or, where first is given, the first row where it is True and the second
    elsewhere; Lambda = grad lam . c.  With gamma' = rot(grad lam) / |grad lam|
    and eta = c / |c|, D = det(gamma', eta) = -Lambda / (|grad lam| |c|) and
    dD/dt = grad D . gamma', where grad Lambda = H c + (Dc)^T grad lam takes
    the Hessian H of lam and the partials of c, the rotated rows of the
    partials of m.  grad lam and c are made unit, and H and Dc divided by
    those lengths, before any product is formed, so every term is scale-free.

    Returns (D, dD/dt, lam / |grad lam|, unit grad lam, grad Lambda /
    (|grad lam| |c|), first).  The middle three and -D = Lambda / (|grad lam|
    |c|) are the Newton system on (lam, Lambda), each equation divided by its
    scale.
    """
    lam, grad, hess, comps = jet
    (c1, c2), *partials = (_null_candidates(_chart(*x, s)) for x in comps)
    first = _first_is_larger(c1, c2) if first is None else first
    g_hat, g_norm = _unit(np.stack(grad, axis=-1))
    c_hat, c_norm = _unit(np.where(first[:, None], c1, c2))
    (gu, gv), (cx, cy) = g_hat.T, c_hat.T
    huu, huv, hvv = (h / g_norm for h in hess)
    (cux, cuy), (cvx, cvy) = (np.where(first[:, None], a, b).T / c_norm for a, b in partials)
    det = -(gu * cx + gv * cy)
    big_u = huu * cx + huv * cy + gu * cux + gv * cuy
    big_v = huv * cx + hvv * cy + gu * cvx + gv * cvy
    det_u = -big_u - det * (huu * gu + huv * gv + cx * cux + cy * cuy)
    det_v = -big_v - det * (huv * gu + hvv * gv + cx * cvx + cy * cvy)
    return det, gu * det_v - gv * det_u, lam / g_norm, (gu, gv), (big_u, big_v), first


# -- point classification ------------------------------------------------------


@dataclass(frozen=True)
class Evidence:
    """Numbers behind a verdict; unevaluated entries stay None.

    det_ge and ddet_ge are D = det(gamma', eta) and dD/dt of the front
    criteria, closed forms in the jets of F and G at the point (`_front_jet`);
    psi0 and dpsi0 are Psi(0) and Psi'(0) of the cuspidal-cross-cap test on an
    exact null line, closed forms in the jets of the position and the unit
    normal at the point (`_psi`).
    """

    density: float
    grad_norm: float
    det_ge: float | None = None
    ddet_ge: float | None = None
    psi0: float | None = None
    dpsi0: float | None = None
    lift_rank: int | None = None

    def as_dict(self):
        """The fields in order, density under the key "lambda"."""
        out = dict(vars(self))
        return {"lambda": out.pop("density"), **out}


@dataclass(frozen=True)
class SingularClass:
    tag: str
    point: tuple
    evidence: Evidence
    degenerate: bool


def _classify_rows(surf, p, tols):
    """The singular-point pipeline on the rows of p, an (n, 2) array, with
    their Tolerances tols, from one chart_jet and one field_jets pass.

    Decision order per row: regular; branch point; the two frontal-not-front
    conditions; degenerate gradient; then the front criteria (`_front_jet`).
    Each stage runs once, on the array of rows that reach it, and every row
    gets a tag.  A frontal-not-front row gets Psi where its null direction
    is longer than its branch tolerance.

    Returns (tags, degenerate, evidence, rows, x, nu): each row's tag and
    degenerate flag; the Evidence columns in field order, None where no
    stage set them; the indices of the singular rows and their
    `_lift_frames` jets x and nu.
    """
    u, v = p[:, 0], p[:, 1]
    jet = surf.chart_jet(u, v)
    lam, (gu, gv), _, (comps, _, _) = jet
    grad = np.hypot(gu, gv)
    degenerate = grad <= tols.deg
    tags = np.full(len(p), TAG_REGULAR, dtype=object)
    det0, ddet, psi0, dpsi0, rank = (np.full(len(p), None, dtype=object) for _ in range(5))

    rows = np.flatnonzero(~(np.abs(lam) > tols.sing))
    comps = _take(comps, rows)
    eta, eta_norm = _null_direction(_chart(*comps, surf.unit_sq))
    x, nu = _lift_frames(surf, u[rows], v[rows])
    rank[rows] = _lift_ranks(x, nu, eta).tolist()
    branch = np.max(np.abs(comps), axis=0) <= tols.branch[rows]
    kinds = _fnf_kind(surf, comps, tols.rows(rows))
    fnf = np.array([k is not None for k in kinds], dtype=bool) & ~branch
    tags[rows[branch]] = TAG_BRANCH
    tags[rows[fnf]] = TAG_FRONTAL_NOT_FRONT
    line = fnf & ~(eta_norm <= tols.branch[rows])
    if line.any():  # most curves have no frontal-not-front rows
        a, b = _psi(x.rows(line), nu.rows(line), _line_directions(kinds[line]), eta[line])
        psi0[rows[line]], dpsi0[rows[line]] = a.tolist(), b.tolist()

    front = rows[~branch & ~fnf]
    tags[front[degenerate[front]]] = TAG_DEGENERATE_OTHER
    front = front[~degenerate[front]]

    d, dd, *_ = _front_jet(_take(jet, front), surf.unit_sq)
    two = rank[front] == 2
    swallowtail = two & (np.abs(d) <= _DET_TOL) & (np.abs(dd) > _DET_TOL)
    tags[front] = np.where(
        two & (np.abs(d) > _DET_TOL), TAG_CUSPIDAL_EDGE,
        np.where(swallowtail, TAG_SWALLOWTAIL, TAG_FRONT_UNCLASSIFIED),
    ).tolist()
    det0[front], ddet[front] = d.tolist(), dd.tolist()
    return tags, degenerate, (lam.tolist(), grad.tolist(), det0, ddet, psi0, dpsi0, rank), rows, x, nu


def _classify_points(curve, pts) -> list:
    """Class labels of the points of the surface over the (u, v) pairs pts,
    with evidence: the rows of `_classify_rows`."""
    p = _point_pairs(pts)
    if not len(p):  # an empty batch would still pay numpy's per-call cost in every stage
        return []
    tags, degenerate, evidence, *_ = _classify_rows(compile_surface(curve), p, _point_tols(curve, p))
    return [
        SingularClass(tag=tag, point=(pu, pv), evidence=Evidence(*ev), degenerate=deg)
        for tag, pu, pv, deg, *ev in zip(tags, p[:, 0].tolist(), p[:, 1].tolist(), degenerate.tolist(), *evidence)
    ]


def classify_point(curve, p, traced=None) -> SingularClass:
    """Class label of the point of the surface over p, with evidence.

    One row of `_classify_points`, decided from the jets at p alone.  When
    `traced` is given and the front criteria decide, p must lie within four
    grid cells (and at least 0.04 of its scale) of a node of the traced
    polylines; otherwise TraceRequired is raised.
    """
    cls = _classify_points(curve, [p])[0]
    u, v = float(p[0]), float(p[1])
    # the snap check guards the front criteria, the rows that carry det_ge
    if traced is not None and cls.evidence.det_ge is not None:
        cell = max(
            float(np.hypot(*np.ptp(sc.points, axis=0))) / max(len(sc) - 1, 1)
            for sc in traced
        ) if traced else 0.0
        nodes = np.concatenate([sc.points for sc in traced] + [np.zeros((0, 2))])
        reach = max(4 * cell, 0.04 * max(1.0, abs(u), abs(v)))
        if not (np.hypot(nodes[:, 0] - u, nodes[:, 1] - v) <= reach).any():
            raise TraceRequired(f"({u}, {v}) is not on a traced singular curve")
    return cls


# -- cuspidal cross cap obstruction ---------------------------------------------


def _line_directions(kinds):
    """(n, 2) unit directions of the null lines of the kinds "sum" or "difference"."""
    return np.array([_NULL_LINE_DIRECTION[k] for k in kinds]).reshape(-1, 2)


def _psi(x, nu, d, eta):
    """(Psi(0), Psi'(0)) at rows on exact null lines, from the second-order jets
    x and nu (Jet2s of (n, 3) rows) of the position and the unit normal.

    Psi(t) = det(x_d, nu_eta, nu) along the line p + t d, d the line's unit
    direction and eta the null direction, (n, 2) rows each.  On an exact
    frontal-not-front null line both rows of the chart matrix are parallel to
    the line's normal, so eta is constant along it and Psi'(0) =
    det(x_dd, nu_eta, nu) + det(x_d, nu_etad, nu) + det(x_d, nu_eta, nu_d).
    """
    (du, dv), (eu, ev) = (w.T[..., None] for w in (d, eta))
    x_d = du * x.du + dv * x.dv
    x_dd = du * du * x.duu + 2 * du * dv * x.duv + dv * dv * x.dvv
    nu_d = du * nu.du + dv * nu.dv
    nu_eta = eu * nu.du + ev * nu.dv
    nu_etad = eu * du * nu.duu + (eu * dv + ev * du) * nu.duv + ev * dv * nu.dvv
    frames = [(x_d, nu_eta, nu.value), (x_dd, nu_eta, nu.value),
              (x_d, nu_etad, nu.value), (x_d, nu_eta, nu_d)]
    psi0, *terms = np.linalg.det(np.stack([np.stack(f, axis=-2) for f in frames]))
    return psi0, terms[0] + terms[1] + terms[2]


def ccr_psi(curve, p):
    """(Psi(0), Psi'(0)) for the cuspidal-cross-cap test at p on an exact null line.

    Psi(t) = det(dpsi(gamma'), D_eta nu, nu) along the frontal-not-front null
    line through p, and its derivative, in closed form from the jets at p
    (`_psi`): the Psi evidence of p's row of `_classify_points`.  Raises
    NotSingular where that row is Regular, and TraceRequired where it has no
    Psi: p is on no such line, is a branch point, or has no null direction.
    """
    cls = _classify_points(curve, [p])[0]
    if cls.tag == TAG_REGULAR:
        raise NotSingular(f"({cls.point[0]}, {cls.point[1]}) is not singular")
    if cls.evidence.psi0 is None:
        raise TraceRequired(f"{tuple(p)} is classed {cls.tag}, which carries no Psi")
    return cls.evidence.psi0, cls.evidence.dpsi0


@functools.cache
def ccr_psi_control():
    """Same test on the frontal (u, v^2, u v^3), whose Psi'(0) is -3/2.

    The non-vacuity control for the obstruction test: `_psi` on hand-written
    jets at 0 of the position and of the unit normal (-2v^3, -3uv, 2)/|.|,
    which is (-v^3, -3uv/2, 1) to second order, along the singular line
    v = 0 with null direction (0, 1).  A constant, computed once.
    """
    zero = np.zeros((1, 3))
    x = Jet2(zero, np.array([[1.0, 0.0, 0.0]]), zero, zero, zero, np.array([[0.0, 2.0, 0.0]]))
    nu = Jet2(np.array([[0.0, 0.0, 1.0]]), zero, zero, zero, np.array([[0.0, -1.5, 0.0]]), zero)
    psi0, dpsi0 = _psi(x, nu, np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))
    return float(psi0[0]), float(dpsi0[0])


def _null_line_psi(curve, domain):
    """(Psi'(0), scale) at the samples of the exact null lines whose rows of
    `_classify_rows` carry Psi: the points and the Jacobian scale of the ccr
    suite.  Every line gets 48 evenly spaced points, of which every ninth
    from the ninth on is a sample.  scale is max(1, |d x| |d nu|), with the
    Frobenius norms of the 3x2 Jacobians of position and unit normal at the
    sample, from the lift frames of the classifier.
    """
    surf = compile_surface(curve)
    lines = [] if surf.density_is_zero else _null_lines(curve, domain, 48)
    if not lines:
        return np.zeros(0), np.zeros(0)
    p = np.concatenate([pts[9::9] for _, pts in lines])
    _, _, evidence, rows, x, nu = _classify_rows(surf, p, _point_tols(curve, p))
    dpsi0 = evidence[5][rows]  # Evidence.dpsi0 of the singular rows
    line = np.flatnonzero([d is not None for d in dpsi0])
    # Frobenius norms, summed in np.linalg.norm's order
    jac_x, jac_n = (np.stack(pair, axis=-1)[line].reshape(-1, 6) for pair in ((x.du, x.dv), (nu.du, nu.dv)))
    dpsi0 = dpsi0[line].astype(float)
    return dpsi0, np.maximum(1.0, np.sqrt(_dot(jac_x, jac_x)) * np.sqrt(_dot(jac_n, jac_n)))


# -- swallowtail search ----------------------------------------------------------


def _node_dets(surf, pts, tangents, degenerate):
    """det(gamma', eta) at the concatenated nodes of traced curves, NaN where
    undefined, eta the null direction as `_null_direction` gives it.

    One array pass over the nodes of all curves.  gamma' is the curve's
    tangent, which is +-rot(grad lam) exactly at every node not flagged
    degenerate; det is undefined at the flagged nodes and where the null
    direction vanishes.  Along the defined nodes each vector is `_aligned`
    with the aligned vector of the node before.  A sign flip of a reference
    flips its dot exactly, so the sign of det follows from the cumulative
    product of the signs of consecutive dots of the raw vectors.  The signs
    are fixed only up to one factor per curve, which leaves every product of
    two dets on a curve, the bracket test, unchanged.
    """
    etas, norm = _null_direction(_chart_matrix(surf, pts[:, 0], pts[:, 1]))
    rows = np.flatnonzero((norm != 0.0) & ~degenerate)
    t, eta = tangents[rows], etas[rows]
    flips = [np.where(_dot(x[1:], x[:-1]) < 0, -1.0, 1.0) for x in (t, eta)]
    dets = np.full(len(pts), np.nan)
    dets[rows] = _det2(t, eta) * np.cumprod(np.concatenate([[1.0], flips[0] * flips[1]]))[:len(rows)]
    return dets


_NEWTON_MAXITER = 30


def _swallowtail_newton(surf, seeds, reach):
    """Common zeros of lam and Lambda near the rows of seeds, by a batched 2x2 Newton.

    The system is `_front_jet`'s, with c's row fixed at the one the seed
    picks.  A step is cut to a quarter of the row's reach at most, so that
    a seed far from the quadratic basin of its root does not jump to
    another.  A row stops at a Newton step of at most 4 eps max(1, |q|) and
    returns the iterate after it; it has no root (NaN) where a step is not
    finite, where an iterate is farther than its reach from its seed, or
    after _NEWTON_MAXITER steps.  Each step is one kernel pass over the rows
    still undecided.
    """
    roots = np.full_like(seeds, np.nan)
    rows, q, first = np.arange(len(seeds)), seeds, None
    for _ in range(_NEWTON_MAXITER):
        if not rows.size:
            break
        # a zero grad lam or c, a singular system or an overflow makes the
        # step non-finite, and its row drops out
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            det, _, lam, (gu, gv), (lu, lv), first = _front_jet(surf.chart_jet(*q.T), surf.unit_sq, first)
            jac = gu * lv - gv * lu
            step = np.stack([-(lv * lam + gv * det), lu * lam + gu * det], axis=-1) / jac[:, None]
            size = np.hypot(*step.T)
            nxt = q + step * np.minimum(1.0, 0.25 * reach[rows] / size)[:, None]
            near = np.hypot(*(nxt - seeds[rows]).T) <= reach[rows]
            done = size <= 4 * np.finfo(float).eps * np.maximum(1.0, np.hypot(*q.T))
        roots[rows[near & done]] = nxt[near & done]
        going = near & ~done
        rows, q, first = rows[going], nxt[going], first[going]
    return roots


def _swallowtail_roots(surf, traced):
    """(n, 2) swallowtail candidates along the traced curves, in bracket order.

    Every pair of consecutive nodes where det(gamma', eta) changes sign is a
    bracket (`_node_dets`).  Each bracket seeds `_swallowtail_newton` at its
    midpoint, with its length as the reach; a seed without a root gives none.
    """
    curves = [sc for sc in traced if sc.kind == "traced"]
    if not curves:
        return np.zeros((0, 2))
    pts, tangents, flags = (np.concatenate([getattr(sc, name) for sc in curves])
                            for name in ("points", "tangents", "degenerate_flags"))
    dets = _node_dets(surf, pts, tangents, flags)
    sizes = np.array([len(sc) for sc in curves])
    ends = np.cumsum(sizes)
    k_next = np.arange(1, ends[-1] + 1)  # node k's bracket ends at the next node,
    k_next[ends - 1] = ends - sizes  # a curve's last bracket at its node 0
    bracket = dets * dets[k_next] <= 0  # False where either det is NaN
    bracket[ends[~np.array([sc.closed for sc in curves])] - 1] = False  # open curves have no last bracket
    k = np.flatnonzero(bracket)
    pa, pb = pts[k], pts[k_next[k]]
    roots = _swallowtail_newton(surf, 0.5 * (pa + pb), np.hypot(*(pb - pa).T))
    return roots[~np.isnan(roots[:, 0])]


def _swallowtails(roots, classes):
    """(point, class) of the roots classed as swallowtails, in root order, but
    a root within 1e-6 of one kept before it."""
    found = []
    for q, cls in zip(roots, classes):
        if cls.tag != TAG_SWALLOWTAIL:
            continue
        if not any(np.hypot(*(q - prev)) < 1e-6 for prev, _ in found):
            found.append((q, cls))
    return found


def locate_swallowtails(curve, traced):
    """Zeros of det(gamma', eta) along traced curves that classify as swallowtails:
    `_swallowtail_roots`, one `_classify_points` call, then `_swallowtails`."""
    roots = _swallowtail_roots(compile_surface(curve), traced)
    return _swallowtails(roots, _classify_points(curve, roots))


# -- reports -----------------------------------------------------------------


def classification_report(curve, domain: Domain, grid_res=64, probes=()) -> dict:
    """Trace plus classification at curve nodes, located swallowtails, probes.

    The nodes, the swallowtail roots and the probes are classified in one
    `_classify_points` call; each row equals its one-row result, so the
    entries are those of `classify_point` and `locate_swallowtails`.
    """
    from .io import curve_to_json

    traced = trace_singular_curves(curve, domain, grid_res)
    probes = list(probes)
    nodes = np.concatenate([sc.points for sc in traced] + [np.zeros((0, 2))])
    roots = _swallowtail_roots(compile_surface(curve), traced)
    classes = _classify_points(curve, np.concatenate([nodes, roots, _point_pairs(probes)]))
    entries = list(zip(nodes, classes))
    entries += _swallowtails(roots, classes[len(nodes):len(nodes) + len(roots)])
    entries += zip(probes, classes[len(nodes) + len(roots):])
    points = [
        {"u": float(q[0]), "v": float(q[1]), "class": cls.tag, "degenerate": cls.degenerate,
         "evidence": cls.evidence.as_dict()}
        for q, cls in entries
    ]

    return {
        "curve": curve_to_json(curve),
        "domain": [domain.u0, domain.u1, domain.v0, domain.v1],
        "singular_curves": [sc.points.tolist() for sc in traced],
        "points": points,
    }
