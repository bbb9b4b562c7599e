"""Residual suites for the identities the construction guarantees.

Every suite evaluates an exact identity at sample points and reports the
worst scale-relative deviation: the duality relations between position and
conormal, annihilation of the two canonical 2-forms on the lift, conformality
of the affine metric, the Monge-Ampere equation det Hess = c on graph
patches, and the contact-form checks (theta, omega) of the graph lift.
Identities hold for every curve pair, so corrupted-field fixtures provide the
negative controls.

A point set is any iterable of (u, v) pairs, an (n, 2) array, or a PointSet
that ``evaluate`` made of one.  Raw points cost a suite one
``Surface.field_jets`` call; a PointSet carries that call's jets, and for a
graph patch its chart, so the suites that read one input share one
``field_jets`` call per input.  Each report's tolerance is in TOLERANCES.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .singularities import _null_line_psi, ccr_psi_control
from .surfaces import Domain, FieldJets, Surface, _point_pairs, compile_surface

# report name -> tolerance, read by the suites and by a failure report of a
# suite whose input could not be built
TOLERANCES = {
    "duality": 1e-8, "two_form": 1e-8, "conformal": 1e-8,
    "monge_ampere": 1e-5, "lift": 1e-5, "ccr": 1e-6, "ccr_control": 1.0,
}


class PatchNotGraph(ValueError):
    """The (u,v) -> (x1,x2) chart is not invertible on the requested patch."""


@dataclass(frozen=True)
class ResidualReport:
    name: str
    max_abs: float
    mean_abs: float
    points_checked: int
    passed: bool
    tolerance: float

    def as_dict(self):
        """The fields in order, passed under the key "pass"."""
        return {"pass" if key == "passed" else key: val for key, val in vars(self).items()}


def _surface(curve_or_surface) -> Surface:
    if isinstance(curve_or_surface, Surface):
        return curve_or_surface
    return compile_surface(curve_or_surface)


class PointSet(NamedTuple):
    """Points evaluated once: the surface, the u and v arrays, their field jets
    and, for a graph patch, the chart: (Jacobian, its determinant, the graph
    gradient (p, q), the graph Hessian (uu, uv, vv))."""

    surf: Surface
    u: np.ndarray
    v: np.ndarray
    jets: FieldJets
    chart: tuple | None = None


def evaluate(curve, points, chart=False) -> PointSet:
    """The PointSet of points on the surface of curve, with its chart when asked.

    A PointSet is passed through, and keeps its own surface; its chart is
    solved here if asked for and missing.  Raises PatchNotGraph when the
    chart degenerates at a point.
    """
    if isinstance(points, PointSet):
        pts = points
    else:
        surf = _surface(curve)
        u, v = _point_pairs(points).T
        pts = PointSet(surf, u, v, surf.field_jets(u, v))
    if chart and pts.chart is None:
        jac, det, (p, q) = _chart_solve(pts.u, pts.v, pts.jets)
        pts = pts._replace(chart=(jac, det, (p, q), _graph_hessian(pts.jets, p, q)))
    return pts


def _report(name, residuals) -> ResidualReport:
    """Summary of an array of residuals of any shape against TOLERANCES[name];
    an empty one passes."""
    tolerance = TOLERANCES[name]
    arr = np.abs(np.ravel(residuals))
    if arr.size == 0:
        return ResidualReport(name, 0.0, 0.0, 0, True, tolerance)
    max_abs = float(np.max(arr))
    return ResidualReport(
        name=name,
        max_abs=max_abs,
        mean_abs=float(np.mean(arr)),
        points_checked=int(arr.size),
        passed=bool(max_abs <= tolerance),
        tolerance=tolerance,
    )


def _rel(value, *scales):
    """|value| / max(1, |scales|), elementwise."""
    return np.abs(value) / np.maximum(1.0, np.max(np.abs(scales), axis=0))


# -- duality ------------------------------------------------------------------


def duality_residual(curve, points) -> ResidualReport:
    """Residuals of the position/conormal cross-product duality.

    Indefinite: psi_u = nu x nu_v, psi_v = nu x nu_u, nu_u = psi_v x xi,
    nu_v = psi_u x xi with xi = (0,0,1).  The convex signature mirrors the
    middle two identities: psi_v = nu_u x nu and nu_u = xi x psi_v.
    """
    pts = evaluate(curve, points)
    xi = np.array([0.0, 0.0, 1.0])
    sign = pts.surf.curve.unit_sq
    j = pts.jets
    # (jet index, point, component) stacks of the position and the conormal
    psi = np.stack([j.x1, j.x2, j.phi], axis=-1)
    nu = np.stack([j.n1, j.n2, np.zeros_like(j.n1)], axis=-1)
    nu[0, :, 2] = 1.0
    checks = (
        (psi[1], np.cross(nu[0], nu[2])),
        (psi[2], sign * np.cross(nu[0], nu[1])),
        (nu[1], sign * np.cross(psi[2], xi)),
        (nu[2], np.cross(psi[1], xi)),
    )
    res = [_rel(*np.linalg.norm([got - want, got, want], axis=2)) for got, want in checks]
    return _report("duality", np.stack(res, axis=1))


# -- 2-form annihilation ---------------------------------------------------------


def two_form_residual(curve, points) -> ResidualReport:
    """Pullback residuals of the two canonical 2-forms on the (x, n) lift.

    First form: dx1^dx2 + dn1^dn2 vanishes in the indefinite signature; the
    convex one carries the opposite sign on the dn term.  Second form:
    dx1^dn1 + dx2^dn2 vanishes in both.
    """
    pts = evaluate(curve, points)
    sign = pts.surf.curve.unit_sq
    j = pts.jets
    (_, x1u, x1v, *_), (_, x2u, x2v, *_) = j.x1, j.x2
    (_, n1u, n1v, *_), (_, n2u, n2v, *_) = j.n1, j.n2
    det_x = x1u * x2v - x1v * x2u
    det_n = n1u * n2v - n1v * n2u
    form1 = det_x + sign * det_n
    form2 = (x1u * n1v - x1v * n1u) + (x2u * n2v - x2v * n2u)
    res = (_rel(form1, det_x, det_n), _rel(form2, x1u * n1v, x1v * n1u, x2u * n2v, x2v * n2u))
    return _report("two_form", np.stack(res, axis=1))


# -- metric conformality -----------------------------------------------------------


def metric_conformality(curve, points) -> ResidualReport:
    """Conformality of g = -<dx, dn> in null (indefinite) or isothermal (convex)
    coordinates: g_uv = 0 and g_uu + g_vv = 0, resp. g_uu - g_vv = 0."""
    pts = evaluate(curve, points)
    sign = pts.surf.curve.unit_sq
    j = pts.jets
    (_, x1u, x1v, *_), (_, x2u, x2v, *_) = j.x1, j.x2
    (_, n1u, n1v, *_), (_, n2u, n2v, *_) = j.n1, j.n2
    g_uu = -(x1u * n1u + x2u * n2u)
    g_vv = -(x1v * n1v + x2v * n2v)
    g_uv = -0.5 * ((x1u * n1v + x2u * n2v) + (x1v * n1u + x2v * n2u))
    res = (_rel(g_uv, g_uu, g_vv), _rel(g_uu + sign * g_vv, g_uu, g_vv))
    return _report("conformal", np.stack(res, axis=1))


# -- graph patches ------------------------------------------------------------------


def regular_graph_patch(curve, domain: Domain | None = None, res=16):
    """Grid points where the (x1, x2) chart is safely invertible.

    The chart Jacobian determinant equals the area density, so the filter
    keeps points with |density| above both the hard graph floor 1e-6 and 5% of
    the grid maximum (conditioning guard).
    """
    surf = _surface(curve)
    domain = domain or Domain()
    u_axis, v_axis = domain.axes(int(res), int(res))
    lam = surf.density_grid(u_axis, v_axis)
    thresh = max(1e-6, 5e-2 * float(np.max(np.abs(lam))))
    iu, iv = np.nonzero(np.abs(lam) >= thresh)
    pts = np.column_stack([u_axis[iu], v_axis[iv]])
    if len(pts) == 0:
        raise PatchNotGraph("no graph points: the chart degenerates everywhere")
    return pts


def _cramer(jac, det, a, b):
    """(p, q) solving J^T (p, q) = (a, b) by Cramer's rule, for floats or arrays."""
    (x1u, x1v), (x2u, x2v) = jac
    return (a * x2v - x2u * b) / det, (x1u * b - x1v * a) / det


def _chart_solve(u, v, j):
    """Jacobian, its determinant, and the graph gradient (p, q), which solves
    J^T (p, q) = (phi_u, phi_v), at a float point or at arrays of points.

    j: the field jets at (u, v).  Raises PatchNotGraph naming the first point
    where |det J| <= 1e-6.
    """
    (_, x1u, x1v, *_), (_, x2u, x2v, *_), (_, phiu, phiv, *_) = j.x1, j.x2, j.phi
    jac = np.array([[x1u, x1v], [x2u, x2v]])
    det = x1u * x2v - x1v * x2u
    bad = np.flatnonzero(np.abs(det) <= 1e-6)
    if bad.size:
        u0, v0 = np.ravel(u)[bad[0]], np.ravel(v)[bad[0]]
        raise PatchNotGraph(f"chart Jacobian degenerate at ({u0}, {v0})")
    return jac, det, _cramer(jac, det, phiu, phiv)


def _graph_hessian(j, p, q):
    """uu, uv and vv partials of phi - p x1 - q x2 with (p, q) held fixed."""
    return tuple(f - a * p - b * q for f, a, b in zip(j.phi[3:], j.x1[3:], j.x2[3:]))


def monge_ampere_residual(curve, graph_patch) -> ResidualReport:
    """|det Hess_x phi - c| on a graph patch; c = -1 indefinite, +1 convex.

    The Hessian in graph coordinates comes from exact (u,v)-jets pushed
    through the chart by the inverse function theorem.
    """
    pts = evaluate(curve, graph_patch, chart=True)
    c = -pts.surf.curve.unit_sq
    _, det, _, (h_uu, h_uv, h_vv) = pts.chart
    return _report("monge_ampere", (h_uu * h_vv - h_uv * h_uv) / det**2 - c)


def lift_residual(curve, graph_patch, flip_q=False) -> ResidualReport:
    """Pullback residuals of theta = dz - p dx - q dy and
    omega = c dx^dy - dp^dq along the graph lift (x, y, z, p, q).

    flip_q negates q after the solve; it is the negative control that breaks
    theta while leaving the surface data intact.
    """
    pts = evaluate(curve, graph_patch, chart=True)
    c = -pts.surf.curve.unit_sq
    j = pts.jets
    jac, det, (p, q), (h_uu, h_uv, h_vv) = pts.chart
    pu, qu = _cramer(jac, det, h_uu, h_uv)
    pv, qv = _cramer(jac, det, h_uv, h_vv)
    if flip_q:
        q, qu, qv = -q, -qu, -qv
    (_, x1u, x1v, *_), (_, x2u, x2v, *_), (_, phiu, phiv, *_) = j.x1, j.x2, j.phi
    theta_u = phiu - p * x1u - q * x2u
    theta_v = phiv - p * x1v - q * x2v
    omega = c * det - (pu * qv - pv * qu)
    res = (_rel(theta_u, phiu, phiv), _rel(theta_v, phiu, phiv), _rel(omega, det))
    return _report("lift", np.stack(res, axis=1))


# -- cuspidal cross cap suite -------------------------------------------------------


def ccr_residual(curve, domain: Domain | None = None):
    """|Psi'(0)| at detected frontal-not-front points, scale-relative.

    The points are samples of the analytic null lines of the singular set,
    48 per line.  Returns a pair of reports: the obstruction residuals, and a
    non-vacuity control on the frontal (u, v^2, u v^3) whose residual is the
    ratio 1e-3 / |Psi'(0)| (pass means the control test would reject it).
    """
    dpsi0, scale = _null_line_psi(curve, domain or Domain())
    _, dpsi_control = ccr_psi_control()
    ratio = 1e-3 / max(abs(dpsi_control), 1e-300)
    return _report("ccr", np.abs(dpsi0) / scale), _report("ccr_control", ratio)


def random_regular_points(curve, n, rng, domain: Domain | None = None):
    """n points of the domain where the surface is comfortably regular.

    Candidates are drawn in blocks no larger than the number of points still
    needed, so the points and the generator state afterwards are those of
    drawing and testing one candidate (u, then v) at a time.
    """
    surf = _surface(curve)
    domain = domain or Domain()
    out = []
    tries = 0
    while len(out) < n and tries < 200 * n:
        k = min(n - len(out), 200 * n - tries)
        tries += k
        uv = rng.uniform([domain.u0, domain.v0], [domain.u1, domain.v1], size=(k, 2))
        keep = np.abs(surf._density(uv[:, 0], uv[:, 1])) > 1e-3
        out.extend(map(tuple, uv[keep].tolist()))
    if len(out) < n:
        raise PatchNotGraph("could not find enough regular points")
    return out
