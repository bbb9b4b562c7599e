"""Residual suites for the identities the construction guarantees.

Every suite evaluates an exact identity at sample points and reports the
worst scale-relative deviation: the duality relations between position and
conormal, annihilation of the two canonical 2-forms on the lift, conformality
of the affine metric, the Monge-Ampere equation det Hess = c on graph
patches, and the contact-form checks (theta, omega) of the graph lift.
Identities hold for every curve pair, so corrupted-field fixtures provide the
negative controls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .surfaces import Domain, Surface, compile_surface


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
        return {
            "name": self.name,
            "max_abs": self.max_abs,
            "mean_abs": self.mean_abs,
            "points_checked": self.points_checked,
            "pass": self.passed,
            "tolerance": self.tolerance,
        }


def _surface(curve_or_surface) -> Surface:
    if isinstance(curve_or_surface, Surface):
        return curve_or_surface
    return compile_surface(curve_or_surface)


def _report(name, residuals, tolerance) -> ResidualReport:
    arr = np.asarray(list(residuals), dtype=float)
    if arr.size == 0:
        return ResidualReport(name, 0.0, 0.0, 0, True, tolerance)
    max_abs = float(np.max(np.abs(arr)))
    return ResidualReport(
        name=name,
        max_abs=max_abs,
        mean_abs=float(np.mean(np.abs(arr))),
        points_checked=int(arr.size),
        passed=bool(max_abs <= tolerance),
        tolerance=tolerance,
    )


def _rel(value, *scales):
    return float(value) / max(1.0, *(float(s) for s in scales))


# -- duality ------------------------------------------------------------------


def duality_residual(curve, points) -> ResidualReport:
    """Residuals of the position/conormal cross-product duality.

    Indefinite: psi_u = nu x nu_v, psi_v = nu x nu_u, nu_u = psi_v x xi,
    nu_v = psi_u x xi with xi = (0,0,1).  The convex signature mirrors the
    middle two identities: psi_v = nu_u x nu and nu_u = xi x psi_v.
    """
    surf = _surface(curve)
    xi = np.array([0.0, 0.0, 1.0])
    sign = surf.curve.unit_sq
    res = []
    for u, v in points:
        u, v = float(u), float(v)
        pj = surf.position_jet(u, v)
        cj = surf.conormal_jet(u, v)
        checks = (
            (pj.du, np.cross(cj.value, cj.dv)),
            (pj.dv, sign * np.cross(cj.value, cj.du)),
            (cj.du, sign * np.cross(pj.dv, xi)),
            (cj.dv, np.cross(pj.du, xi)),
        )
        for got, want in checks:
            res.append(
                _rel(np.linalg.norm(got - want), np.linalg.norm(got), np.linalg.norm(want))
            )
    return _report("duality", res, 1e-8)


# -- 2-form annihilation ---------------------------------------------------------


def two_form_residual(curve, points) -> ResidualReport:
    """Pullback residuals of the two canonical 2-forms on the (x, n) lift.

    First form: dx1^dx2 + dn1^dn2 vanishes in the indefinite signature; the
    convex one carries the opposite sign on the dn term.  Second form:
    dx1^dn1 + dx2^dn2 vanishes in both.
    """
    surf = _surface(curve)
    sign = surf.curve.unit_sq
    res = []
    for u, v in points:
        j = surf.field_jets(float(u), float(v))
        (_, x1u, x1v, *_), (_, x2u, x2v, *_) = j.x1, j.x2
        (_, n1u, n1v, *_), (_, n2u, n2v, *_) = j.n1, j.n2
        det_x = x1u * x2v - x1v * x2u
        det_n = n1u * n2v - n1v * n2u
        form1 = det_x + sign * det_n
        form2 = (x1u * n1v - x1v * n1u) + (x2u * n2v - x2v * n2u)
        scale1 = max(abs(det_x), abs(det_n))
        scale2 = max(
            abs(x1u * n1v), abs(x1v * n1u), abs(x2u * n2v), abs(x2v * n2u)
        )
        res.append(_rel(abs(form1), scale1))
        res.append(_rel(abs(form2), scale2))
    return _report("two_form", res, 1e-8)


# -- metric conformality -----------------------------------------------------------


def metric_conformality(curve, points) -> ResidualReport:
    """Conformality of g = -<dx, dn> in null (indefinite) or isothermal (convex)
    coordinates: g_uv = 0 and g_uu + g_vv = 0, resp. g_uu - g_vv = 0."""
    surf = _surface(curve)
    sign = surf.curve.unit_sq
    res = []
    for u, v in points:
        j = surf.field_jets(float(u), float(v))
        (_, x1u, x1v, *_), (_, x2u, x2v, *_) = j.x1, j.x2
        (_, n1u, n1v, *_), (_, n2u, n2v, *_) = j.n1, j.n2
        g_uu = -(x1u * n1u + x2u * n2u)
        g_vv = -(x1v * n1v + x2v * n2v)
        g_uv = -0.5 * ((x1u * n1v + x2u * n2v) + (x1v * n1u + x2v * n2u))
        scale = max(abs(g_uu), abs(g_vv))
        res.append(_rel(abs(g_uv), scale))
        res.append(_rel(abs(g_uu + sign * g_vv), scale))
    return _report("conformal", res, 1e-8)


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


def _chart_solve(surf, u, v, jets=None):
    """Jacobian, its determinant, and the graph gradient (p, q) at one point.

    jets: surf.field_jets(u, v) when the caller already has them.
    """
    j = jets or surf.field_jets(float(u), float(v))
    (_, x1u, x1v, *_), (_, x2u, x2v, *_), (_, phiu, phiv, *_) = j.x1, j.x2, j.phi
    jac = np.array([[x1u, x1v], [x2u, x2v]])
    det = float(jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0])
    if abs(det) <= 1e-6:
        raise PatchNotGraph(f"chart Jacobian degenerate at ({u}, {v})")
    pq = np.linalg.solve(jac.T, np.array([phiu, phiv]))
    return jac, det, pq


def monge_ampere_residual(curve, graph_patch) -> ResidualReport:
    """|det Hess_x phi - c| on a graph patch; c = -1 indefinite, +1 convex.

    The Hessian in graph coordinates comes from exact (u,v)-jets pushed
    through the chart by the inverse function theorem.
    """
    surf = _surface(curve)
    c = -surf.curve.unit_sq
    res = []
    for u, v in np.asarray(graph_patch, float).tolist():
        j = surf.field_jets(u, v)
        jac, det, (p, q) = _chart_solve(surf, u, v, j)
        _, _, _, x1uu, x1uv, x1vv = j.x1
        _, _, _, x2uu, x2uv, x2vv = j.x2
        _, _, _, phiuu, phiuv, phivv = j.phi
        m = (
            np.array([[phiuu, phiuv], [phiuv, phivv]])
            - p * np.array([[x1uu, x1uv], [x1uv, x1vv]])
            - q * np.array([[x2uu, x2uv], [x2uv, x2vv]])
        )
        det_hess = float(np.linalg.det(m)) / det**2
        res.append(abs(det_hess - c))
    return _report("monge_ampere", res, 1e-5)


def lift_residual(curve, graph_patch, flip_q=False) -> ResidualReport:
    """Pullback residuals of theta = dz - p dx - q dy and
    omega = c dx^dy - dp^dq along the graph lift (x, y, z, p, q).

    flip_q negates q after the solve; it is the negative control that breaks
    theta while leaving the surface data intact.
    """
    surf = _surface(curve)
    c = -surf.curve.unit_sq
    res = []
    for u, v in np.asarray(graph_patch, float).tolist():
        j = surf.field_jets(u, v)
        jac, det, (p, q) = _chart_solve(surf, u, v, j)
        _, x1u, x1v, x1uu, x1uv, x1vv = j.x1
        _, x2u, x2v, x2uu, x2uv, x2vv = j.x2
        _, phiu, phiv, phiuu, phiuv, phivv = j.phi
        rhs_u = np.array(
            [phiuu - x1uu * p - x2uu * q, phiuv - x1uv * p - x2uv * q]
        )
        rhs_v = np.array(
            [phiuv - x1uv * p - x2uv * q, phivv - x1vv * p - x2vv * q]
        )
        pu, qu = np.linalg.solve(jac.T, rhs_u)
        pv, qv = np.linalg.solve(jac.T, rhs_v)
        if flip_q:
            q, qu, qv = -q, -qu, -qv
        theta_u = phiu - p * x1u - q * x2u
        theta_v = phiv - p * x1v - q * x2v
        omega = c * det - (pu * qv - pv * qu)
        grad_scale = max(abs(phiu), abs(phiv))
        res.append(_rel(abs(theta_u), grad_scale))
        res.append(_rel(abs(theta_v), grad_scale))
        res.append(_rel(abs(omega), abs(det)))
    return _report("lift", res, 1e-5)


# -- cuspidal cross cap suite -------------------------------------------------------


def ccr_residual(curve, domain: Domain | None = None):
    """|Psi'(0)| at detected frontal-not-front points, scale-relative.

    The points are samples of the analytic null lines of the singular set,
    48 per line.  Returns a pair of reports: the obstruction residuals, and a
    non-vacuity control on the frontal (u, v^2, u v^3) whose residual is the
    ratio 1e-3 / |Psi'(0)| (pass means the control test would reject it).
    """
    from . import singularities as sg

    surf = _surface(curve)
    domain = domain or Domain()
    res = []
    lines = [] if surf.density_is_zero else sg._null_line_curves(
        curve, surf, domain, 48, sg.tolerances_for(curve, domain.radius)
    )
    for sc in lines:
        step = max(1, len(sc.points) // 5)
        for q in sc.points[step::step]:
            tols = sg._point_tols(curve, q)
            if sg._fnf_kind(surf, q[0], q[1], tols) is None:
                continue
            try:
                psi0, dpsi0 = sg.ccr_psi(curve, q)
            except (sg.TraceRequired, sg.NotSingular, sg.BranchPointError):
                continue
            pj, nj = surf.lift_jets(q[0], q[1])
            scale = max(
                1.0,
                np.linalg.norm(np.column_stack([pj.du, pj.dv]))
                * np.linalg.norm(np.column_stack([nj.du, nj.dv])),
            )
            res.append(abs(dpsi0) / scale)
    main = _report("ccr", res, 1e-6)
    _, dpsi_control = sg.ccr_psi_control()
    ratio = 1e-3 / max(abs(dpsi_control), 1e-300)
    control = ResidualReport(
        name="ccr_control",
        max_abs=ratio,
        mean_abs=ratio,
        points_checked=1,
        passed=bool(ratio <= 1.0),
        tolerance=1.0,
    )
    return main, control


def random_regular_points(curve, n, rng, domain: Domain | None = None):
    """n points of the domain where the surface is comfortably regular."""
    surf = _surface(curve)
    domain = domain or Domain()
    out = []
    tries = 0
    while len(out) < n and tries < 200 * n:
        tries += 1
        u = rng.uniform(domain.u0, domain.u1)
        v = rng.uniform(domain.v0, domain.v1)
        if abs(float(surf.area_density(u, v))) > 1e-3:
            out.append((u, v))
    if len(out) < n:
        raise PatchNotGraph("could not find enough regular points")
    return out
