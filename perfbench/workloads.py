"""The three workloads: seeded job streams, how each job runs, and its output check.

Job kinds rotate in a fixed order and only the coefficients (for classify,
the draw from the reference pool) depend on the seed, so every run has the
same mix of job sizes.  Job sizes differ by kind, so the runner takes its
timing statistics over whole cycles of kinds only.  The runner empties the
compile cache before each job, so every job pays the cold compile that a CLI
user pays on each invocation.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as _stdio
import json
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from affsphere import cli, io, surfaces
from affsphere.paracomplex import ComplexPoly, ParaPoly
from affsphere.surfaces import Domain, HoloCurve, ParaCurve

HERE = Path(__file__).resolve().parent
REFS = HERE / "refs"

DOMAIN = Domain(-1.0, 1.0, -1.0, 1.0)
GRID_RES = 256
CLASSIFY_RES = 64
SIGNATURES = ("indefinite", "lsc")
CORRUPTIONS = cli.CORRUPTIONS
# Classify jobs after the two fixed curves come from the reference pool split
# into eight strata by _work, visited in this interleaved order, so that every
# run has the same mix of job sizes.
CLASSIFY_STRATA = (0, 7, 3, 4, 1, 6, 2, 5)
# field-eval: degree x signature x exactness, interleaved so that any prefix
# of the cycle mixes small and large jobs.
FIELD_CYCLE = (
    (8, "indefinite", True), (16, "lsc", False), (12, "indefinite", False),
    (12, "lsc", True), (16, "indefinite", True), (8, "lsc", False),
    (8, "lsc", True), (16, "indefinite", False), (12, "lsc", False),
    (12, "indefinite", True), (16, "lsc", True), (8, "indefinite", False),
)
SWALLOWTAIL_Z2Z3 = (-2.0 / 3.0, 0.0)
FIELD_NAMES = ("x1", "x2", "phi", "n1", "n2", "density")
FIELD_RTOL = 1e-8


# -- curves -----------------------------------------------------------------


def _rational(rng, bound=3, denom=6):
    return Fraction(int(rng.integers(-bound * denom, bound * denom + 1)), denom)


def _uniform(rng, bound=3.0):
    return float(rng.uniform(-bound, bound))


def random_curve(rng, degree, signature, exact=True):
    """(F, G) of the given degree with a nonzero leading coefficient."""
    draw = _rational if exact else _uniform
    poly_cls = ParaPoly if signature == "indefinite" else ComplexPoly
    curve_cls = ParaCurve if signature == "indefinite" else HoloCurve

    def poly():
        coeffs = [(draw(rng), draw(rng)) for _ in range(degree)]
        lead = (0, 0)
        while lead == (0, 0):
            lead = (draw(rng), draw(rng))
        return poly_cls(coeffs + [lead])

    return curve_cls(poly(), poly())


# -- jobs ----------------------------------------------------------------------


@dataclass
class Job:
    index: int
    curve: object
    params: dict
    ref: dict = field(default_factory=dict)
    # what the checks read from the outputs, for the traced run's counters
    facts: dict = field(default_factory=dict)

    def digest(self) -> str:
        blob = json.dumps(
            {"curve": io.curve_to_json(self.curve), "params": self.params},
            sort_keys=True,
        )
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _quiet_cli(argv):
    """cli.main with its stderr chatter kept in memory."""
    with contextlib.redirect_stderr(_stdio.StringIO()):
        return cli.main(argv)


class Workload:
    """One job stream.  `prepare` returns the zero-argument call that is timed."""

    name = ""
    # jobs before the first cycle, and jobs per cycle of job kinds
    lead = 0
    cycle = 1

    def jobs(self, seed):
        raise NotImplementedError

    def prepare(self, job, workdir):
        raise NotImplementedError

    def check(self, job, outcome, workdir) -> list:
        raise NotImplementedError


class FieldEval(Workload):
    """Library compile plus grid evaluation: the whole job is in surfaces; no file output."""

    name = "field-eval"
    cycle = len(FIELD_CYCLE)

    def jobs(self, seed):
        rng = np.random.default_rng([seed, 2])
        i = 0
        while True:
            degree, sig, exact = FIELD_CYCLE[i % len(FIELD_CYCLE)]
            curve = random_curve(rng, degree, sig, exact=exact)
            yield Job(i, curve, {"cmd": "field-eval", "res": GRID_RES, "exact": exact})
            i += 1

    def prepare(self, job, workdir):
        def run():
            surfaces.compile_surface(job.curve)
            return surfaces.sample_grid(job.curve, DOMAIN, (GRID_RES, GRID_RES))

        return run

    def check(self, job, outcome, workdir):
        fields = {name: getattr(outcome, name) for name in FIELD_NAMES}
        return check_fields(job.curve, outcome.u_axis, outcome.v_axis, fields)


class Classify(Workload):
    """`affsphere classify`: per-point classification and its scalar jets dominate."""

    name = "classify"
    cycle = len(CLASSIFY_STRATA)

    def __init__(self):
        self.refs = json.loads((REFS / "classify.json").read_text())
        self.lead = len(self.refs["fixed"])

    def jobs(self, seed):
        rng = np.random.default_rng([seed, 3])
        i = 0
        for entry in self.refs["fixed"]:
            yield self._job(i, entry)
            i += 1
        by_work = sorted(self.refs["pool"], key=lambda e: (_work(e), e["id"]))
        size = len(by_work) // len(CLASSIFY_STRATA)
        strata = [by_work[k * size:(k + 1) * size] for k in range(len(CLASSIFY_STRATA))]
        orders = [iter(()) for _ in strata]
        k = 0
        while True:
            s = CLASSIFY_STRATA[k % len(CLASSIFY_STRATA)]
            entry = next(orders[s], None)
            if entry is None:
                orders[s] = iter([strata[s][j] for j in rng.permutation(len(strata[s]))])
                entry = next(orders[s])
            yield self._job(i, entry)
            i += 1
            k += 1

    def _job(self, i, entry):
        curve = io.curve_from_json(entry["curve"])
        params = {"cmd": "classify", "res": CLASSIFY_RES, "probe": entry["probe"]}
        return Job(i, curve, params, ref=entry)

    def prepare(self, job, workdir):
        curve_path = workdir / f"curve{job.index}.json"
        io.save_curve(job.curve, curve_path)
        out = workdir / f"report{job.index}.json"
        probe = ",".join(repr(float(c)) for c in job.params["probe"])
        argv = ["classify", "--curve", str(curve_path), "--res", str(CLASSIFY_RES),
                "--probe", probe, "--out", str(out)]
        return lambda: _quiet_cli(argv)

    def check(self, job, outcome, workdir):
        if outcome != 0:
            return [f"exit code {outcome}, expected 0"]
        report = json.loads((workdir / f"report{job.index}.json").read_text())
        job.facts["trace_nodes"] = sum(len(c) for c in report["singular_curves"])
        job.facts["points"] = [(p["u"], p["v"]) for p in report["points"]]
        problems = []
        tags = dict(Counter(p["class"] for p in report["points"]))
        if tags != job.ref["tags"]:
            problems.append(f"tags {tags} != reference {job.ref['tags']}")
        if job.ref.get("name") == "z2z3":
            near = [
                p for p in report["points"]
                if p["class"] == "Swallowtail"
                and np.hypot(p["u"] - SWALLOWTAIL_Z2Z3[0], p["v"] - SWALLOWTAIL_Z2Z3[1]) <= 1e-4
            ]
            if len(near) != 1:
                problems.append(f"{len(near)} swallowtails near (-2/3, 0), expected 1")
        return problems


def _work(entry):
    """Classified points times degree: job time grows with both."""
    return sum(entry["tags"].values()) * entry["degree"]


class Verify(Workload):
    """`affsphere verify`: the residual suites do most of the work."""

    name = "verify"
    # degree x signature, with every fourth job corrupted; the corruption
    # mode moves on from one cycle to the next
    cycle = 12

    def __init__(self):
        self.refs = json.loads((REFS / "verify.json").read_text())

    def jobs(self, seed):
        rng = np.random.default_rng([seed, 4])
        i = 0
        while True:
            degree = 3 + i % 3
            sig = SIGNATURES[(i // 3) % 2]
            corrupt = CORRUPTIONS[(i // 4) % len(CORRUPTIONS)] if i % 4 == 3 else None
            curve = random_curve(rng, degree, sig)
            yield Job(i, curve, {"cmd": "verify", "corrupt": corrupt},
                      ref=self.refs[corrupt or "none"])
            i += 1

    def prepare(self, job, workdir):
        curve_path = workdir / f"curve{job.index}.json"
        io.save_curve(job.curve, curve_path)
        out = workdir / f"verify{job.index}.json"
        argv = ["verify", "--curve", str(curve_path), "--out", str(out)]
        if job.params["corrupt"]:
            argv += ["--corrupt", job.params["corrupt"]]
        return lambda: _quiet_cli(argv)

    def check(self, job, outcome, workdir):
        problems = []
        if outcome != job.ref["exit"]:
            problems.append(f"exit code {outcome}, expected {job.ref['exit']}")
        suites = json.loads((workdir / f"verify{job.index}.json").read_text())
        flags = {s["name"]: s["pass"] for s in suites}
        job.facts["points_checked"] = sum(s["points_checked"] for s in suites)
        if flags != job.ref["pass"]:
            problems.append(f"suite flags {flags} != reference {job.ref['pass']}")
        return problems


WORKLOADS = {w.name: w for w in (FieldEval, Classify, Verify)}


# -- output checks ---------------------------------------------------------------

# Fixed vertex subsample (index pairs into a GRID_RES x GRID_RES grid): the four
# corners, which carry the largest field values, plus interior nodes.
_last = GRID_RES - 1
SUBSAMPLE = [(0, 0), (0, _last), (_last, 0), (_last, _last), (128, 128)] + [
    tuple(int(x) for x in ij)
    for ij in np.random.default_rng(0).integers(0, GRID_RES, size=(11, 2))
]


def _float_poly(poly):
    return type(poly)([(float(c.re), float(c.im)) for c in poly.coeffs])


class FieldOracle:
    """Fields at one point straight from F and G, without the bivariate ring.

    Positions, conormals and density follow surfaces.py; the potential is
    phi(p) = -Int_0^p <n, dx> along the segment from the origin, by
    Gauss-Legendre quadrature that is exact for the polynomial integrand.
    """

    def __init__(self, curve):
        self.indefinite = curve.signature == "indefinite"
        self.F, self.G = _float_poly(curve.F), _float_poly(curve.G)
        self.dF, self.dG = self.F.derivative(), self.G.derivative()
        self.scalar = self.F.SCALAR
        nodes = max(self.F.degree, self.G.degree, 1) + 1
        self.nodes, self.weights = np.polynomial.legendre.leggauss(nodes)

    def _x_n(self, f, g):
        if self.indefinite:
            return f - g.conjugate(), f.conjugate() + g
        return f.conjugate() + g, f.conjugate() - g

    def fields(self, u, v):
        z = self.scalar(u, v)
        x, n = self._x_n(self.F(z), self.G(z))
        lam = self.dF(z).modulus() - self.dG(z).modulus()
        return {
            "x1": x.re, "x2": x.im, "n1": n.re, "n2": n.im,
            "phi": self._phi(u, v),
            "density": lam if self.indefinite else -lam,
        }

    def _phi(self, u, v):
        dz = self.scalar(u, v)
        total = 0.0
        for s, w in zip(self.nodes, self.weights):
            t = 0.5 * (float(s) + 1.0)
            z = self.scalar(t * u, t * v)
            f, g = self.F(z), self.G(z)
            fp, gp = self.dF(z) * dz, self.dG(z) * dz
            if self.indefinite:
                dx = fp - gp.conjugate()
            else:
                dx = fp.conjugate() + gp
            n = self._x_n(f, g)[1]
            total += float(w) * (n.re * dx.re + n.im * dx.im)
        return -0.5 * total


def check_fields(curve, u_axis, v_axis, fields):
    """Compare the fields present in `fields` with FieldOracle at SUBSAMPLE."""
    problems = []
    expect_axes = DOMAIN.axes(GRID_RES, GRID_RES)
    if not (np.allclose(u_axis, expect_axes[0]) and np.allclose(v_axis, expect_axes[1])):
        problems.append("grid axes differ from the requested domain")
    oracle = FieldOracle(curve)
    want = [oracle.fields(float(u_axis[i]), float(v_axis[j])) for i, j in SUBSAMPLE]
    for name, arr in fields.items():
        if np.shape(arr) != (GRID_RES, GRID_RES):
            problems.append(f"{name} has shape {np.shape(arr)}")
            continue
        ref = np.array([w[name] for w in want])
        got = np.array([arr[i][j] for i, j in SUBSAMPLE], dtype=float)
        scale = max(1.0, float(np.max(np.abs(ref))))
        err = float(np.max(np.abs(got - ref))) if np.all(np.isfinite(got)) else float("inf")
        if err > FIELD_RTOL * scale:
            problems.append(f"{name} off by {err:.3g} (scale {scale:.3g})")
    return problems
