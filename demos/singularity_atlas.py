"""Trace the singular set of a surface and classify what lives on it.

The indefinite pair F = z^2, G = z^3 carries the full singularity zoo:
two null lines of frontal-not-front points through the origin, a traced
hyperbola of cuspidal edges, and one swallowtail.
"""

import numpy as np

from affsphere.paracomplex import ParaPoly
from affsphere.singularities import (
    classification_report,
    classify_point,
    locate_swallowtails,
    null_vector,
    trace_singular_curves,
)
from affsphere.surfaces import Domain, ParaCurve

curve = ParaCurve(ParaPoly([0, 0, 1]), ParaPoly([0, 0, 0, 1]))
box = Domain(-1.2, 1.2, -1.2, 1.2)

traced = trace_singular_curves(curve, box, grid_res=64)
print(f"{len(traced)} singular curves:")
for sc in traced:
    label = f"  {sc.kind:<10} {len(sc.points):>3} nodes"
    if sc.kind == "null-line":
        label += f"  ({sc.line[0]} line at {float(sc.line[1]):+.3f})"
    else:
        u, v = sc.points[0]
        label += f"  (starts near ({u:+.3f}, {v:+.3f}))"
    print(label)

# classify a spread of points from the jets at each; with the traced curves
# given, a front point far from every traced node raises TraceRequired
probes = [
    (0.5, 0.1),                      # regular
    (0.0, 0.0),                      # both curve derivatives vanish
    (0.75, 0.75),                    # on a null line
    (2 / 3 * np.cosh(0.5), 2 / 3 * np.sinh(0.5)),  # on the hyperbola
    (-2 / 3, 0.0),                   # the swallowtail on the hyperbola
]
print("\nclassification:")
for p in probes:
    cls = classify_point(curve, p, traced=traced)
    extra = " degenerate" if cls.degenerate else ""
    print(f"  ({p[0]:+.4f}, {p[1]:+.4f}) -> {cls.tag}{extra}")

# the kernel field of the chart differential along the hyperbola
eta = null_vector(curve, (2 / 3 * np.cosh(0.5), 2 / 3 * np.sinh(0.5)))
print("\nnull direction on the hyperbola:", np.round(eta, 6))

swallows = locate_swallowtails(curve, traced)
for q, cls in swallows:
    print(f"swallowtail located at ({q[0]:+.9f}, {q[1]:+.9f})")

# the full report is JSON-ready: counts by class
report = classification_report(curve, box, grid_res=64, probes=[(0.3, 0.0)])
tags = {}
for point in report["points"]:
    tags[point["class"]] = tags.get(point["class"], 0) + 1
print("\nreport point counts by class:")
for tag in sorted(tags):
    print(f"  {tag:<18} {tags[tag]}")
