"""Golden `affsphere synth` exports, and the trace's chain walk against its old form.

The sha256 digests below are of the OBJ, CSV and JSON files that
`affsphere synth --res 33,29` wrote on the default domain [-1, 1]^2 before
the mesh writers streamed rows: (z^2, z^3), (z^3, z^4), and two curves of
perfbench/refs/classify.json, one per signature.  A change that keeps the
output keeps them.  Regenerate (only for an intended change of output) with

    PYTHONPATH=src python tests/test_golden_exports.py

`_chain_segments` is compared with the walk it replaced, which tracked the
unused segments as a set of frozensets, on curves whose singular sets have
saddle cells, open chains and closed loops.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from affsphere import cli, io
from affsphere import singularities as sg
from affsphere.paracomplex import ParaPoly
from affsphere.surfaces import Domain, ParaCurve, compile_surface

ROOT = Path(__file__).resolve().parents[1]
REFS = ROOT / "perfbench" / "refs" / "classify.json"
POOL_IDS = ("d3-indefinite-02", "d3-lsc-17")
FORMATS = ("obj", "csv", "json")
DIGESTS = {
    "z2z3/obj": "6909ad766b0714c82595a8bf2d0435c4b5a0e27b2efe1d0c3dd94bec850d028f",
    "z2z3/csv": "ba56715fded1e7d2dfd03fae4ca742444a7d2b69a7cbeabcfcf05f7c6fa0f4ed",
    "z2z3/json": "9fd23a25484446c8419a9249d671f8777cfdd4f2557288379c557f237984b446",
    "z3z4/obj": "119e249a362a7e175fc54342c05176e88ff216d492dd84b666fe48f49d48efa5",
    "z3z4/csv": "57fcf040e9a0bc59b4c52be22156b24a5a3136a239d207aaa82678feda8729a5",
    "z3z4/json": "8c9f0f2de8d98968dcd2c3ce32a2d11c99cee9e7d2d8fbf76bd78feb08c552d2",
    "d3-indefinite-02/obj": "62cdec6dec65b1792f7f2a03b0ec9815686efce648e8e802c2b837d2f2f653b4",
    "d3-indefinite-02/csv": "6ae5bd8d2aef7255fdfc5540c9f76641d0145f4d09c0045ba7f8ff67db0a9203",
    "d3-indefinite-02/json": "7de455516139ff5647bbd5deb9a92d7aedc32fe9c7626ea375179b551c9ba41f",
    "d3-lsc-17/obj": "9ee265ce38a222a9f1d1cab398b032f0b961b44b8520e6495099685649a82272",
    "d3-lsc-17/csv": "04366a2a05c5e353fffb45f5a6d1ffdf3e2bdf596800212409544ae8ef87e1cf",
    "d3-lsc-17/json": "bbad60264e8f80250f5d1b5c7c5df694963c61296989bbdad5915246b020f198",
}
QUAD_CUBIC = ParaCurve(ParaPoly([0, 0, 1]), ParaPoly([0, 0, 0, 1]))
CUBIC_QUARTIC = ParaCurve(ParaPoly([0, 0, 0, 1]), ParaPoly([0, 0, 0, 0, 1]))


def _pool_curve(pool_id):
    pool = json.loads(REFS.read_text())["pool"]
    return io.curve_from_json(next(e for e in pool if e["id"] == pool_id)["curve"])


def _curves():
    return {"z2z3": QUAD_CUBIC, "z3z4": CUBIC_QUARTIC, **{p: _pool_curve(p) for p in POOL_IDS}}


def _digests(tmp_path):
    out = {}
    for name, curve in _curves().items():
        curve_path = tmp_path / f"{name}.json"
        io.save_curve(curve, str(curve_path))
        for fmt in FORMATS:
            path = tmp_path / f"{name}.{fmt}"
            assert cli.main(["synth", "--curve", str(curve_path), "--res", "33,29", "--out", str(path)]) == 0
            out[f"{name}/{fmt}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def test_synth_exports_match_golden_digests(tmp_path):
    assert _digests(tmp_path) == DIGESTS


def chain_segments_frozenset(segments):
    """The chain walk before it kept a set of seen edge ids: unused segments as frozensets."""
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
    for a, b in segments:
        if frozenset((a, b)) in unused:
            chain = walk(a, b)
            chains.append((chain, chain[0] == chain[-1]))
    return chains


def test_chain_walk_matches_frozenset_walk():
    wide = Domain(-3.0, 3.0, -3.0, 3.0)
    cases = [
        # saddle cells where the zero set of (z^2, z^3) or d4-indefinite-34 nearly crosses itself
        (QUAD_CUBIC, wide), (_pool_curve("d4-indefinite-34"), wide),
        (CUBIC_QUARTIC, Domain(-1.2, 1.2, -1.2, 1.2)),
        # open chains beside a closed loop, and two closed loops
        (_pool_curve("d3-indefinite-11"), Domain()), (_pool_curve("d3-lsc-19"), Domain()),
        (_pool_curve("d4-lsc-41"), Domain()),
    ]
    saddles = closed = opened = 0
    for res in (32, 64, 128, 256):
        for curve, domain in cases:
            surf = compile_surface(curve)
            u_axis, v_axis = domain.axes(res, res)
            lam = surf.density_grid(u_axis, v_axis)
            segments, _ = sg._marching_squares(surf, u_axis, v_axis, lam)
            got = sg._chain_segments(segments)
            assert got == chain_segments_frozenset(segments)
            # every segment lies on exactly one chain
            steps = sorted(sorted(step) for chain, _ in got for step in zip(chain, chain[1:]))
            assert steps == sorted(sorted(segment) for segment in segments)
            closed += sum(c for _, c in got)
            opened += sum(not c for _, c in got)
            sgn = lam >= 0.0
            s00, s10, s01, s11 = sgn[:-1, :-1], sgn[1:, :-1], sgn[:-1, 1:], sgn[1:, 1:]
            saddles += int(np.sum((s00 != s10) & (s10 != s11) & (s11 != s01) & (s01 != s00)))
    assert saddles > 0 and closed > 0 and opened > 0


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for key, digest in _digests(Path(tmp)).items():
            print(f'    "{key}": "{digest}",')
