#!/usr/bin/env python3
"""End-to-end walkthrough on the surface y² = x³ + z⁶ + 2z³w³ + 3w⁶.

Runs the full pipeline from the seed [-1:1:-1:1]: smoothness, singularity
classification of the cubic model, the singular fibers, tangent-plane
construction, the tangent point on the fiber, hypothesis checks, and bounded
point generation.  Exits with a message naming the first report that is
not the known one.
"""

import json

from dp1.cubic import classify_singularities, tangent_plane, tangent_point
from dp1.engine import GenerationConfig, check_hypotheses, generate
from dp1.rational import format_pair
from dp1.surface import Surface, SurfaceParams, WPoint, singular_fiber_report, smoothness_check


def main() -> None:
    S = Surface(SurfaceParams(0, 0, 1, 2, 3, 0, 0, 0, 1))
    P = WPoint.parse("[-1:1:-1:1]")

    print("surface:", json.dumps(S.params.to_json()))
    print("seed:   ", P)

    print("smooth: ", smoothness_check(S))

    rep = classify_singularities(S)
    print("cubic model singularities:", json.dumps(rep))
    if (rep["type"], rep["locus"], rep["identity_verified"]) != ("2xA2", "[0:±1:1:0]", True):
        raise SystemExit(f"classify mismatch: got {rep}, expected 2xA2 at [0:±1:1:0], verified")

    fibers = singular_fiber_report(S)
    print("singular fibers:", json.dumps(fibers))
    # Δ = −432(t⁶ + 2t³ + 3)²
    shape = [(f["degree"], f["multiplicity"]) for f in fibers["factors"]]
    if (fibers["z12_coefficient"], shape, fibers["total_multiplicity"]) != ("-432", [(6, 2)], 12):
        raise SystemExit(f"fibers mismatch: got {fibers}, expected z12 -432, one factor "
                         "of degree 6 and multiplicity 2, total 12")

    E, Q0 = S.fiber_point(P)
    plane = tangent_plane(S, (Q0.x, Q0.y, S.f.value_ints(*E.t), (1, 1)))
    print("tangent plane:", tuple(str(c) for c in plane))

    t, Q = tangent_point(S, E, Q0)
    print(f"tangent point: {Q} on fiber t = {format_pair(t)}")
    if (t, Q.x, Q.y) != ((-1, 1), (17, 4), (71, 8)):
        raise SystemExit(f"tangent point mismatch: got {Q} on fiber t = {format_pair(t)}, "
                         f"expected (17/4, 71/8) on fiber t = -1")

    hyp = check_hypotheses(S, P)
    print("hypotheses:", json.dumps(hyp.to_json()))

    report = generate(S, P, GenerationConfig(t_height_bound=10, multiple_bound=10))
    print(f"generated {len(report.points)} verified points "
          f"on {len(report.fibers)} fibers:")
    for rec in report.points:
        print(f"  t={format_pair(rec.t)}  {rec.point}  [{rec.provenance}]")


if __name__ == "__main__":
    main()
