#!/usr/bin/env python3
"""Discriminant sweep and stability intervals for one potential.

Produces a plot-ready CSV of (lambda, Delta) over the doubled interval and
prints the band/gap structure; a double eigenvalue splits a stable band.
"""

import argparse
from pathlib import Path

from hillgreen import load_builtin, stability_intervals
from hillgreen.potential import Potential
from hillgreen.spectrum import discriminant_samples


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--potential", default="ex4",
                    help="builtin name or JSON descriptor path")
    ap.add_argument("--lo", type=float, default=-1.0)
    ap.add_argument("--hi", type=float, default=10.0)
    ap.add_argument("--points", type=int, default=800)
    ap.add_argument("--output", type=Path, default=Path("discriminant.csv"))
    args = ap.parse_args()

    path = Path(args.potential)
    p = Potential.from_file(path) if path.exists() else load_builtin(args.potential)

    lams, deltas = discriminant_samples(p, args.lo, args.hi, count=args.points)
    lines = ["lambda,delta"]
    lines += [f"{float(l)!r},{float(d)!r}" for l, d in zip(lams, deltas)]
    args.output.write_text("\n".join(lines) + "\n")
    print(f"wrote {args.output} ({len(lams)} samples on [{args.lo}, {args.hi}])")

    for (a, b), kind in stability_intervals(p, search_range=(args.lo, args.hi)):
        print(f"  [{a:12.6f}, {b:12.6f}]  {kind}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
