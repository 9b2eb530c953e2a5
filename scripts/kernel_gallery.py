#!/usr/bin/env python3
"""Tabulate the Green's function of every boundary condition at one lambda.

One CSV per condition plus a summary of sign classifications; resonant
conditions are reported and skipped.
"""

import argparse
from pathlib import Path

from hillgreen import (BC_ALL, ResonanceError, build_green, classify_sign,
                       load_builtin)
from hillgreen.potential import Potential


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--potential", default="ex1")
    ap.add_argument("--lam", type=float, default=1.0)
    ap.add_argument("--n", type=int, default=100)
    ap.add_argument("--outdir", type=Path, default=Path("kernels"))
    args = ap.parse_args()

    path = Path(args.potential)
    p = Potential.from_file(path) if path.exists() else load_builtin(args.potential)
    args.outdir.mkdir(parents=True, exist_ok=True)

    for bc in BC_ALL:
        try:
            G = build_green(p, args.lam, bc, n=args.n)
        except ResonanceError as exc:
            print(f"{bc:3s} resonant: {exc}")
            continue
        out = args.outdir / f"kernel_{bc}_{args.lam:g}.csv"
        G.to_csv(out)
        rep = classify_sign(G)
        print(f"{bc:3s} {rep.classification:24s} min={rep.min_value:+.6f} "
              f"max={rep.max_value:+.6f} sym={G.symmetry_error():.2e} -> {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
