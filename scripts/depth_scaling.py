#!/usr/bin/env python3
"""How deep can a noisy circuit be before its output is featureless?

Tabulates the certified collapse depth against the readout size n for a few
noise rates and checks the logarithmic growth 2 ln(n) / ln(1/theta) that the
recursion predicts above the threshold.

    python scripts/depth_scaling.py --k 2 --etas 0.6,0.75,0.9
"""

import argparse
import math

from decolab.analysis import BELOW_THRESHOLD, min_worthless_depth, theta_and_threshold


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--k", type=int, default=2)
    parser.add_argument("--etas", default="0.6,0.75,0.9")
    parser.add_argument("--eps", type=float, default=0.01)
    parser.add_argument(
        "--sizes", default="1,2,4,8,16,32,64", help="comma-separated readout sizes"
    )
    args = parser.parse_args()

    etas = [float(x) for x in args.etas.split(",")]
    sizes = [int(x) for x in args.sizes.split(",")]
    print(f"k={args.k} eps={args.eps} threshold={1 - 1 / args.k:g}\n")
    header = f"{'eta':>6} {'theta':>7} " + " ".join(f"n={n:<5}" for n in sizes)
    print(header)
    for eta in etas:
        info = theta_and_threshold(args.k, eta)
        depths = [min_worthless_depth(args.k, eta, n, args.eps) for n in sizes]
        depths = ["n/a" if d == BELOW_THRESHOLD else d for d in depths]
        cells = " ".join(f"{str(d):<7}" for d in depths)
        print(f"{eta:>6} {info.theta:>7.3f} {cells}")
        if info.above and isinstance(depths[0], int):
            slope = 2 / math.log(1 / info.theta)
            predicted = [depths[0] + slope * math.log(n) for n in sizes]
            cells = " ".join(f"{p:<7.1f}" for p in predicted)
            print(f"{'fit':>6} {'':>7} {cells}")
    print("\n('n/a' marks rates at or below the threshold, where the recursion")
    print("does not certify collapse at any depth.)")


if __name__ == "__main__":
    main()
