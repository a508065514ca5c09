#!/usr/bin/env python3
"""Detection-rate experiment for the simplified coin-flipping game.

Sweeps game length T and reports how often the maximal inner-product pair
contains a corrupted player, per adversary.  The default T values span the
climb from chance (a random pair holds one of the 5 corrupted players of 20
with probability 0.447) to certain detection for both adversaries."""
from bftsim.cli import script_main

DEFAULTS = {"mode": "simplified-game", "n": 20, "eps": 1.0, "seeds": "0:200"}
GRID = ["T=4,8,16,32,64,256", "adversary=simple-counteract,simple-colluding"]


def summarize(cfg, records):
    return {
        "n": cfg.n,
        "f": cfg.f,
        "runs": len(records),
        "detection_rate": sum(r["contains_bad"] for r in records) / len(records),
    }


if __name__ == "__main__":
    raise SystemExit(script_main(__doc__, DEFAULTS, summarize, GRID))
