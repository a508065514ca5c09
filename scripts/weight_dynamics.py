#!/usr/bin/env python3
"""Weight-dynamics experiment: epochs of the weighted coin game under a
forcing adversary, reporting how runs end (agreement vs. epoch budget), the
weight-loss invariant, and the thresholds the weights are judged by.
``--out`` keeps each run's final weights, ``--record-series`` its per-epoch
weights too."""
from bftsim.cli import script_main

DEFAULTS = {"mode": "game", "n": 9, "f": 2, "eps": 0.5, "m": 8, "T": 256, "c": 4.0, "epochs": 5,
            "adversary": "counteract", "seeds": "0:50"}


def summarize(cfg, records):
    params = cfg.params()
    return {
        "runs": len(records),
        "agreement": sum(r["agreement"] for r in records),
        "invariant_violations": sum(not r["invariant_ok"] for r in records),
        "alpha_T": params.alpha_T,
        "beta_T": params.beta_T,
        "w_min": params.w_min,
    }


if __name__ == "__main__":
    raise SystemExit(script_main(__doc__, DEFAULTS, summarize))
