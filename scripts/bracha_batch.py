#!/usr/bin/env python3
"""Batch Bracha-agreement runs across adversaries: safety/validity counters,
decision latency, and event/chain-depth statistics."""
from bftsim.cli import script_main

DEFAULTS = {"mode": "bracha", "n": 9, "f": 2, "m": 4, "T": 16, "coin": "local", "inputs": "mixed",
            "seeds": "0:50"}
GRID = ["adversary=honest-random,crash-stop,starve-subset"]


def summarize(cfg, records):
    decided = [r for r in records if r["decided"]]
    return {
        "runs": len(records),
        "decided": len(decided),
        "violations": sum(bool(r["violations"]) for r in records),
        "mean_events": round(sum(r["events"] for r in records) / len(records), 1),
        "max_chain_depth": max(r["chain_depth"] for r in records),
        "max_decide_iteration": max((r["decide_iter_max"] for r in decided), default=-1),
    }


if __name__ == "__main__":
    raise SystemExit(script_main(__doc__, DEFAULTS, summarize, GRID))
