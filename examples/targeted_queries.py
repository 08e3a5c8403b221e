#!/usr/bin/env python3
"""Targeted EFM queries.

§IV.C of the paper notes that enumerating the modes through a specific
reaction — or deciding whether a mode through several reactions exists —
is NP-hard.  Proposition 1 nevertheless turns both into *single*
divide-and-conquer subproblems, so the questions metabolic engineers
actually ask ("which modes make ethanol?", "can succinate and ethanol be
co-produced?") run without full enumeration.

Run:  python examples/targeted_queries.py
"""

from repro import compute_efms
from repro.efm.targeted import efms_avoiding, efms_through, exists_mode_through
from repro.models.variants import yeast_1_small


def main() -> None:
    net = yeast_1_small()
    full = compute_efms(net, method="parallel", n_ranks=1)
    assert full.stats is not None
    print(f"{net.name}: {full.n_efms} EFMs, "
          f"{full.stats.total_candidates:,} candidates for full enumeration")

    # Which modes export ethanol?  One subproblem instead of everything.
    ethanol = efms_through(net, "R66")
    print(
        f"\nmodes through R66 (ethanol export): {ethanol.n_efms} "
        f"({ethanol.meta['candidates']:,} candidates — "
        f"{ethanol.meta['candidates'] / full.stats.total_candidates:.0%} of full)"
    )

    # Which modes survive without alcohol dehydrogenase?
    no_adh = efms_avoiding(net, "R40")
    print(f"modes avoiding R40 (ADH knockout): {no_adh.n_efms}")

    # Decision queries (§IV.C's NP-hard problems, answered directly).
    for combo in (("R66", "R67"), ("R66", "R63"), ("R66", "R67", "R63")):
        ok = exists_mode_through(net, combo)
        print(f"co-production mode through {combo}: {'EXISTS' if ok else 'impossible'}")


if __name__ == "__main__":
    main()
