#!/usr/bin/env python
"""A tour of the impossibility landscape: Figure 1(a) made executable.

Three things happen here:

1. the mechanical replays of the two impossibility proofs run — Theorem 1
   (no SNOW with two readers and a writer, even with client-to-client
   communication) and Theorem 2 (no SNOW with two clients without it) — each
   ending with a transaction history that the semantic strict-serializability
   checker rejects;
2. the same boundary is demonstrated on *running code*, by searching every
   schedule of one WRITE per writer and one READ per reader: the natural
   one-round/one-version/non-blocking candidate protocol is broken by some
   schedule in every impossible setting, while algorithm A passes every SNOW
   check in every schedule of the possible ones searched (the search of the
   two-writer cell is cut at a budget here; uncut, it takes seconds);
3. the resulting Figure 1(a) matrix is printed.

Run with::

    python examples/impossibility_tour.py
"""

from __future__ import annotations

from repro.core.feasibility import feasibility_matrix, format_feasibility_matrix
from repro.proofs import c2c_breaks_the_chain, replay_theorem1, replay_theorem2


def main() -> None:
    print("=" * 78)
    print("1. Mechanical replay of Theorem 1 (three clients, C2C allowed)")
    print("=" * 78)
    replay1 = replay_theorem1()
    print(replay1.describe())
    print()

    print("=" * 78)
    print("2. Mechanical replay of Theorem 2 (two clients, no C2C)")
    print("=" * 78)
    replay2 = replay_theorem2()
    print(replay2.describe())
    print()

    blocked, reason = c2c_breaks_the_chain()
    print("Why client-to-client communication changes the answer:")
    print(f"  with algorithm A's info-reader message in place, the chain's first commuting step fails: {reason}")
    print()

    print("=" * 78)
    print("3. The boundary on running protocols (Figure 1a)")
    print("=" * 78)
    verdicts = feasibility_matrix(max_runs=500)
    for verdict in verdicts:
        print("  *", verdict.describe())
    print()
    print(format_feasibility_matrix(verdicts))


if __name__ == "__main__":
    main()
