#!/usr/bin/env python3
"""LAMM's geometry, step by step: cover angles, MCS, UPDATE.

Walks through Section 5 of the paper on a concrete neighborhood:

1. computes cover angles (Definition 2) of one receiver for the others;
2. finds the minimum cover set S' = MCS(S) (Theorem 2's role);
3. simulates a batch round in which only part of S' ACKs and shows which
   receivers UPDATE(S, S_ACK) still keeps (Theorem 3);
4. renders an ASCII map of who is polled, who is inferred.

Run:  python examples/cover_geometry_demo.py
"""

import numpy as np

from repro.geometry.cover import cover_angle, is_disk_covered, update_uncovered
from repro.geometry.mcs import greedy_cover_set, minimum_cover_set

R = 0.2


def main() -> None:
    rng = np.random.default_rng(12)
    # A sender's neighborhood: 10 receivers in a 0.16-wide blob.
    pts = 0.5 + 0.16 * (rng.random((10, 2)) - 0.5)
    ids = list(range(10))

    print("receiver positions:")
    for i, (x, y) in enumerate(pts):
        print(f"  {i}: ({x:.3f}, {y:.3f})")

    # 1. Cover angles of receiver 0 for the others (Definition 2).
    print("\ncover angles of node 0 (degrees ccw from east):")
    for j in ids[1:]:
        arc = cover_angle(pts[0], pts[j], R)
        if arc is None:
            print(f"  for {j}: empty (more than R apart)")
        else:
            print(f"  for {j}: [{arc.start:6.1f}, {arc.end:6.1f}]  (width {arc.extent:5.1f})")
    # Theorem 4: if those angles cover the full circle, A(0) is covered.
    covered = is_disk_covered(pts[0], [pts[j] for j in ids[1:]], R)
    print(f"  -> A(0) {'IS' if covered else 'is NOT'} covered by the rest (Theorem 4)")

    # 2. Minimum cover set (Theorem 2).
    mcs = sorted(minimum_cover_set(ids, pts, R))
    greedy = sorted(greedy_cover_set(ids, pts, R))
    print(f"\nminimum cover set S' = {mcs}  (|S'| = {len(mcs)} of {len(ids)})")
    print(f"greedy cover set      = {greedy}")

    # 3. Suppose only part of S' ACKed: what does UPDATE keep?
    s_ack = set(mcs[: max(1, len(mcs) - 1)])
    remaining = update_uncovered(set(ids), s_ack, pts, R)
    inferred = set(ids) - s_ack - remaining
    print(f"\nsuppose S_ACK = {sorted(s_ack)} (one ACK lost)")
    print(f"UPDATE keeps   {sorted(remaining)} for the next batch round")
    print(f"inferred served (Theorem 3): {sorted(inferred)}")

    # 4. ASCII map.
    print("\nmap (A = ACKed, i = inferred, r = retry next round):")
    grid = [[" "] * 40 for _ in range(20)]
    for i, (x, y) in enumerate(pts):
        col = int((x - 0.4) / 0.2 * 39)
        row = int((y - 0.4) / 0.2 * 19)
        tag = "A" if i in s_ack else ("i" if i in inferred else "r")
        grid[19 - max(0, min(19, row))][max(0, min(39, col))] = tag
    print("  +" + "-" * 40 + "+")
    for line in grid:
        print("  |" + "".join(line) + "|")
    print("  +" + "-" * 40 + "+")


if __name__ == "__main__":
    main()
