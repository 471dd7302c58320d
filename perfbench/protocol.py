"""The benchmark's frozen protocol: instances, points, caps and budgets.

Everything a workload runs is fixed here.  The benchmark's ``--seed`` only
shuffles the order in which sweeps and points run; the instances are the
paper's protocol and do not change with it.
"""

SETS = (1, 2, 3, 4)
MODES = ("zj", "jc:p5")

# Instance seeds of the protocol.  Later claims confirm on the held-out
# seeds (``--held-out``), which no tuning looked at.
INSTANCE_SEEDS = (0, 1)
HELD_OUT_SEEDS = (2, 3)

# exact-points: fixed utilisations (percent) on these sets, plus each sweep's
# first point past its 3-LS maximum.  The frontier is frozen here, as
# (set, seed) -> (zj, jc:p5), so that a 3-LS change cannot move the exact
# workload.
EXACT_SETS = (1, 2)
EXACT_UTILS = (30, 45)
FRONTIER = {
    (1, 0): (73, 68), (1, 1): (53, 63), (2, 0): (54, 59), (2, 1): (56, 56),
    (1, 2): (44, 53), (1, 3): (80, 80), (2, 2): (54, 64), (2, 3): (78, 78),
}
# Per-point wall cap of the exact solver.  The slowest point decided under it
# takes about 0.4 s and the fastest point above it about 2.3 s (Python 3.11,
# AMD EPYC), so a run-to-run change of 2x does not move a verdict.
EXACT_CAP_S = 1.0

# A timing tail is the highest percentile with this many samples beyond it.
TAIL_BEYOND = 10
# sweep-3ls runs this many of its slowest points again while its budget
# lasts, so that the tail is a fastest-of-several time like the others.
TAIL_RETIMED = 2 * (TAIL_BEYOND + 1)

# Set-up is repeated this many times and its median reported.  A fixed
# count keeps the memory high-water mark independent of machine speed.  One
# set-up takes 8-13 ms, so the repeats span about half a second: a burst of
# load from other programs that lasts a tenth of a second moves the median
# little.
SETUP_REPEATS = 61
