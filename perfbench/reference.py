"""A fixed reference program: it times the machine, not adrpipe.

run.py runs it as a subprocess before and after every timed interval, the
same way it runs adrpipe commands, and reports times scaled by it. Its work
mirrors what the workloads spend their time on: interpreter start-up, the
numpy import, string slicing and hashing into a dict, float formatting, and
scalar numpy updates. It never changes, so a change to adrpipe cannot move
its time; only the speed of the machine can.
"""

import numpy as np

counts: dict[str, int] = {}
for i in range(150_000):
    key = str(i * 7919)[-5:]
    counts[key] = counts.get(key, 0) + 1
lines = [f"m\tr\t{k}\t{v / 7:.6f}" for k, v in counts.items()]
weights = np.zeros(1 << 16)
for i in range(30_000):
    weights[(i * 40503) & 0xFFFF] += 0.5
print(len(lines), sum(len(line) for line in lines), float(weights.sum()))
