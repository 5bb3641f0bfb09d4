"""Fixed reference task that measures how fast the host runs right now.

It does the kinds of work a CLI stage does: it starts an interpreter,
imports numpy and scipy, parses and formats text, and runs array
arithmetic. It imports nothing from markovseq, so a change to the program
cannot change its time. perfbench/run.py spawns it between pipeline
repetitions and divides stage times by its speed.
"""

import csv
import io

import numpy as np
import scipy.special

rng = np.random.default_rng(0)
x = rng.random((1000, 50, 6))
text = "\n".join(",".join(format(v, ".17g") for v in row) for row in x[:100].reshape(-1, 6))
rows = list(csv.reader(io.StringIO(text)))
parsed = np.array(rows, dtype=float)
total = 0.0
for _ in range(2):
    y = scipy.special.logsumexp(np.log(x) + parsed.mean(), axis=2)
    total += float((x @ x[0].T).sum() + y.sum())
print(len(rows), round(total, 6))
