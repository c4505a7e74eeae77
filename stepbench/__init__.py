"""Step-level benchmark of the Yin-Yang dynamo.

``python3 stepbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload (see :mod:`stepbench.workloads`), checks its outputs
bitwise, and prints one JSON result line.  ``--trace 1`` adds a traced
pass that breaks the step into per-layer self times
(:mod:`stepbench.spans`).  ``--self-test`` checks that the correctness
gate reports an injected one-ULP perturbation.
"""
