"""The three benchmark workloads: generated configs and how to judge an op.

Each workload is an experiment config written as the same ``key = value``
text a user hands to the CLI.  The benchmark generates it from the workload
seed and the program receives only that text.  One op is one
``run_experiment`` call; ops differ only in the master seed, which is the
workload seed plus the op index.

``fixed_ops`` is the number of leading ops over which the quality figures and
the result digest are taken, so they depend on the seed alone and not on how
many ops fit in the timed window.  A traced run runs exactly these ops, so its
counters repeat exactly.  It is sized so that these ops take well under half
of the benchmark's run time on a 2-core machine.
"""

from __future__ import annotations

from dataclasses import dataclass

_SEARCH_SL3 = """\
# Headline search: icosahedral S1 axes < SO3 < SL3 at large n and m.
[experiment]
kind = search
seed = {seed}
format = csv

[data]
source = scenario
n = {n}

[scenario]
id = 1
noise_sigma = 0.01

[test]
alpha = 0.05
m = n
thresholds = auto
grid_size = 20
lipschitz = 1.0

[lattice]
builder = sl3-extended

[search]
algorithm = breadth
test = exceedance
tie_rule = uniform-random
batch = false
"""

_ESTIMATOR_COMPARE = """\
# configs/estimator_compare.ini with one replicate of one sample size.
[experiment]
kind = estimator-compare
seed = {seed}
replicates = 1
sample_sizes = {n}
test_size = {test_size}
format = csv

[scenario]
id = 1
noise_sigma = 0.01

[test]
alpha = 0.05
m = n
thresholds = auto
grid_size = 20
lipschitz = 1.0

[lattice]
builder = sl3-extended

[search]
algorithm = breadth
test = exceedance
tie_rule = uniform-random
"""

_RECOVERY_PERM = """\
# configs/group_recovery.ini, permutation test only, one replicate.
[experiment]
kind = group-recovery
seed = {seed}
replicates = 1
sample_sizes = {n}
format = csv

[scenario]
id = fd-rotation
dim = 2
noise_sigma = 0.05

[test]
types = permutation
alpha = 0.05
m = n
thresholds = 0.1
lipschitz = 1/e
q = 0.95
B = 100
perm_m = n

[lattice]
builder = cyclic-chain
orders = 1 2 4
dim = 2

[search]
algorithm = breadth
tie_rule = uniform-random
"""


@dataclass(frozen=True)
class Workload:
    name: str
    template: str
    sizes: dict          # template fields other than the seed
    tiny_sizes: dict     # the same fields at smoke-check size
    true_label: str      # the maximal invariant node the first search should find
    fixed_ops: int
    has_mspe: bool = False

    def config_text(self, seed: int, tiny: bool = False) -> str:
        return self.template.format(seed=seed, **(self.tiny_sizes if tiny else self.sizes))


WORKLOADS = {w.name: w for w in (
    Workload("search-sl3", _SEARCH_SL3, {"n": 2000}, {"n": 200},
             true_label="SO3", fixed_ops=12),
    Workload("estimator-compare", _ESTIMATOR_COMPARE,
             {"n": 600, "test_size": 200}, {"n": 100, "test_size": 50},
             true_label="SO3", fixed_ops=8, has_mspe=True),
    Workload("recovery-perm", _RECOVERY_PERM, {"n": 300}, {"n": 60},
             true_label="C2", fixed_ops=100),
)}

TINY_OPS = 3
