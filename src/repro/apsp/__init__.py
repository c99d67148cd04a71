"""End-to-end APSP algorithms (Algorithm 1 and the Table 1 baselines).

All of the 3-phase algorithms share one driver
(:mod:`~repro.apsp.driver`) so that round comparisons isolate exactly the
design choices the paper varies — the hop parameter ``h``, the blocker-set
construction (Step 2), and the Step-6 delivery mechanism:

========================== =========== ============ ========= ==========================
algorithm                  ``h``       blocker      delivery  bound
========================== =========== ============ ========= ==========================
:func:`deterministic_apsp` ``n^{1/3}`` Algorithm 2' pipelined ``O~(n^{4/3})`` this paper
:func:`baseline_n32_apsp`  ``n^{1/2}`` greedy [2]   broadcast ``O~(n^{3/2})`` [2]
:func:`randomized_apsp`    ``n^{1/3}`` sampling     pipelined ``O~(n^{4/3})`` w.h.p. [1]
:func:`five_thirds_apsp`   ``n^{1/3}`` Algorithm 2' broadcast ``O~(n^{5/3})`` strawman
:func:`naive_bf_apsp`      --          --           --        ``O(n \\cdot D_{hops})``
========================== =========== ============ ========= ==========================
"""

from repro.apsp.result import APSPResult, CertificateError, certify
from repro.apsp.closure import local_closure
from repro.apsp.driver import three_phase_apsp
from repro.apsp.deterministic import deterministic_apsp
from repro.apsp.baseline_n32 import baseline_n32_apsp
from repro.apsp.randomized import randomized_apsp
from repro.apsp.naive import five_thirds_apsp, naive_bf_apsp

__all__ = [
    "APSPResult",
    "CertificateError",
    "baseline_n32_apsp",
    "certify",
    "deterministic_apsp",
    "five_thirds_apsp",
    "local_closure",
    "naive_bf_apsp",
    "randomized_apsp",
    "three_phase_apsp",
]
