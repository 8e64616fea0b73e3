"""The paper's contribution: window-management schemes for multiple
threads in cyclic register windows.

Three evaluated schemes (paper §4.5):

* :class:`NSScheme` — non-sharing: flush all active windows on every
  context switch (the conventional approach).
* :class:`SNPScheme` — sharing without private reserved windows: one
  global reserved window; underflow traps restore the caller's frame
  *in place* (the paper's key idea, §3.2), so underflow never spills.
* :class:`SPScheme` — sharing with a private reserved window (PRW) per
  thread: switching to a thread whose windows are resident transfers
  nothing at all.

Plus the working-set ready-queue policy of §4.6 and the allocation
policy variations of §4.2.
"""

from repro.lazy import LazyExports

#: smallest window file each scheme runs on, by paper name: read by
#: ``Scheme.min_windows`` and, without loading a scheme, by the
#: experiments CLI's ``--windows`` check
SCHEME_MIN_WINDOWS = {"NS": 3, "SNP": 3, "SP": 4}

_exports = LazyExports(__name__, {
    "repro.core.allocation": ("AllocationPolicy", "FreeSearchAllocation",
                              "LRUBottomAllocation", "SimpleAllocation"),
    "repro.core.costs": ("CostModel", "PAPER_TABLE2", "Table2Row"),
    "repro.core.ns": ("NSScheme",),
    "repro.core.scheme": ("Scheme",),
    "repro.core.snp": ("SNPScheme",),
    "repro.core.sp": ("SPScheme",),
    "repro.core.working_set": ("FIFOPolicy", "QueuePolicy",
                               "WorkingSetPolicy"),
    "repro.core.registry": ("SCHEMES", "make_scheme"),
})

__all__ = [
    "AllocationPolicy",
    "FreeSearchAllocation",
    "LRUBottomAllocation",
    "SimpleAllocation",
    "CostModel",
    "PAPER_TABLE2",
    "Table2Row",
    "NSScheme",
    "Scheme",
    "SNPScheme",
    "SPScheme",
    "FIFOPolicy",
    "QueuePolicy",
    "WorkingSetPolicy",
    "SCHEMES",
    "make_scheme",
]

__getattr__ = _exports.resolve
__dir__ = _exports.names
