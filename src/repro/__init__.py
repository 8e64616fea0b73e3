"""repro — Multiple Threads in Cyclic Register Windows (ISCA 1993).

A faithful Python reproduction of Hidaka, Koike & Tanaka's window-
management algorithm, its SNP/SP sharing schemes and NS baseline, the
working-set scheduling policy, and the paper's full evaluation (the
multi-threaded spell checker, Tables 1-2, Figures 11-15).

Quickstart::

    from repro import Kernel, Tick, Call

    def leaf(n):
        yield Tick(5)
        return n * n

    def root():
        total = 0
        for i in range(4):
            total += (yield Call(leaf, i))
        return total

    kernel = Kernel(n_windows=8, scheme="SP")
    kernel.spawn(root, name="main")
    result = kernel.run()
    print(result.result_of("main"), result.total_cycles)
"""

from repro.lazy import LazyExports

__version__ = "1.0.0"

_exports = LazyExports(__name__, {
    "repro.core": ("CostModel", "FIFOPolicy", "FreeSearchAllocation",
                   "LRUBottomAllocation", "NSScheme", "PAPER_TABLE2",
                   "SCHEMES", "SimpleAllocation", "SNPScheme", "SPScheme",
                   "WorkingSetPolicy", "make_scheme"),
    "repro.metrics.counters": ("Counters",),
    "repro.metrics.events": ("TraceEvent", "TraceRecorder"),
    "repro.metrics.perfetto": ("PerfettoExporter",),
    "repro.metrics.report": ("build_run_report",),
    "repro.errors": ("ReproError", "TransientError"),
    "repro.runtime": ("Call", "CloseStream", "DeadlockError", "FlushHint",
                      "Join", "Kernel", "LivelockError", "Read", "ReadLine",
                      "RunResult", "Spawn", "Stream", "Tick", "Write",
                      "YieldCPU"),
    "repro.windows": ("WindowCPU", "WindowFile"),
})

__all__ = [
    "CostModel",
    "FIFOPolicy",
    "FreeSearchAllocation",
    "LRUBottomAllocation",
    "NSScheme",
    "PAPER_TABLE2",
    "SCHEMES",
    "SimpleAllocation",
    "SNPScheme",
    "SPScheme",
    "WorkingSetPolicy",
    "make_scheme",
    "Counters",
    "TraceEvent",
    "TraceRecorder",
    "PerfettoExporter",
    "build_run_report",
    "ReproError",
    "TransientError",
    "Call",
    "CloseStream",
    "DeadlockError",
    "FlushHint",
    "Kernel",
    "LivelockError",
    "Read",
    "ReadLine",
    "RunResult",
    "Stream",
    "Tick",
    "Write",
    "YieldCPU",
    "WindowCPU",
    "WindowFile",
    "__version__",
]

__getattr__ = _exports.resolve
__dir__ = _exports.names
