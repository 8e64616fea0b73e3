"""Control-flow graph + call graph over an assembled ISA program.

The unit of analysis is the *function*: the set of instructions
reachable from an entry index without following ``call`` edges.
``call`` transfers control to its label and the callee returns to the
call site + 1 (``%o7``/``%i7`` linkage), so inside a function a call
instruction's successor is the next instruction; the inter-function
edge goes into the call graph instead.  ``ret``/``retl``/``retadd``
and ``halt`` terminate a path; branches add their target (and, for
conditional branches, the fall-through).

Entry points are the targets of ``call`` instructions plus any label
used as a thread entry (``Machine.add_thread``'s ``entry``, by default
``"start"``) — labels that are only branch targets are interior.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

from repro.isa.assembler import Program
from repro.isa.instructions import BRANCH_OPS

#: ops that terminate the current path (control leaves the function or
#: the thread); ``ret``/``retadd`` also pop a window, tracked in depth.py
RETURN_OPS = frozenset(("ret", "retl", "retadd"))
TERMINAL_OPS = frozenset(("halt",))
#: net window-depth effect of an op (save pushes, restore/ret/retadd pop)
DEPTH_DELTA = {"save": +1, "restore": -1, "ret": -1, "retadd": -1}


def successors(program: Program, index: int) -> List[int]:
    """Intra-function successor indices of the instruction at ``index``."""
    instr = program.instructions[index]
    op = instr.op
    if op in RETURN_OPS or op in TERMINAL_OPS:
        return []
    if op == "ba":
        return [instr.label]
    if op in BRANCH_OPS:
        return [instr.label, index + 1]
    # ``call`` returns to the next instruction; everything else falls
    # through.  A successor one past the end is kept so the verifier
    # can flag the fall-off-the-end path.
    return [index + 1]


@dataclass
class FunctionCFG:
    """One function: entry index, reachable body, per-index successors."""

    entry: int
    name: str
    body: Set[int] = field(default_factory=set)
    succ: Dict[int, List[int]] = field(default_factory=dict)
    #: call sites inside this function: (index, callee entry index)
    calls: List[Tuple[int, int]] = field(default_factory=list)
    #: reachable indices one past the program end (fall-off paths)
    falls_off: List[int] = field(default_factory=list)


@dataclass
class ProgramCFG:
    """All functions of a program plus the call graph between them."""

    program: Program
    functions: Dict[int, FunctionCFG] = field(default_factory=dict)
    #: entry index -> set of callee entry indices
    call_graph: Dict[int, Set[int]] = field(default_factory=dict)
    #: indices never reached from any entry
    unreachable: List[int] = field(default_factory=list)

    def recursive_entries(self) -> Set[int]:
        """Entries on a call-graph cycle (directly or mutually recursive)."""
        recursive: Set[int] = set()
        for entry in self.call_graph:
            # DFS from each callee of ``entry`` looking for a path back
            stack = list(self.call_graph.get(entry, ()))
            seen: Set[int] = set()
            while stack:
                node = stack.pop()
                if node == entry:
                    recursive.add(entry)
                    break
                if node in seen:
                    continue
                seen.add(node)
                stack.extend(self.call_graph.get(node, ()))
        return recursive


def _entry_name(program: Program, index: int) -> str:
    names = sorted(name for name, target in program.labels.items()
                   if target == index)
    return names[0] if names else ("@%d" % index)


def build_cfg(program: Program,
              thread_entries: Sequence[str] = ("start",)) -> ProgramCFG:
    """Build the per-function CFGs and the call graph.

    ``thread_entries`` are the labels threads start at; labels missing
    from the program are ignored here (the machine raises on them at
    ``add_thread`` time, and the verifier reports them separately).
    """
    instrs = program.instructions
    n = len(instrs)
    entries: Set[int] = set()
    for name in thread_entries:
        target = program.labels.get(name)
        if target is not None and target < n:
            entries.add(target)
    for instr in instrs:
        if instr.op == "call" and instr.label is not None:
            entries.add(instr.label)
    cfg = ProgramCFG(program=program)
    reachable_any: Set[int] = set()
    for entry in sorted(entries):
        fn = FunctionCFG(entry=entry, name=_entry_name(program, entry))
        stack = [entry]
        while stack:
            index = stack.pop()
            if index in fn.body or not 0 <= index < n:
                continue
            fn.body.add(index)
            instr = instrs[index]
            if instr.op == "call" and instr.label is not None:
                fn.calls.append((index, instr.label))
            succ = successors(program, index)
            fn.succ[index] = succ
            for nxt in succ:
                if nxt >= n:
                    fn.falls_off.append(index)
                else:
                    stack.append(nxt)
        cfg.functions[entry] = fn
        cfg.call_graph[entry] = {callee for __, callee in fn.calls}
        reachable_any |= fn.body
    cfg.unreachable = [i for i in range(n) if i not in reachable_any]
    return cfg
