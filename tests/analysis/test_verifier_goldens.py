"""Committed goldens for every way the abstract interpreter can stop.

The corpus runs only in exact mode, and ``test_verifier.py`` checks the
bounded and fault modes by name, so a reworded reason would pass there.
Here one small program per raise site of the abstract interpreter pins
the exception type and text :meth:`AbstractMachine.run` raises (or the
exit values it returns) plus the verifier's full report for the same
program.  A SHA-256 of ``python -m repro.analysis check --corpus
--json`` per scheme and window count pins the exact-mode reports.

Regenerate with ``REPRO_UPDATE_GOLDENS=1`` only for an intended change.
"""

import hashlib
import json
from pathlib import Path

from repro.analysis import AbstractMachine, verify_program
from repro.analysis.cli import main as analysis_main
from repro.analysis.verifier import ThreadSpec
from repro.isa import assemble
from tests.support.goldens import assert_golden

GOLDENS = Path(__file__).parent / "goldens"

MAX_STEPS = 1_000

#: case name -> (source, max_steps); one program per raise site
CASES = {
    # ImpreciseError: a branch on a cmp of residue
    "branch-unknown-cc": ("""
start:
    call fn
    nop
    halt
fn:
    save
    cmp  %l0, 0
    be   out
    nop
out:
    ret
""", MAX_STEPS),
    # ImpreciseError: the entry frame's outs are residue
    "retl-unknown-o7": ("""
start:
    retl
""", MAX_STEPS),
    # ImpreciseError: the callee's ins alias the entry frame's outs
    "ret-unknown-i7": ("""
start:
    save
    ret
""", MAX_STEPS),
    "retadd-unknown-i7": ("""
start:
    save
    retadd %i0, 1, %o0
""", MAX_STEPS),
    "ld-unknown-base": ("""
start:
    ld   [%o1 + 4], %o0
    halt
""", MAX_STEPS),
    "st-unknown-base": ("""
start:
    st   %g0, [%o2 + 0]
    halt
""", MAX_STEPS),
    # ProgramError: the ALU raises on concrete operands
    "alu-fault-sll": ("""
start:
    mov  1, %o0
    sll  %o0, -1, %o0
    halt
""", MAX_STEPS),
    "alu-fault-srl": ("""
start:
    mov  -2, %l3
    srl  %l3, %l3, %o0
    halt
""", MAX_STEPS),
    # ProgramError: restore at the entry window (WindowError)
    "restore-at-entry": ("""
start:
    restore
    halt
""", MAX_STEPS),
    "restore-after-retl": ("""
start:
    mov  2, %o7
    retl
    halt
    restore
    halt
""", MAX_STEPS),
    # ProgramError: pc out of range
    "fall-off-end": ("""
start:
    nop
""", MAX_STEPS),
    "retl-past-end": ("""
start:
    mov  1, %o7
    retl
""", MAX_STEPS),
    # ProgramError: the step budget runs dry mid-batch or on an event
    "budget-mid-batch": ("""
start:
    ba   start
    nop
""", MAX_STEPS),
    "budget-on-halt": ("""
start:
    mov  3, %o0
    halt
""", 2),
    # no raise: a halt whose %o0 is residue exits with None
    "halt-unknown-exit": ("""
start:
    halt
""", MAX_STEPS),
}


def _abstract_outcome(source: str, max_steps: int) -> str:
    machine = AbstractMachine(assemble(source), n_windows=4, scheme="SP")
    machine.add_thread("start")
    try:
        exits = machine.run(max_steps=max_steps)
    except Exception as exc:  # the type and text are the golden
        return "%s: %s" % (type(exc).__name__, exc)
    return "exits: %r" % (exits,)


def test_raise_site_goldens():
    doc = {}
    for name, (source, max_steps) in CASES.items():
        report = verify_program(source, name=name, threads=[ThreadSpec()],
                                n_windows=4, scheme="SP",
                                max_steps=max_steps)
        doc[name] = {
            "abstract": _abstract_outcome(source, max_steps),
            "verifier": report.to_dict(),
        }
    assert_golden(GOLDENS / "raise_sites.json",
                  json.dumps(doc, indent=2, sort_keys=True) + "\n")


def test_corpus_check_json_digests(capsys):
    digests = {}
    for scheme in ("NS", "SNP", "SP"):
        for n_windows in (4, 8, 32):
            analysis_main(["check", "--corpus", "--json",
                           "--scheme", scheme,
                           "--windows", str(n_windows)])
            out = capsys.readouterr().out
            digests["%s/%d" % (scheme, n_windows)] = hashlib.sha256(
                out.encode()).hexdigest()
    assert_golden(GOLDENS / "corpus_check_sha256.json",
                  json.dumps(digests, indent=2) + "\n")
