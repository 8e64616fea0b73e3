"""Crash-bundle CLI:
``python -m repro.faults <show|replay|minimize|fuzz> ...``.

``show`` pretty-prints what a bundle captured: the error and its
context, the machine and thread state at the crash, the fault plan,
the minimization provenance (for ``.min`` bundles) and the tail of the
event flight recorder.

``replay`` re-executes the workload the bundle describes (same config,
same seed, same fault plan) and verifies the
rerun crashes with a bit-for-bit identical bundle — the determinism
contract that makes an injected failure diagnosable instead of
anecdotal.

``minimize`` delta-debugs a failing bundle to its essence: a minimal
fault plan and a shrunk workload schedule, verified by replay at every
reduction step (see :mod:`repro.faults.minimize`).

``fuzz`` runs a seeded campaign of random fault plans x random
workloads x schemes, auto-minimizing every detected failure; exits non-zero unless every trial survives-or-minimizes.

All bundle-file problems (missing path, corrupt JSON, foreign schema)
and fuzz flags that name no runnable campaign (no trials, an unknown
workload or scheme) exit with code 2 and a one-line error, never a
traceback.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from repro.errors import ReproError
from repro.faults.bundle import load_bundle, replay_bundle
from repro.faults.plan import FaultPlan
from repro.usage import step_count_error


def show(path: str) -> int:
    bundle = load_bundle(path)
    error = bundle["error"]
    machine = bundle["machine"]
    print("crash bundle: %s (schema %s v%s)"
          % (path, bundle["schema"], bundle["version"]))
    print()
    print("error: %s: %s" % (error["type"], error["message"]))
    for key in sorted(error.get("context", {})):
        print("  %-14s %s" % (key, error["context"][key]))
    for entry in error.get("blocked", []):
        print("  blocked: %s waits to %s %r (%s)"
              % (entry.get("thread"), entry.get("op"), entry.get("on"),
                 entry.get("detail")))
    print()
    plan = bundle.get("fault_plan")
    if plan:
        print("fault plan: %s" % FaultPlan.from_payload(plan).describe())
    else:
        print("fault plan: none")
    print("config: %s" % " ".join(
        "%s=%s" % (k, bundle["config"][k])
        for k in sorted(bundle["config"])))
    mini = bundle.get("minimization")
    if mini:
        orig = mini.get("original", {})
        print()
        print("minimized from: %s (%s spec(s), %s steps; sha256 %s...)"
              % (orig.get("file"), orig.get("specs"),
                 orig.get("steps"),
                 str(orig.get("sha256", ""))[:12]))
        print("  %s candidate run(s), %s reproduced"
              % (mini.get("candidates"), mini.get("reproductions")))
        for line in mini.get("log", []):
            print("  %s" % line)
    print()
    print("machine: scheme=%s windows=%d cwp=%d wim=%s"
          % (machine["scheme"], machine["n_windows"], machine["cwp"],
             machine["wim"]))
    for entry in machine["occupancy"]:
        print("  w%-2d %-9s %s" % (
            entry["window"], entry["kind"],
            "" if entry["tid"] is None else "tid=%s" % entry["tid"]))
    print()
    print("threads (at step %s):" % bundle.get("steps"))
    for t in bundle["threads"]:
        w = t["windows"]
        print("  %-12s %-8s depth=%-3s resident=%-2s stored=%-2s %s"
              % (t["name"], t["state"], w["depth"], w["resident"],
                 w["stored"],
                 "blocked on %s" % t["blocked_on"]
                 if t["blocked_on"] else ""))
    fired = bundle.get("faults_fired", [])
    if fired:
        print()
        print("faults fired (%d):" % len(fired))
        for record in fired:
            print("  %s@%s/%s  %s" % (
                record.get("kind"), record.get("at"), record.get("site"),
                _attrs(record, ("kind", "at", "site"))))
    flight = bundle.get("flight", [])
    if flight:
        print()
        print("last %d flight records:" % len(flight))
        for record in flight[-20:]:
            print("  %-10s %s" % (record.get("kind"),
                                  _attrs(record, ("kind",))))
    events = bundle.get("events", [])  # v1/v2 bundles
    if events:
        print()
        print("last %d events:" % len(events))
        for event in events[-20:]:
            print("  %8s  tid=%-3s %-12s %s"
                  % (event.get("cycle"), event.get("tid", "-"),
                     event.get("kind"),
                     _attrs(event, ("kind", "cycle", "tid"))))
    return 0


def _attrs(record, skip) -> str:
    return " ".join("%s=%s" % (k, v) for k, v in record.items()
                    if k not in skip)


def replay(path: str, workdir=None) -> int:
    matched, new_path, detail = replay_bundle(path, workdir=workdir)
    print(detail)
    if matched:
        print("replay OK: the bundle reproduces deterministically")
        return 0
    print("replay FAILED: %s did not reproduce" % path, file=sys.stderr)
    return 1


def minimize(path: str, out=None, trial_budget=None) -> int:
    from repro.faults.minimize import minimize_bundle

    result = minimize_bundle(path, out_dir=out,
                             trial_budget=trial_budget)
    print("minimized: %s" % result.path)
    print("  %s" % result.summary())
    for line in result.log:
        print("  %s" % line)
    if not result.log:
        print("  (already minimal)")
    print("  verified: minimized bundle replays bit-for-bit (%s)"
          % result.error_type)
    return 0


def fuzz_usage_error(trials: int, workloads, schemes) -> Optional[str]:
    """Why the fuzz flags name no campaign that can run, or None."""
    from repro.core.registry import SCHEMES
    from repro.faults.workloads import WORKLOADS

    if trials < 1:
        return "--trials %d: a campaign needs at least one trial" % trials
    unknown = [n for n in workloads or () if n not in WORKLOADS]
    if unknown:
        return ("--workloads: unknown workload %r (known: %s)"
                % (unknown[0], ", ".join(sorted(WORKLOADS))))
    unknown = [s for s in schemes if s.upper() not in SCHEMES]
    if unknown:
        return ("--schemes: unknown scheme %r (known: %s)"
                % (unknown[0], ", ".join(sorted(SCHEMES))))
    return None


def fuzz(args) -> int:
    from repro.faults.fuzz import run_fuzz

    workloads = args.workloads.split(",") if args.workloads else None
    schemes = tuple(args.schemes.split(","))
    problem = fuzz_usage_error(args.trials, workloads, schemes)
    if problem is not None:
        print("error: %s" % problem, file=sys.stderr)
        return 2
    report = run_fuzz(
        trials=args.trials, seed=args.seed, out_dir=args.out,
        workloads=workloads, schemes=schemes,
        minimize=not args.no_minimize,
        trial_budget=args.trial_budget,
        log=print)
    if report.ok:
        print("fuzz OK: every trial survived or minimized")
        return 0
    print("fuzz FAILED: %d unexpected outcome(s)" % report.unexpected,
          file=sys.stderr)
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults",
        description="Inspect, replay, minimize and fuzz crash bundles.")
    sub = parser.add_subparsers(dest="command", required=True)
    show_p = sub.add_parser("show", help="pretty-print a crash bundle")
    show_p.add_argument("bundle")
    replay_p = sub.add_parser(
        "replay", help="re-run a bundle's workload and verify the crash "
                       "reproduces bit-for-bit")
    replay_p.add_argument("bundle")
    replay_p.add_argument("--workdir", default=None,
                          help="where the replay bundle is written "
                               "(default: alongside the original)")
    min_p = sub.add_parser(
        "minimize", help="delta-debug a failing bundle to a minimal "
                         "fault plan + workload, verified by replay")
    min_p.add_argument("bundle")
    min_p.add_argument("--out", default=None,
                       help="where the minimized bundle is written "
                            "(default: alongside the original)")
    min_p.add_argument("--trial-budget", type=int, default=None,
                      metavar="STEPS",
                      help="step cap per candidate run (default: "
                           "4x the original crash's steps)")
    fuzz_p = sub.add_parser(
        "fuzz", help="seeded random fault plans x workloads x schemes; "
                     "auto-minimizes every failure")
    fuzz_p.add_argument("--trials", type=int, default=25)
    fuzz_p.add_argument("--seed", type=int, default=1993)
    fuzz_p.add_argument("--out", default="fuzz-out",
                        help="minimized bundles land here (raw crashes "
                             "under <out>/raw)")
    fuzz_p.add_argument("--workloads", default=None,
                        help="comma-separated workload names "
                             "(default: all registered)")
    fuzz_p.add_argument("--schemes", default="NS,SNP,SP")
    fuzz_p.add_argument("--trial-budget", type=int, default=300_000,
                        metavar="STEPS")
    fuzz_p.add_argument("--no-minimize", action="store_true",
                        help="keep raw bundles only (skips the "
                             "survive-or-minimize gate)")
    args = parser.parse_args(argv)
    # a run cut at step 0 (or before it) fails as a RuntimeFault that
    # fuzz and minimize would blame on the plan or the bundle
    problem = step_count_error("--trial-budget",
                               getattr(args, "trial_budget", None), 1)
    if problem is not None:
        print("error: %s" % problem, file=sys.stderr)
        return 2
    try:
        if args.command == "show":
            return show(args.bundle)
        if args.command == "replay":
            return replay(args.bundle, workdir=args.workdir)
        if args.command == "minimize":
            return minimize(args.bundle, out=args.out,
                            trial_budget=args.trial_budget)
        return fuzz(args)
    except ReproError as exc:
        print("error: %s: %s" % (type(exc).__name__, exc),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
