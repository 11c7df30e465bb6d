#!/usr/bin/env python3
"""Negative control for the benchmark's ground-truth check.

Run from the repository root:

    python3 perfbench/selftest.py [workload ...]

For each workload (default: all four) it serves one short round twice. Served
unprotected, every attack must count as failed and every benign request as
served, so the failures must equal exactly the attacks sent. Served
protected, nothing may fail. Exits 1 if either check fails for any workload.
"""
import json
import shutil
import subprocess
import sys

import run


def summary_of(cmd):
    """Runs the benchmark binary; returns (summary dict, result dict)."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True,
                          timeout=run.DEADLINE_S)
    lines = proc.stdout.strip().splitlines()
    summary = next(json.loads(line[len("summary "):]) for line in lines
                   if line.startswith("summary "))
    return summary, json.loads(lines[-1])


def main():
    workloads = sys.argv[1:] or list(run.WORKLOADS)
    binary = run.build()
    ok = True
    for workload in workloads:
        scratch = run.scratch_dir(workload)
        try:
            base = run.bench_command(binary, workload, 7, 1, False, scratch)
            control, control_result = summary_of(base + ["--unprotected"])
            protected, protected_result = summary_of(base)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        share = control["attacks_sent"] / control["attempted"]
        control_ok = (control["attacks_sent"] > 0 and
                      control["failed"] == control["attacks_sent"] and
                      not control_result["correct"])
        protected_ok = protected["failed"] == 0 and protected_result["correct"]
        print(f"{workload}: unprotected fail_frac {control['fail_frac']:.6f} "
              f"(attack share {share:.6f}) {'ok' if control_ok else 'FAIL'}; "
              f"protected fail_frac {protected['fail_frac']:.6f} "
              f"{'ok' if protected_ok else 'FAIL'}")
        ok = ok and control_ok and protected_ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
