#!/usr/bin/env python3
"""Alternated A/B pairs of the repository benchmark: a revision against
the working tree.

    python3 bench/pairs.py REV --workload W [--pairs 10] [--seconds 20] [--seed 1]

Run from anywhere inside the repository. Exports REV with `git archive`
into a temporary directory (deleted at exit), then runs
`perfbench/run.py --trace 0` on REV's copy and on the working tree,
PAIRS times each, alternating which side goes first. For every
`end_to_end` metric in BENCHMARK.json it prints each side's median with
quartiles and the pairs the change won (ties count for neither), and a
verdict:

- "gain" when the change wins at least nine tenths of the pairs and the
  medians differ by more than REV's interquartile range;
- "worse" when the change's median is worse than REV's by more than the
  metric's relative bound;
- "-" otherwise.

It also says whether every simulated line the benchmark printed was the
same on both sides. The exit code is non-zero when any run fails or
reports failed checks. Nothing under perfbench/ is changed.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile


def git_root():
    out = subprocess.run(["git", "rev-parse", "--show-toplevel"],
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


def export(root, rev, dest):
    archive = subprocess.Popen(["git", "-C", root, "archive", rev],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"git archive {rev} failed")


def simulated_lines(stdout):
    """The lines of a run that repeat exactly for a given build and seed."""
    keep = []
    for line in stdout.splitlines():
        if line.rstrip().endswith(" simulated") or line.startswith("model:"):
            keep.append(line.rstrip())
        elif line.startswith("sim_mips"):
            # the value is host time; the note carries the instruction count
            keep.append(line.split(None, 3)[-1].rstrip())
    return keep


def run_once(tree, args):
    cmd = ["python3", "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    result = None
    lines = proc.stdout.strip().splitlines()
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    ok = proc.returncode == 0 and result is not None and result["failed"] == 0
    if not ok:
        sys.stderr.write(f"run failed in {tree} (exit {proc.returncode})\n")
        sys.stderr.write(proc.stderr[-2000:])
    return ok, result, simulated_lines(proc.stdout)


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def verdict(metric, base, change):
    lower = metric["better"] == "lower"
    wins = sum(1 for b, c in zip(base, change) if (c < b if lower else c > b))
    b1, bmed, b3 = quartiles(base)
    _, cmed, _ = quartiles(change)
    diff = (bmed - cmed) if lower else (cmed - bmed)
    if 10 * wins >= 9 * len(base) and diff > b3 - b1:
        word = "gain"
    elif -diff > metric["bound"] * abs(bmed):
        word = "worse"
    else:
        word = "-"
    return wins, word


def fmt(xs):
    q1, q2, q3 = quartiles(xs)
    return f"{q2:.6g} [{q1:.6g}-{q3:.6g}]"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("rev")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    root = git_root()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    tmp = tempfile.mkdtemp(prefix="pairs-")
    try:
        export(root, args.rev, tmp)
        sides = {"base": tmp, "change": root}
        values = {side: {m["name"]: [] for m in metrics} for side in sides}
        sims = {side: set() for side in sides}
        failed = False
        for i in range(args.pairs):
            order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
            for side in order:
                ok, result, sim = run_once(sides[side], args)
                failed = failed or not ok
                if result is None:
                    continue
                sims[side].add("\n".join(sim))
                for m in metrics:
                    v = result["metrics"].get(m["name"])
                    if v is not None:
                        values[side][m["name"]].append(v["value"])
            last = "  ".join(
                f"{m['name']} {values['base'][m['name']][-1]:.6g}"
                f" {values['change'][m['name']][-1]:.6g}"
                for m in metrics
                if values["base"][m["name"]] and values["change"][m["name"]])
            print(f"pair {i + 1}/{args.pairs} (base change): {last}",
                  file=sys.stderr)
        print(f"{args.workload}  seed {args.seed}  {args.pairs} pairs at "
              f"--seconds {args.seconds:g}  base {args.rev}")
        print(f"{'metric':<14} {'base median [IQR]':<34} "
              f"{'change median [IQR]':<34} {'won':<7} verdict")
        for m in metrics:
            base = values["base"][m["name"]]
            change = values["change"][m["name"]]
            if not base or len(base) != len(change):
                print(f"{m['name']:<14} incomplete: {len(base)} base and "
                      f"{len(change)} change runs")
                failed = True
                continue
            wins, word = verdict(m, base, change)
            print(f"{m['name']:<14} {fmt(base):<34} {fmt(change):<34} "
                  f"{wins}/{len(base):<5} {word}")
        same = len(sims["base"]) == 1 and sims["base"] == sims["change"]
        print("simulated lines: " +
              ("identical on both sides" if same else "DIFFER"))
        return 1 if failed else 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
