"""A/B comparison of two checkouts on the benchmark, in alternated pairs.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR TOPIC \
        [--about TEXT] [--note TEXT]

Pair k of PAIRS = 20 runs `python3 perfbench/run.py --workload W --seed N
--seconds S --trace 0` once in each checkout, seed N = FIRST_SEED + k,
for every workload.  Each run is a fresh process, started only after the
one before it ended (run.py pins one BLAS thread); the parent runs first
in even pairs and second in odd ones, so drift in the machine's speed
falls on both sides alike.  The workloads, the run length S and each
end-to-end metric's `better` direction come from CHANGE_DIR's
BENCHMARK.json.

The output, `BENCH_<TOPIC>.json` in the working directory, records
what the change is (--about), the protocol (with --note appended), the
machine and, per workload and metric, both sides' runs with their
min, quartiles and median, how many pairs the change won (ties count
for neither) and the quartiles of the per-pair ratios change/parent
(`pair_ratio`), in which drift in the machine's speed that both runs of
a pair share cancels, beside the op lines of each run's first round.
A workload's `counts_equal` says whether every pair repeated the
deterministic counts, so that a claim of bitwise-identical work can be
read off the file.  It is rewritten after every pair, so an interrupted
comparison keeps the pairs it finished.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREADS = 1         # what perfbench/run.py pins, recorded
FIRST_SEED = 301         # seeds FIRST_SEED .. FIRST_SEED + PAIRS - 1
PAIRS = 20
SIDES = ("parent", "change")
# `label seed=N err=E bound=B rhs=R rej=J t=Ts`, one line per op
OP_LINE = re.compile(r"(?P<label>\S+)\s+seed=\d+\s+err=(?P<err>\S+) "
                     r"bound=\S+ rhs=\s*(?P<rhs>\d+) rej=\s*(?P<rej>\d+) ")


def quartiles(runs) -> dict:
    """min, q1, median and q3 of runs, the quartiles interpolated as
    numpy.percentile does."""
    xs = sorted(runs)
    if len(xs) == 1:
        q1 = median = q3 = xs[0]
    else:
        q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"runs": list(runs), "min": xs[0], "q1": q1, "median": median,
            "q3": q3}


def summarize(parent, change, better: str) -> dict:
    """Both sides' quartiles, the pairs the change won, lost and tied,
    and the quartiles of the per-pair ratios change[k] / parent[k]
    (None when a parent run is 0).  parent[k] and change[k] are pair k's
    runs; better is "lower" or "higher"."""
    if better not in ("lower", "higher"):
        raise ValueError(f"unknown direction {better!r}")
    if len(parent) != len(change) or not parent:
        raise ValueError("need one change run per parent run")
    sign = 1.0 if better == "lower" else -1.0
    won = sum(sign * (c - p) < 0.0 for p, c in zip(parent, change))
    lost = sum(sign * (c - p) > 0.0 for p, c in zip(parent, change))
    out = {"better": better, "change_won_pairs": won,
           "change_lost_pairs": lost,
           "tied_pairs": len(parent) - won - lost,
           "parent": quartiles(parent), "change": quartiles(change)}
    base = out["parent"]["median"]
    out["median_ratio"] = out["change"]["median"] / base if base else None
    out["pair_ratio"] = (quartiles([c / p for p, c in zip(parent, change)])
                         if all(parent) else None)
    return out


def counts_equal(parent, change) -> bool:
    """Whether pair k's two runs agree, for every k, in rhs_evals,
    err_gmean and each first-round op's rhs, rej and err."""
    def counts(run):
        return (run["metrics"]["rhs_evals"]["value"],
                run["metrics"]["err_gmean"]["value"], run["ops"])
    return all(counts(p) == counts(c) for p, c in zip(parent, change))


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark process in tree; its final JSON line, with the op
    lines it printed before it under "ops"."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=False)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{tree} {workload} seed {seed} exited "
                           f"{done.returncode}: {done.stderr.strip()}")
    result = json.loads(lines[-1])
    result["ops"] = {m["label"]: {"rhs": int(m["rhs"]), "rej": int(m["rej"]),
                                  "err": float(m["err"])}
                     for m in map(OP_LINE.match, lines[:-1]) if m}
    return result


def machine() -> dict:
    import numpy
    return {"cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas_threads": BLAS_THREADS}


def report(about, note, seeds, metrics, runs, seconds) -> dict:
    """The BENCH file's contents from runs[workload][side], a list of
    run_once results in pair order."""
    out = {
        "topic": about,
        "harness": f"python3 perfbench/run.py --workload W --seed N "
                   f"--seconds {seconds:g} --trace 0",
        "protocol": (f"{len(seeds)} pairs per workload, seeds {seeds[0]}-"
                     f"{seeds[-1]}, parent and change alternated (parent "
                     f"first on even pair index), each run a fresh process, "
                     f"one run at a time; written by tools/bench_pairs.py"
                     + (f". {note}" if note else "")),
        "machine": machine(),
        "workloads": {},
    }
    for name, sides in runs.items():
        w = {"seeds": seeds[:len(sides["change"])],
             "correct": {s: all(r["correct"] for r in sides[s])
                         for s in SIDES},
             "failed": {s: [r["failed"] for r in sides[s]] for s in SIDES},
             "attempted": {s: [r["attempted"] for r in sides[s]]
                           for s in SIDES},
             "counts_equal": counts_equal(sides["parent"], sides["change"])}
        for metric, better in metrics.items():
            values = {s: [r["metrics"][metric]["value"] for r in sides[s]]
                      for s in SIDES}
            unit = sides["change"][0]["metrics"][metric]["unit"]
            w[metric] = {"unit": unit,
                         **summarize(values["parent"], values["change"],
                                     better)}
        labels = sides["change"][0]["ops"]
        w["ops_first_round"] = {
            label: {s: {k: [r["ops"][label][k] for r in sides[s]]
                        for k in ("rhs", "rej", "err")} for s in SIDES}
            for label in labels}
        out["workloads"][name] = w
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("topic")
    ap.add_argument("--about", default=None,
                    help="what the change is; default TOPIC")
    ap.add_argument("--note", default="", help="appended to the protocol")
    args = ap.parse_args(argv)
    manifest = json.loads((args.change / "BENCHMARK.json").read_text())
    names = [w["name"] for w in manifest["workloads"]]
    metrics = {m["name"]: m["better"] for m in manifest["end_to_end"]}
    seconds = manifest["run_seconds"]
    out = Path(f"BENCH_{args.topic}.json")
    seeds = list(range(FIRST_SEED, FIRST_SEED + PAIRS))
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = {name: {s: [] for s in SIDES} for name in names}
    for k, seed in enumerate(seeds):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        for name in names:
            for side in order:
                t0 = time.perf_counter()
                runs[name][side].append(
                    run_once(trees[side], name, seed, seconds))
                print(f"pair {k + 1}/{len(seeds)} {name} {side} seed {seed}"
                      f" {time.perf_counter() - t0:.1f} s", file=sys.stderr)
        out.write_text(json.dumps(
            report(args.about or args.topic, args.note, seeds, metrics,
                   runs, seconds),
            indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
