#!/usr/bin/env python3
"""Runs the benchmark over several seeds and summarises it.

    python3 perfbench/sweep.py --seeds 1-10 --seconds 20 [--workloads a,b]
                               [--traced-seed 1] [--out perfbench/baseline.json]

For every workload it makes one untraced run per seed and reports, for each
end-to-end metric, the median and quartiles of the per-seed values and the
spread (q3 - q1) / median, the figure BENCHMARK.json's bounds are held to.
With --traced-seed it also makes one traced run per workload and records
the per-layer metrics and the ledger shares. Runs go through run.py, so the
first one builds. The summary is printed and, with --out, written as JSON.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"sweep: {' '.join(cmd)} failed ({out.returncode})\n"
                 f"{out.stdout}{out.stderr}")
    return lines


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--workloads")
    parser.add_argument("--traced-seed", type=int)
    parser.add_argument("--out")
    args = parser.parse_args()

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)

    summary = {"seeds": seeds, "run_seconds": seconds, "workloads": {}}
    for workload in workloads:
        values = {}
        fingerprint = None
        for seed in seeds:
            lines = run(workload, seed, seconds, 0)
            result = json.loads(lines[-1])
            if not result["correct"]:
                sys.exit(f"sweep: {workload} seed {seed} failed a check\n" +
                         "\n".join(lines))
            fingerprint = next((json.loads(line.split(" ", 1)[1])
                                for line in lines
                                if line.startswith("fingerprint ")), None)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        entry = {"fingerprint": fingerprint, "end_to_end": {}}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            entry["end_to_end"][name] = {
                "median": med, "q1": q1, "q3": q3, "n": len(vals),
                "spread": spread, "values": vals}
            print(f"{workload:16s} {name:16s} median {med:<12.6g} "
                  f"q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread:.3f} "
                  f"(bound {bounds.get(name)})", flush=True)
        if args.traced_seed is not None:
            lines = run(workload, args.traced_seed, seconds, 1)
            entry["per_layer"] = json.loads(lines[-1])["metrics"]
            entry["ledger_shares"] = {
                parts[1][len("share."):]: float(parts[3])
                for parts in (line.split() for line in lines)
                if len(parts) > 3 and parts[0] == "metric" and
                parts[1].startswith("share.")}
        summary["workloads"][workload] = entry

    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=2)
            f.write("\n")


if __name__ == "__main__":
    main()
