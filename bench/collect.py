"""Repeat the benchmark over seeds and summarise every metric.

    python3 bench/collect.py --seeds 1 2 3 4 5 --trace 0 --out .bench_out/collect.json

Runs ``run.py`` once per workload, seed and trace level, one process after
another.  For each metric it records the values, their median, quartiles
(``statistics.quantiles(values, n=4)``) and spread = (q3 - q1) / median, and
whether the values repeat exactly.  End-to-end spreads are compared with the
metric's bound from BENCHMARK.json: within a third of it is steady.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def summary(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "repeats_exactly": len(set(values)) == 1,
        "values": values,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    ap.add_argument("--trace", nargs="+", type=int, default=[0], choices=(0, 1))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    doc = {"command": spec["command"], "seconds": args.seconds, "seeds": args.seeds}
    ok = True
    for trace in args.trace:
        for wl in args.workloads:
            values, walls, flags = {}, [], []
            for seed in args.seeds:
                cmd = [*spec["command"], "--workload", wl, "--seed", str(seed),
                       "--seconds", str(args.seconds), "--trace", str(trace)]
                t0 = perf_counter()
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
                walls.append(perf_counter() - t0)
                if proc.returncode != 0:
                    sys.exit(f"collect: {' '.join(cmd)} exited {proc.returncode}\n{proc.stderr}")
                line = json.loads(proc.stdout.strip().splitlines()[-1])
                flags.append((line["correct"], line["attempted"], line["failed"]))
                for name, m in line["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
                detail = json.loads((ROOT / ".bench_out" / wl / f"result-trace{trace}.json").read_text())
                doc.setdefault("machine", detail["machine"])
                print(f"trace {trace} {wl} seed {seed}: {walls[-1]:.1f} s, correct {line['correct']}",
                      flush=True)
            metrics = {name: summary(v) for name, v in values.items()}
            doc.setdefault(f"trace{trace}", {})[wl] = {
                "all_correct": all(f[0] for f in flags),
                "attempted": [f[1] for f in flags],
                "failed": [f[2] for f in flags],
                "invocation_s": summary(walls),
                "metrics": metrics,
            }
            ok &= all(f[0] and not f[2] for f in flags)
            if trace == 0:
                for name, s in metrics.items():
                    steady = s["spread"] <= bounds[name] / 3
                    ok &= name == "setup_s" or s["spread"] <= bounds[name]
                    print(f"  {wl:14s} {name:12s} median {s['median']:<12.6g} spread {s['spread']:7.2%}"
                          f"  bound {bounds[name]:.0%}  {'steady' if steady else 'NOT STEADY'}")
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
