"""Checks on the benchmark itself, run by hand after changing it.

    python3 perfbench/selfcheck.py           # run every check below
    python3 perfbench/selfcheck.py --record  # rewrite reference.json first

* The sweep generator in ``workloads.py`` yields, on the default seed,
  the same 144 scenarios as ACCEPTANCE 5 in ``tests/test_acceptance.py``:
  same labels, byte-identical traces.
* Every count, and every ratio of counts, of a traced run is identical
  in two processes started one after the other with different
  ``PYTHONHASHSEED`` values (``run.py`` already requires it across
  passes within one process).

``--record`` stores the sha256 of every default-seed trace in
``reference.json``; ``run.py`` compares against it on the default seed.
Record only from a commit whose traces are known good.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import run
import tracing
import workloads

HASH_SEEDS = ("1", "2")
TRACE_SECONDS = "2"


def record() -> None:
    g = run.import_graftsim()
    reference = {}
    for workload in workloads.WORKLOADS:
        entries = []
        for case in workloads.build(g, workload, run.DEFAULT_SEED, run.WORKDIR):
            result = workloads.execute(g, case)
            reason = workloads.check(g, result, None)
            if reason is not None:
                raise SystemExit(f"not recording a failing run: {case.label}: {reason}")
            entries.append([case.label, workloads.digest(result.text)])
        reference[workload] = entries
    run.DIGESTS.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {sum(map(len, reference.values()))} trace digests")


def check_sweep() -> bool:
    g = run.import_graftsim()
    sys.path.insert(0, str(run.ROOT / "tests"))
    import test_acceptance

    bo3_tree = g.load_scenario(g.bundled_data_dir() / "bo3_happy.scn").tree
    theirs = list(test_acceptance._bo3_attack_matrix(bo3_tree)) + \
        list(test_acceptance._random_attack_cases(100))
    ours = workloads.acceptance_sweep(g, run.DEFAULT_SEED)
    same = [a.label for a in theirs] == [b.label for b in ours] and all(
        g.run(a).serialize() == g.run(b).serialize() for a, b in zip(theirs, ours))
    print(f"sweep generator: {len(ours)} scenarios, "
          f"{'identical to' if same else 'DIFFERENT from'} ACCEPTANCE 5")
    return same


def traced_counts(workload: str, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    out = subprocess.run(
        [sys.executable, str(run.ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(run.DEFAULT_SEED), "--seconds", TRACE_SECONDS, "--trace", "1"],
        env=env, cwd=run.ROOT, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: traced run failed its output check\n{out.stdout}")
    return {name: metric["value"] for name, metric in result["metrics"].items()
            if tracing.UNITS.get(name) in ("count", "ratio")}


def check_counts() -> bool:
    ok = True
    for workload in workloads.WORKLOADS:
        first, second = (traced_counts(workload, seed) for seed in HASH_SEEDS)
        differ = sorted(k for k in first if first[k] != second.get(k))
        print(f"{workload}: {len(first)} counts and ratios, "
              f"{'identical' if not differ else 'DIFFERENT: ' + ', '.join(differ)} "
              f"across PYTHONHASHSEED {' and '.join(HASH_SEEDS)}")
        ok = ok and not differ
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    sys.path.insert(0, str(run.SRC))
    if args.record:
        record()
    sweep_ok = check_sweep()
    counts_ok = check_counts()
    return 0 if sweep_ok and counts_ok else 1


if __name__ == "__main__":
    sys.exit(main())
