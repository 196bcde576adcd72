#!/usr/bin/env python3
"""Determinism self-test of the wall-clock benchmark.

Run from the root of a checkout:

    python3 wallbench/selftest.py [workload ...]

Builds the wallbench binary (as run.py does), then for every workload runs it
with --seconds 1, less time than a run's minimum work takes. So every run does
exactly that minimum: 5 passes (batch) or 400 completions (serve), and 2
passes or 200 completions in each half of a traced run. The checks are that:

  * two runs with the same seed repeat exactly what must not depend on the
    host clock: the modeled and simulated metrics, the sim.* breakdown,
    kernel launch and HBM counts, fallback counts, the ok / wrong /
    accelerated counts and the result line's attempted / failed counts
    (and, for serve-writes, the query sequence and its simulated latencies);
  * changing the seed changes the inputs: the batch query order, and the
    served query sequence and lineorder versions.

Exits 0 when every check holds, 1 otherwise.
"""

import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the build step)

WORKLOADS = ("tpch-sf0.01", "tpch-sf0.05", "serve-writes")
SEED = 11

# Per-layer metrics that must repeat exactly for a seed. Everything else
# there is host wall time.
DETERMINISTIC_LAYER = (
    "sim.", "engine.fused_stages", "engine.kernel_launches",
    "engine.hbm_gb_modeled", "engine.fallback_", "engine.oom_evict_retries",
    "engine.evicted_columns", "plan.wire_bytes", "mem.pool_capacity_mb",
    "serve.result_cache_hit_share", "serve.queue_wait_ms_p95", "serve.shed",
    "serve.wrong_answers", "trace.queries",
)


def drive(workload, seed, trace):
    cmd = [run.BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True,
                         timeout=run.RUN_TIMEOUT_S)
    if out.returncode != 0:
        raise RuntimeError("%s failed (%d): %s" % (" ".join(cmd),
                                                   out.returncode, out.stderr))
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1])
    det = [json.loads(l[len("DETERMINISM "):]) for l in lines
           if l.startswith("DETERMINISM ")]
    fingerprints = [l for l in lines if "lineorder version fingerprints" in l]
    return result, (det[0] if det else None), fingerprints


def main():
    if not run.build():
        print("selftest: build failed", file=sys.stderr)
        return 1
    failures = []

    def check(ok, what):
        print("%s  %s" % ("ok  " if ok else "FAIL", what))
        if not ok:
            failures.append(what)

    for workload in sys.argv[1:] or WORKLOADS:
        a, det_a, fp_a = drive(workload, SEED, 0)
        b, det_b, fp_b = drive(workload, SEED, 0)
        det_a.pop("seed")
        det_b.pop("seed")
        diff = {k: (det_a[k], det_b.get(k)) for k in det_a
                if det_a[k] != det_b.get(k)}
        check(not diff, "%s: same seed repeats modeled metrics, simulated "
              "latencies and ok/wrong/accelerated counts%s" %
              (workload, (" (differ: %s)" % diff) if diff else ""))
        for name in ("modeled_gpu_ms_geomean", "modeled_speedup_geomean",
                     "sim_latency_ms_p50", "sim_latency_ms_p95",
                     "accelerated_share"):
            check(a["metrics"][name] == b["metrics"][name],
                  "%s: %s repeats exactly" % (workload, name))
        check(a["correct"] and b["correct"], "%s: answers verified" % workload)
        check((a["attempted"], a["failed"]) == (b["attempted"], b["failed"]),
              "%s: attempted and failed repeat exactly (%d, %d)" %
              (workload, a["attempted"], a["failed"]))

        ta, _, _ = drive(workload, SEED, 1)
        tb, _, _ = drive(workload, SEED, 1)
        layer = sorted(n for n in ta["metrics"]
                       if n.startswith(DETERMINISTIC_LAYER))
        diff = [n for n in layer if ta["metrics"][n] != tb["metrics"][n]]
        check(not diff, "%s: %d per-layer counts and sim.* repeat exactly%s" %
              (workload, len(layer), (" (differ: %s)" % diff) if diff else ""))
        check(ta["correct"] and tb["correct"],
              "%s: traced run reaches the untraced verdicts" % workload)

        c, det_c, fp_c = drive(workload, SEED + 1, 0)
        if workload == "serve-writes":
            check(fp_c != fp_a, "%s: another seed gives other lineorder "
                  "versions" % workload)
            check(det_c["first_queries"] != det_a["first_queries"],
                  "%s: another seed gives another query sequence" % workload)
        else:
            check(det_c["order0"] != det_a["order0"],
                  "%s: another seed gives another query order" % workload)

    print("selftest: %s" % ("passed" if not failures else
                            "%d check(s) failed" % len(failures)))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
