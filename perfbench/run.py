#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds rtsyn, rtsynd and the layer
harness from source, runs one workload for S seconds from seed N, checks
the program's outputs, and prints one JSON object as the last line of
standard output: end-to-end metrics with --trace 0, per-layer metrics
with --trace 1.  See perfbench/README.md.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402

import corpus  # noqa: E402
import daemon_load  # noqa: E402
from common import (BUILD_DIR, JOBS, BenchError, build, emit, log, median, metric,  # noqa: E402
                    percentile, run_measured)

WORKLOADS = ("churn-1k", "plant-10k", "spec-corpus")

PER_LAYER_UNITS = {
    "service.ms": "ms", "wire.ms": "ms",
    "spec.ms": "ms", "spec.source_kb": "kB",
    "admission.ms": "ms", "canon.ms": "ms",
    "verify.ms": "ms", "verify.windows": "count",
    "solve.ms": "ms", "solve.component_solves": "count", "solve.component_reuses": "count",
    "certify.ms": "ms", "check.ms": "ms",
    "digest.ms": "ms", "digest.cert_kb": "kB",
    "journal.ms": "ms", "journal.record_kb": "kB",
    "path.warm": "count", "path.memo": "count", "path.synth": "count",
    "replay.ms_per_record": "ms",
    "process.ms": "ms",
    "synth.ms": "ms", "synth.hyperperiod": "count",
    "game.ms": "ms", "game.states": "count", "game.table_hits": "count",
    "game.dominance_kills": "count",
    "decompose.components": "count",
    "alloc.mb_per_op": "MB",
    "trace.coverage": "ratio", "trace.overhead_pct": "%",
}


def end_to_end(r):
    ms = [x * 1000.0 for x in r["samples"]]
    kinds = r["by_kind"]
    if "admit" in kinds:
        admit, whatif, retire = kinds["admit"], kinds["what-if"], kinds["retire"]
    else:
        # spec-corpus: synth answers and certifies, exact decides, and a
        # certificate re-check writes nothing and solves nothing.
        admit, whatif, retire = kinds["synth"], kinds["exact"], r["rechecks"]
    return {
        "setup_s": metric(r["setup_s"], "s"),
        "ops_s": metric(r["attempted"] / r["elapsed"], "1/s"),
        "p50_ms": metric(median(ms), "ms"),
        "tail_ms": metric(percentile(ms, r["tail"]), "ms"),
        "admit_p50_ms": metric(median(admit) * 1000.0, "ms"),
        "whatif_p50_ms": metric(median(whatif) * 1000.0, "ms"),
        "retire_p50_ms": metric(median(retire) * 1000.0, "ms"),
        "recover_s": metric(r["recover_s"], "s"),
        "rss_mb": metric(r["rss_mb"], "MB"),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    root = os.getcwd()
    # Everything the run and its children write stays in the checkout.
    tmp = os.path.join(root, BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    rtsyn, rtsynd, harness = (os.path.abspath(p) for p in build())
    log("# workload=%s seed=%d seconds=%g trace=%d jobs=%d nproc=%d"
        % (a.workload, a.seed, a.seconds, a.trace, JOBS, os.cpu_count()))
    if a.workload == "spec-corpus":
        r = corpus.run(a.seed, a.seconds, rtsyn, a.trace, harness, root)
    else:
        r = daemon_load.run(a.workload, a.seed, a.seconds, rtsynd, a.trace, harness, root)
    for e in r["errors"][:20]:
        log("CHECK FAILED: " + e)
    log("# attempted=%d failed=%d rounds=%d samples=%d tail=p%d"
        % (r["attempted"], r["failed"], r["rounds"], len(r["samples"]), r["tail"]))
    if a.trace:
        layers = r["layers"]
        if "process.ms" not in layers:
            layers["process.ms"] = median(
                [run_measured([rtsyn, "example"])[1] for _ in range(corpus.SETUP_LAUNCHES)]) * 1000.0
        missing = set(PER_LAYER_UNITS) - set(layers)
        if missing:
            raise BenchError("the traced run lacks " + ", ".join(sorted(missing)))
        metrics = {k: metric(layers[k], u) for k, u in PER_LAYER_UNITS.items()}
    else:
        metrics = end_to_end(r)
    emit(not r["errors"], r["attempted"], r["failed"], metrics)


if __name__ == "__main__":
    # A terminated run still stops the daemons it started (finally blocks).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        main()
    except BenchError as e:
        log("benchmark error: %s" % e)
        sys.exit(1)
