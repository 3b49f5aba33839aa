"""Runs the in-process layer harness (perfbench/harness) for a traced
run and reads back its per-layer figures."""

import json
import os
import shutil

from common import BenchError, run_measured


def run_harness(harness, args, workdir, spans_out, rest=()):
    """Run `layers ARGS... WORKDIR REST...`, keep the spans it wrote at
    [spans_out], and return its figures."""
    os.makedirs(workdir, exist_ok=True)
    rc, _, _, out, err = run_measured([harness] + args + [workdir] + list(rest), timeout=170)
    if rc != 0:
        raise BenchError("layer harness exited %d: %s" % (rc, err[-1000:]))
    shutil.copyfile(os.path.join(workdir, "spans.jsonl"), spans_out)
    return json.loads(out.strip().splitlines()[-1])
