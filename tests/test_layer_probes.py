"""The benchmark's layer probes name what the engine calls: every attribute
`perfbench/spans.py` lists in `PROBES` exists and is wrapped, a traced
search records one `engine.fitness` span per child (every variant but the
original, which the matrix measures), and restoring puts every attribute
back. Reads `perfbench/`, changes nothing there."""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def probed():
    """`(owner, attribute)` of each entry of `PROBES`, resolved as
    `install_layer_probes` resolves it."""
    pairs = []
    for module_name, attr, *_ in spans.PROBES:
        owner = importlib.import_module(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        pairs.append((owner, leaf))
    return pairs


def test_probes_wrap_every_layer_trace_each_child_and_restore():
    originals = [getattr(owner, leaf) for owner, leaf in probed()]
    workload = "genprog-wide"
    job = workloads.job_pool(workload)[0]
    targets = worker.load_targets(workload)
    tracer = spans.Tracer()
    spans.install_layer_probes(tracer)
    try:
        assert tracer.missing == []
        assert all(getattr(owner, leaf) is not fn for (owner, leaf), fn in zip(probed(), originals))
        record = worker.run_job(job, targets, workloads.load_pinned()[workload], tracer)
    finally:
        tracer.restore()
    assert record["problems"] == []
    children = [span for span in tracer.spans if span.name == "engine.fitness"]
    assert len(children) == record["variants"] - 1 > 0
    assert all(span.job == job.key for span in children)
    assert [getattr(owner, leaf) for owner, leaf in probed()] == originals
