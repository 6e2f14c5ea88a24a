import importlib
import inspect
from pathlib import Path

import seqcf

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_pools_match_their_references(monkeypatch):
    # every batch that a benchmark run at the default seed cycles through gives
    # the committed reference sum SEs, under the benchmark's own gate
    monkeypatch.syspath_prepend(str(BENCH))
    import gate
    import workloads

    problems = []
    for name, workload in workloads.WORKLOADS.items():
        pool = workloads.build_pool(workload, workloads.DEFAULT_SEED)
        reference = gate.load_reference(name)
        assert len(pool) == len(reference) == workloads.POOL_BATCHES
        for spec, ref in zip(pool, reference):
            problems += [f"{name}: {problem}"
                         for problem in gate.check_rows(spec, seqcf.run_experiment(spec), ref)]
    assert problems == []


def test_tracer_names_seqcf_functions(monkeypatch):
    # every traced name is a function defined in its seqcf module, so a
    # renamed or moved function fails here and not only in a traced bench run
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    missing = []
    for mod, names in tracer.LAYERS.items():
        module = importlib.import_module(f"seqcf.{mod}")
        missing += [f"{mod}.{name}" for name in names
                    if not (inspect.isfunction(fn := getattr(module, name, None))
                            and fn.__module__ == module.__name__)]
    assert missing == []
