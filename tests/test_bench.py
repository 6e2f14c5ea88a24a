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
