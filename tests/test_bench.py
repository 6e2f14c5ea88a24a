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


def test_tracer_counts_each_chain_helper_once_per_computed_ap(monkeypatch):
    # the per-layer metrics book each chain helper's calls per AP step, so the
    # chain calls each helper once per AP it computes: a helper inlined into
    # run_chain would read 0 calls per drop without failing anything else
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    spec = seqcf.ExperimentSpec(
        base=seqcf.NetworkConfig(L=4, N=2, K=3, R_T=48.0), sweep="rate", values=(48.0,),
        strategies=tuple(seqcf.Strategy.parse(s) for s in (
            "sp-ef-eiu", "sp-log-wsinm", "tp-lf-scnm", "sp-ef-infinite")),
        trials=1, seed=0)
    with tracer.Tracer() as tr:
        seqcf.run_experiment(spec)
    # sp-ef-eiu computes 4 APs, sp-log-wsinm the 3 after its dead first link,
    # tp-lf-scnm 2 on each arc, and the centralized chain none
    helpers = ("gain", "propagate_combiners", "update_pre_compression_corr", "update_error_cov")
    assert {h: tr.calls[f"chain.{h}"] for h in helpers} == dict.fromkeys(helpers, 4 + 3 + 2 + 2)
    # the rate gate read every design outcome's rate, and the BCD iterations
    # of each WSINM outcome, one per AP that sp-log-wsinm computes
    assert tr.rate_violations == 0
    assert len(tr.bcd_iters) == 3
