"""The benchmark's span tracer still finds the library names it patches.

``perfbench/tracer.py`` wraps martonlab functions and evaluator methods by
name: the functions ``generate_codebook``, ``encode``, ``decode_rows``,
``decode_cols`` and ``decode_pgm`` of ``martonlab.coding``, the method
``Codebook.indicator``, ``alpha_beta`` of ``ClassicalSetEvaluator``,
``ClassicalThresholdEvaluator`` and ``QuantumPairEvaluator`` (each class's
own), ``SeededRng.__init__``, ``random`` and ``choice_index``, and the
public functions of the other layers.  It reads ``fx`` of the evaluators,
``n_rows`` / ``n_cols`` of the codebooks ``generate_codebook`` returns,
``.rows`` / ``.cols`` of the first argument of ``decode_rows`` /
``decode_cols`` and ``.matched`` of what they return: the indices of the
matched words, which for a block of received words hold the matches of
every trial, trial by trial, so one call counts the words it scored once
however many trials it decodes.  A removed name makes
``Tracer.install`` raise; a name that stays but is no longer called leaves
its counters at zero without an error, so each kind of run here must move
the counters of its layer.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from martonlab import cli, experiments
from martonlab.coding import RateParams
from test_experiments import (
    DSBS_45,
    bsc_pair_channel,
    desk_params,
    independent_design,
    pair_design,
    qubit_cq_channel,
)

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def small_params(channel, design, n=1):
    achieved = experiments.Scheme(channel, design, 0.05, 0.25, n=n).achieved
    return RateParams(R1=1, R2=1, r1=2, r2=2, eps_tilde=1 / 8, eps0=0.05,
                      eps_infty=0.25, **achieved)


def desk_simulate(tmp_path, **extra):
    channel = tmp_path / "channel.json"
    design = tmp_path / "design.json"
    channel.write_text(json.dumps(bsc_pair_channel(0.1, 0.1).to_json()))
    design.write_text(json.dumps(pair_design(DSBS_45).to_json()))
    config = tmp_path / "sim.json"
    config.write_text(json.dumps({
        "channel": str(channel), "design": str(design), "eps": 1.0, "eps0": 0.1,
        "eps_tilde": 0.125, "eps_infty": 0.25, "rates": [1, 1], "bands": [2, 2],
        "trials": 10, "seed": 3, "n": 1, "mode": "free", **extra}))
    code = cli.main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")])
    assert code == 0


def test_tracer_counts_every_layer(tracer_module, tmp_path, capsys):
    qubit, indep = qubit_cq_channel(), independent_design()
    block = bsc_pair_channel(0.05, 0.05)
    runs = [
        ("desk", lambda: experiments.run_experiment(
            bsc_pair_channel(0.1, 0.1), pair_design(DSBS_45), desk_params(), 20, seed=1),
         "coding.decode_calls"),
        ("n=4", lambda: experiments.run_experiment(
            block, indep, small_params(block, indep, 4), 20, seed=2, n=4),
         "coding.decode_calls"),
        ("qubit", lambda: experiments.run_experiment(
            qubit, indep, small_params(qubit, indep), 20, seed=3),
         "coding.pgm_calls"),
        ("simulate", lambda: desk_simulate(tmp_path), "coding.decode_calls"),
        # a fixed codebook is drawn by generate_codebook, which the tracer
        # counts through the codebook's n_rows and n_cols
        ("simulate fixed", lambda: desk_simulate(tmp_path, resample_codebook=False),
         "coding.codebooks"),
    ]
    original = experiments.run_experiment
    tr = tracer_module.Tracer()
    tr.install()
    try:
        for label, run, decode_counter in runs:
            before = dict(tr.counters)
            # a run's divergences are those of its Scheme: each run builds
            # its own, so that a Scheme shared with an earlier run leaves no
            # layer untouched
            experiments._shared_scheme.cache_clear()
            tr.begin_op()
            run()
            for counter in ("coding.alpha_beta_calls", decode_counter, "divergences.calls"):
                assert tr.counters[counter] > before[counter], (label, counter)
    finally:
        tr.uninstall()
    assert experiments.run_experiment is original
    assert tr.metrics()["coding.alpha_beta_s"][0] > 0.0
