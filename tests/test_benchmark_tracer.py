"""The benchmark tracer (perfbench/tracer.py) must stay installable.

It wraps package functions under the names their callers look them up by,
so deleting or renaming one of those names breaks only traced benchmark
runs. These tests import the tracer as the benchmark does and install it.
"""

import importlib
from pathlib import Path

import pytest

from retrieval_lab import training
from retrieval_lab.losses import LossConfig

from test_training import tiny_dataset, tiny_encoder

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracer")


def test_every_wrapped_name_is_bound(tracer):
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _, _ in tracer._WRAPPED
               if attr not in owner.__dict__]
    assert missing == []


def test_install_then_uninstall_restores_originals(tracer):
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in tracer._WRAPPED]
    t = tracer.Tracer()
    t.install()
    try:
        assert all(owner.__dict__[attr] is not fn for owner, attr, fn in originals)
    finally:
        t.uninstall()
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in originals)


def test_traced_clp_training_counts_penalty_texts(tracer):
    params, config = tiny_encoder()
    dataset = tiny_dataset(n=4)
    for ex in dataset:  # 1, 2 or 3 own queries per negative
        ex.neg_queries = [qs * (1 + j % 3) for j, qs in enumerate(ex.neg_queries)]
    cfg = training.TrainConfig(learning_rate=1e-3, epochs=1, loss="clp",
                               loss_cfg=LossConfig(lam=0.3), seed=1)
    t = tracer.Tracer()
    t.install()
    try:
        training.train(params, config, dataset, cfg)
    finally:
        t.uninstall()
    unit = t.take()
    _, calls, _, _ = unit.totals()
    assert calls["losses.loss"] == calls["losses.grad"] == len(dataset)
    assert unit.counts["penalty_texts"] == sum(len(qs) for ex in dataset
                                               for qs in ex.neg_queries)
