"""The benchmark tracer (perfbench/tracer.py) must stay installable.

It wraps package functions under the names their callers look them up by,
so deleting or renaming one of those names breaks only traced benchmark
runs. These tests import the tracer as the benchmark does and install it.
"""

import ast
import importlib
import inspect
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


def test_tracer_only_imports_are_marked(tracer):
    # An import kept only so that the tracer has a name to wrap says so on its
    # own line; the marked lines are the list of imports to drop once the
    # tracer wraps the batched boundaries instead.
    unmarked = []
    for owner, attr, _, _ in tracer._WRAPPED:
        if not inspect.ismodule(owner):
            continue
        source = inspect.getsource(owner)
        tree = ast.parse(source)
        used = any(isinstance(node, ast.Name) and node.id == attr for node in ast.walk(tree))
        imported = [alias for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names
                    if (alias.asname or alias.name) == attr]
        lines = source.splitlines()
        unmarked += [f"{owner.__name__}.{attr}" for alias in imported if not used
                     and "perfbench/tracer.py wraps" not in lines[alias.lineno - 1]]
    assert unmarked == []


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
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in tracer._WRAPPED]
    t = tracer.Tracer()
    t.install()
    try:
        training.train(params, config, dataset, cfg)
    finally:
        t.uninstall()
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in originals)
    unit = t.take()
    total, calls, _, _ = unit.totals()
    assert calls["training.train"] == 1
    # Training takes its losses from one stacked call per run of equal-shape
    # examples, which the tracer does not wrap, so losses.calls, losses.grad_s
    # and losses.penalty_texts read 0 (ROADMAP item 9's blind list).
    assert calls["losses.loss"] + calls["losses.grad"] == 0
    assert total["losses.grad"] == 0.0
    assert unit.counts["penalty_texts"] == 0
