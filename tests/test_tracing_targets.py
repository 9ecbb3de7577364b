"""Guard for the benchmark tracer: every boundary it patches must exist.

``benchmarks/tracing.py`` wraps module attributes by name from outside the
package, so renaming or removing one of them only shows when a traced
benchmark run crashes. The tracer module is loaded read-only from its file.
"""

import importlib.util
from pathlib import Path

import numpy as np

from busarrival import gru, numkit, seq2seq
from conftest import make_example

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_boundary_resolves():
    tracing = load_tracing()
    targets = [t for _, owners in tracing.TRACED for t in owners]
    targets += [(seq2seq, "new_model"), (seq2seq, "load_model_json")]
    missing = [f"{owner.__name__}.{attr}" for owner, attr in targets
               if not callable(getattr(owner, attr, None))]
    assert missing == []
    for needed in ((seq2seq, "gru_forward"), (seq2seq, "gru_backward"),
                   (gru, "sigmoid"), (numkit, "sigmoid")):
        assert needed in targets


def test_traced_batch_step_attributes_each_chain(toy_norm):
    tracing = load_tracing()
    tracer = tracing.Tracer()
    with tracer.installed():
        model = seq2seq.new_model("edb", 3, 7, 8, np.random.default_rng(0),
                                  hidden_enc=3, hidden_dec=2, norm=toy_norm)
        rng = np.random.default_rng(1)
        seq2seq.model_backward(model, make_example(rng, 4, 8))
    counts = tracer.summary(0)
    for chain in tracing.CHAINS:
        assert counts[f"gru.gru_forward.{chain}.calls"] == 1
        assert counts[f"gru.gru_backward.{chain}.calls"] == 1
    assert counts["numkit.sigmoid.calls"] > 0
    assert seq2seq.gru_forward is gru.gru_forward
