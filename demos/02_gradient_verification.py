"""Verify the hand-derived backprop against central finite differences.

Every gradient in this package is derived by hand (cell level and full
model); the finite-difference oracle is the independent check. This script
prints the worst relative error per configuration.
"""

import numpy as np

from busarrival.dataprep import NormStats, TrainingExample
from busarrival.gru import gru_backward, gru_forward, init_gru
from busarrival.numkit import finite_diff_grad, make_rng
from busarrival.seq2seq import model_backward, model_loss, new_model

norm = NormStats(travel_mean=130.0, travel_std=40.0, tod_min=0.0,
                 tod_max=86400.0)


def random_example(rng, m, n_sections):
    k = n_sections - m
    return TrainingExample(
        m=m, t_c=float(rng.uniform(30000, 40000)), day_index=8, trip_id=1,
        enc=rng.uniform(60, 200, (m, 2)),
        dec=np.column_stack([rng.uniform(60, 200, k), rng.uniform(60, 200, k),
                             rng.uniform(25000, 35000, k),
                             rng.uniform(25000, 35000, k)]),
        targets=rng.uniform(60, 200, k),
        prev_trip_ids=np.zeros(k, dtype=np.int64), pw_trip_id=2)


print("GRU chain, T=6 steps, batch of 3 (loss = sum of ||h_t||^2 / 2)")
for hidden, inp in [(1, 1), (4, 3), (8, 5)]:
    rng = make_rng(hidden * 10 + inp)
    p = init_gru(rng, hidden, inp)
    h0, xs = rng.normal(size=(hidden, 3)), rng.normal(size=(6, inp, 3))
    states, cache = gru_forward(p, h0, xs)
    grads, _, _ = gru_backward(p, cache, states)
    # finite_diff_grad perturbs p.theta in place, which the chain reads
    fd = finite_diff_grad(
        lambda _: 0.5 * float(np.sum(gru_forward(p, h0, xs)[0] ** 2)), p.theta)
    rel = np.max(np.abs(grads.theta - fd) / np.maximum(1.0, np.abs(fd)))
    print(f"  hidden={hidden} input={inp}: {p.theta.size:4d} params, "
          f"max rel err {rel:.2e}")

print("\nfull model (training loss, every parameter)")
for kind in ("edu", "edb"):
    rng = make_rng(99)
    model = new_model(kind, 3, 7, 8, rng, hidden_enc=6, hidden_dec=5,
                      norm=norm)
    ex = random_example(rng, m=4, n_sections=8)
    _, grad = model_backward(model, ex)
    fd = finite_diff_grad(lambda _: model_loss(model, ex), model.theta)
    rel = np.max(np.abs(grad - fd) / np.maximum(1.0, np.abs(fd)))
    print(f"  {kind}: {model.theta.size:5d} params, max rel err {rel:.2e}")
