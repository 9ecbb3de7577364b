"""Verify the hand-derived backprop against central finite differences.

Every gradient in this package is derived by hand (cell level and full
model); the finite-difference oracle is the independent check. This script
prints the worst relative error per configuration.
"""

import numpy as np

from busarrival.dataprep import NormStats, TrainingExample
from busarrival.gru import gru_backward, gru_forward, init_gru
from busarrival.numkit import (finite_diff_grad, flatten_params, make_rng,
                               write_flat_params)
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
        prev_trip_ids=np.zeros(k, dtype=np.int64), pw_trip_id=2,
        fallback_mask=np.zeros(k, dtype=bool))


print("GRU chain, T=6 steps, batch of 3 (loss = sum of ||h_t||^2 / 2)")
for hidden, inp in [(1, 1), (4, 3), (8, 5)]:
    rng = make_rng(hidden * 10 + inp)
    p = init_gru(rng, hidden, inp)
    h0, xs = rng.normal(size=(hidden, 3)), rng.normal(size=(6, inp, 3))
    states, cache = gru_forward(p, h0, xs)
    grads, _, _ = gru_backward(p, cache, states)
    params = p.as_dict()
    vec, layout = flatten_params(params)

    def f(v):
        write_flat_params(params, v, layout)
        hs, _ = gru_forward(p, h0, xs)
        return 0.5 * float(np.sum(hs * hs))

    fd = finite_diff_grad(f, vec.copy())
    write_flat_params(params, vec, layout)
    analytic, _ = flatten_params(grads.as_dict())
    rel = np.max(np.abs(analytic - fd) / np.maximum(1.0, np.abs(fd)))
    print(f"  hidden={hidden} input={inp}: {vec.size:4d} params, "
          f"max rel err {rel:.2e}")

print("\nfull model (training loss, every parameter)")
for kind in ("edu", "edb"):
    rng = make_rng(99)
    model = new_model(kind, 3, 7, 8, rng, hidden_enc=6, hidden_dec=5,
                      norm=norm)
    ex = random_example(rng, m=4, n_sections=8)
    _, grads = model_backward(model, ex)
    params = model.params()
    vec, layout = flatten_params(params)

    def floss(v):
        write_flat_params(params, v, layout)
        return model_loss(model, ex)

    fd = finite_diff_grad(floss, vec.copy())
    write_flat_params(params, vec, layout)
    analytic, _ = flatten_params(grads)
    rel = np.max(np.abs(analytic - fd) / np.maximum(1.0, np.abs(fd)))
    print(f"  {kind}: {vec.size:5d} params, max rel err {rel:.2e}")
