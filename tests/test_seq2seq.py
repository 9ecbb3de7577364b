import json
import pickle
import re
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from busarrival import seq2seq
from busarrival.dataprep import DataError, NormStats
from busarrival.gru import gru_forward
from busarrival.numkit import adam_step, finite_diff_grad, init_adam, make_rng
from busarrival.seq2seq import (CoverageError, EdModel, ModelBank,
                                NonFiniteGradientError, NonFiniteLossError,
                                TrainConfig, bank_layout, load_bank, load_model_json, mean_loss,
                                model_backward, model_loss, new_model, predict,
                                predict_example, save_bank, save_model_json,
                                train_bank, train_model)
from conftest import (bi_hidden_for_parity, decoder_param_count, denorm_tod,
                      make_example)

# the format-2 checkpoint test_format_2_bytes_are_stable saves
GOLDEN_CHECKPOINT = Path(__file__).parent / "data" / "edb_bank_03_04.json"


def zero_model(kind, m_lo, m_hi, n_sections, norm, hidden_enc=4, hidden_dec=3):
    model = new_model(kind, m_lo, m_hi, n_sections, make_rng(0),
                      hidden_enc=hidden_enc, hidden_dec=hidden_dec, norm=norm)
    for v in model.params().values():
        v[...] = 0.0
    return model


def zero_bank(kind, n_sections, norm):
    models = [zero_model(kind, lo, hi, n_sections, norm)
              for lo, hi in bank_layout(n_sections)]
    return ModelBank(kind=kind, n_sections=n_sections, models=models)


class TestBankLayout:
    def test_route_34_has_six_banks_with_wide_tail(self):
        assert bank_layout(34) == [(3, 7), (8, 12), (13, 17), (18, 22),
                                   (23, 27), (28, 33)]

    def test_small_routes(self):
        assert bank_layout(8) == [(3, 7)]
        assert bank_layout(6) == [(3, 5)]
        assert bank_layout(4) == [(3, 3)]

    def test_contiguous_cover(self):
        for n_s in range(4, 60):
            banks = bank_layout(n_s)
            assert banks[0][0] == 3 and banks[-1][1] == n_s - 1
            for (a, b), (c, d) in zip(banks, banks[1:]):
                assert c == b + 1


def step(params, h, u):
    """One GRU step on vectors, run as a T = 1, B = 1 chain."""
    states, _ = gru_forward(params, h[:, None], u[None, :, None])
    return states[0, :, 0]


def context(model, ex):
    """The context e_a the forward pass builds for one example."""
    _, (e_a, *_) = seq2seq._forward(model, seq2seq.stack_block(model, [ex]))
    return e_a[:, 0]


class TestEncode:
    def test_zero_weights_collapse(self, toy_norm):
        model = zero_model("edu", 3, 7, 10, toy_norm)
        rng = make_rng(1)
        for m in (3, 5, 7):
            ex = replace(make_example(rng, m, 10), t_c=30000.0)
            e_a = context(model, ex)
            npt.assert_array_equal(e_a[:4], np.zeros(4))
            onehot = e_a[4:9]
            assert onehot[m - 3] == 1.0 and onehot.sum() == 1.0
            assert e_a[9] == toy_norm.norm_tod(30000.0)

    def test_onehot_at_bank_start(self, toy_norm):
        model = zero_model("edu", 3, 7, 10, toy_norm)
        ex = replace(make_example(make_rng(1), 3, 10), enc=np.full((3, 2), 100.0))
        npt.assert_array_equal(context(model, ex)[4:9], [1.0, 0.0, 0.0, 0.0, 0.0])

    def test_matches_manual_unroll(self, toy_norm):
        rng = make_rng(2)
        model = new_model("edu", 3, 7, 10, rng, hidden_enc=4, hidden_dec=3,
                          norm=toy_norm)
        m = 5
        ex = replace(make_example(rng, m, 10), t_c=31000.0)
        e_a = context(model, ex)
        h = np.zeros(4)
        for j in range(m):  # rows already ordered section m .. 1
            h = step(model.enc, h, toy_norm.norm_travel(ex.enc[j]))
        onehot = np.zeros(5)
        onehot[m - 3] = 1.0
        expect = np.concatenate([h, onehot, [toy_norm.norm_tod(ex.t_c)]])
        npt.assert_allclose(e_a, expect, atol=1e-15)

    def test_m_outside_bank_is_usage_error(self, toy_norm):
        model = zero_model("edu", 3, 7, 10, toy_norm)
        with pytest.raises(CoverageError):
            predict_example(model, make_example(make_rng(1), 8, 10))

    def test_length_mismatch_is_structural_error(self, toy_norm):
        model = zero_model("edu", 3, 7, 10, toy_norm)
        ex = make_example(make_rng(1), 5, 10)
        for bad in (replace(ex, enc=np.full((4, 2), 100.0)),
                    replace(ex, dec=ex.dec[:, :3]),
                    replace(ex, targets=ex.targets[:-1])):
            with pytest.raises(ValueError, match="encoder sequence"):
                predict_example(model, bad)


class TestDecodeUni:
    def test_zero_weights_predict_training_mean(self, toy_norm):
        model = zero_model("edu", 3, 7, 10, toy_norm)
        rng = make_rng(3)
        ex = make_example(rng, 4, 10)
        preds = predict_example(model, ex)
        npt.assert_allclose(preds, toy_norm.travel_mean, atol=1e-12)

    def test_prefix_property(self, toy_norm):
        rng = make_rng(4)
        model = new_model("edu", 3, 7, 10, rng, hidden_enc=4, hidden_dec=3,
                          norm=toy_norm)
        ex = make_example(rng, 4, 10)
        full = predict_example(model, ex)
        for k in range(1, ex.k + 1):
            head = predict_example(model, replace(ex, dec=ex.dec[:k],
                                                  targets=ex.targets[:k]))
            npt.assert_array_equal(head, full[:k])

    def test_matches_manual_unroll(self, toy_norm):
        rng = make_rng(5)
        model = new_model("edu", 3, 7, 8, rng, hidden_enc=4, hidden_dec=3,
                          norm=toy_norm)
        ex = make_example(rng, 5, 8)  # K = 3
        e_a = context(model, ex)
        got = predict_example(model, ex)
        dec_n = np.column_stack([
            toy_norm.norm_travel(ex.dec[:, 0]),
            toy_norm.norm_travel(ex.dec[:, 1]),
            toy_norm.norm_tod(ex.dec[:, 2]),
            toy_norm.norm_tod(ex.dec[:, 3])])
        h = np.tanh(model.w_embed @ e_a)
        expect = []
        for i in range(3):
            u = np.concatenate([dec_n[i], e_a])
            h = step(model.dec_fwd, h, u)
            expect.append(toy_norm.denorm_travel(model.w_out @ h))
        npt.assert_allclose(got, expect, atol=1e-12)

    def test_empty_decode_is_usage_error(self, toy_norm):
        model = zero_model("edu", 3, 7, 10, toy_norm)
        ex = replace(make_example(make_rng(1), 4, 10), dec=np.zeros((0, 4)),
                     targets=np.zeros(0))
        with pytest.raises(ValueError, match="at least one step"):
            predict_example(model, ex)


class TestDecodeBi:
    def test_zero_weights_predict_training_mean(self, toy_norm):
        model = zero_model("edb", 3, 7, 10, toy_norm)
        ex = make_example(make_rng(6), 5, 10)
        npt.assert_allclose(predict_example(model, ex), toy_norm.travel_mean,
                            atol=1e-12)

    def test_k1_concatenates_both_chains(self, toy_norm):
        rng = make_rng(7)
        model = new_model("edb", 3, 7, 8, rng, hidden_enc=4, hidden_dec=3,
                          norm=toy_norm)
        ex = make_example(rng, 7, 8)  # K = 1
        e_a = context(model, ex)
        got = predict_example(model, ex)
        dec_n = np.concatenate([
            toy_norm.norm_travel(ex.dec[0, :2]),
            toy_norm.norm_tod(ex.dec[0, 2:])])
        u1 = np.concatenate([dec_n, e_a])
        h0 = np.tanh(model.w_embed @ e_a)
        hf = step(model.dec_fwd, h0, u1)
        hb = step(model.dec_bwd, h0, u1)
        expect = toy_norm.denorm_travel(model.w_out @ np.concatenate([hf, hb]))
        npt.assert_allclose(got, [expect], atol=1e-12)

    def test_anticausal_sensitivity(self, toy_norm):
        """Perturbing the last decoder input moves the first prediction for
        the bidirectional decoder and provably not for the unidirectional."""
        rng = make_rng(8)
        ex = make_example(rng, 4, 10)  # K = 6
        h = 1e-4
        for kind, expect_nonzero in (("edu", False), ("edb", True)):
            model = new_model(kind, 3, 7, 10, make_rng(9), hidden_enc=5,
                              hidden_dec=4, norm=toy_norm)
            base = predict_example(model, ex)
            derivs = []
            for col in range(4):
                bumped = ex.dec.copy()
                bumped[-1, col] += h
                ex2 = _with_dec(ex, bumped)
                bumped2 = ex.dec.copy()
                bumped2[-1, col] -= h
                ex3 = _with_dec(ex, bumped2)
                d = (predict_example(model, ex2)[0]
                     - predict_example(model, ex3)[0]) / (2 * h)
                derivs.append(d)
            if expect_nonzero:
                assert max(abs(d) for d in derivs) > 1e-8
            else:
                assert all(d == 0.0 for d in derivs)
                bumped = ex.dec.copy()
                bumped[-1, :] += 1000.0
                npt.assert_array_equal(predict_example(model, _with_dec(ex, bumped))[0],
                                       base[0])


class TestBatchedForward:
    @pytest.mark.parametrize("kind", ["edu", "edb"])
    @pytest.mark.parametrize("wide_bank", [False, True])
    def test_batch_equals_per_example(self, kind, wide_bank, toy_norm):
        rng = make_rng(31)
        model = new_model(kind, 3, 9 if wide_bank else 7, 10, rng, hidden_enc=5,
                          hidden_dec=4, norm=toy_norm)
        for p in model.params().values():
            p[...] = rng.uniform(-0.5, 0.5, p.shape)
        exs = [make_example(rng, 6, 10, trip_id=i) for i in range(7)]
        blk = seq2seq.stack_block(model, exs)
        y, _ = seq2seq._forward(model, blk)
        targets_n = blk.targets
        assert y.shape == (4, 7)
        for b, ex in enumerate(exs):
            npt.assert_allclose(toy_norm.denorm_travel(y[:, b]),
                                predict_example(model, ex), rtol=0, atol=1e-12)
            npt.assert_array_equal(targets_n[:, b],
                                   toy_norm.norm_travel(ex.targets))


def _with_dec(ex, dec):
    return replace(ex, dec=dec)


class TestLoss:
    def test_exact_cases(self, toy_norm):
        # a zero-weight model predicts the travel mean, 0 once normalized
        model = zero_model("edu", 3, 7, 8, toy_norm)
        ex = make_example(make_rng(10), 4, 8)
        ex.targets[:] = toy_norm.travel_mean
        assert model_loss(model, ex) == 0.0
        ex.targets[:] = toy_norm.travel_mean + toy_norm.travel_std * np.array(
            [1.0, -1.0, -1.0, 1.0])
        assert model_loss(model, ex) == 1.0

    def test_matches_brute_force(self, toy_norm):
        rng = make_rng(10)
        model = new_model("edb", 3, 7, 9, rng, hidden_enc=4, hidden_dec=3,
                          norm=toy_norm)
        ex = make_example(rng, 5, 9)
        blk = seq2seq.stack_block(model, [ex])
        y, _ = seq2seq._forward(model, blk, keep_cache=False)
        p, t = y[:, 0], blk.targets[:, 0]
        assert abs(model_loss(model, ex)
                   - sum((a - b) ** 2 for a, b in zip(p, t)) / 4) < 1e-15

    def test_mean_loss_is_mean_of_example_losses(self, toy_norm):
        # two m groups, one of 150 columns: one forward-only pass per block
        rng = make_rng(12)
        model = new_model("edb", 3, 7, 10, rng, hidden_enc=4, hidden_dec=3,
                          norm=toy_norm)
        exs = [make_example(rng, m, 10, trip_id=i)
               for i, m in enumerate([4] * 150 + [6] * 3)]
        want = np.mean([model_loss(model, ex) for ex in exs])
        got = mean_loss(model, seq2seq.stack_blocks(model, exs))
        assert abs(got - want) <= 1e-12 * want


class TestModelBackward:
    def test_zero_gradients_when_targets_match(self, toy_norm):
        model = zero_model("edu", 3, 7, 10, toy_norm)
        rng = make_rng(11)
        ex = make_example(rng, 4, 10)
        ex.targets[:] = toy_norm.travel_mean  # zero-weight model's prediction
        l, grad = model_backward(model, ex)
        assert l == 0.0
        npt.assert_array_equal(grad, np.zeros_like(model.theta))

    @pytest.mark.parametrize("kind,n_s,m,hidden", [("edu", 5, 3, 4),
                                                   ("edb", 6, 3, 3)])
    def test_gradients_match_finite_differences(self, kind, n_s, m, hidden,
                                                toy_norm):
        rng = make_rng(12)
        model = new_model(kind, 3, n_s - 1, n_s, rng, hidden_enc=hidden,
                          hidden_dec=hidden, norm=toy_norm)
        ex = make_example(rng, m, n_s)
        _, grad = model_backward(model, ex)
        fd = finite_diff_grad(lambda _: model_loss(model, ex), model.theta)
        rel = np.abs(grad - fd) / np.maximum(1.0, np.abs(fd))
        assert np.max(rel) < 1e-4

    def test_batch_equals_mean_of_examples(self, toy_norm):
        rng = make_rng(13)
        model = new_model("edb", 3, 7, 9, rng, hidden_enc=4, hidden_dec=3,
                          norm=toy_norm)
        exs = [make_example(rng, 5, 9, trip_id=i) for i in range(4)]
        batch_loss, batch_grad = seq2seq._batch_step(
            model, seq2seq.stack_block(model, exs))
        singles = [model_backward(model, ex) for ex in exs]
        npt.assert_allclose(batch_loss,
                            np.mean([s[0] for s in singles]), atol=1e-12)
        npt.assert_allclose(batch_grad, np.mean([s[1] for s in singles], axis=0),
                            atol=1e-12)

    def test_mixed_m_batch_rejected(self, toy_norm):
        model = zero_model("edu", 3, 7, 9, toy_norm)
        rng = make_rng(14)
        with pytest.raises(ValueError):
            seq2seq._batch_step(model, seq2seq.stack_block(
                model, [make_example(rng, 4, 9), make_example(rng, 5, 9)]))


def reference_adam(params, grads, steps, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Oracle: Adam with its moments kept per named parameter array."""
    m = {k: np.zeros_like(v) for k, v in params.items()}
    v2 = {k: np.zeros_like(v) for k, v in params.items()}
    for t in range(1, steps + 1):
        for k, p in params.items():
            g = grads[t - 1][k]
            m[k] = b1 * m[k] + (1.0 - b1) * g
            v2[k] = b2 * v2[k] + (1.0 - b2) * g * g
            mhat = m[k] / (1.0 - b1 ** t)
            vhat = v2[k] / (1.0 - b2 ** t)
            p -= lr * mhat / (np.sqrt(vhat) + eps)


def offsets_in_theta(model):
    """Element offset of each params() array within ``model.theta``."""
    base = model.theta.__array_interface__["data"][0]
    return [(p.__array_interface__["data"][0] - base) // p.itemsize
            for p in model.params().values()]


@pytest.mark.parametrize("kind", ["edu", "edb"])
@pytest.mark.parametrize("wide_bank", [False, True])
class TestFlatLayout:
    # a wide bank is bank_layout(10)'s one bank, 3-9, wider than BANK_WIDTH
    # as the last bank of a route is when the positions do not divide evenly
    def model(self, kind, wide_bank, norm):
        return new_model(kind, 3, 9 if wide_bank else 7, 10, make_rng(40),
                         hidden_enc=5, hidden_dec=4, norm=norm)

    def test_params_are_views_of_theta_in_order(self, kind, wide_bank, tmp_path,
                                                toy_norm):
        model = self.model(kind, wide_bank, toy_norm)
        save_model_json(model, tmp_path / "m.json")
        for mo in (model, load_model_json(tmp_path / "m.json"),
                   pickle.loads(pickle.dumps(model))):
            params = list(mo.params().values())
            assert all(p.flags.c_contiguous and np.shares_memory(p, mo.theta)
                       for p in params)
            sizes = [p.size for p in params]
            assert offsets_in_theta(mo) == [0, *np.cumsum(sizes)[:-1]]
            assert sum(sizes) == mo.theta.size
            npt.assert_array_equal(mo.theta, model.theta)

    def test_param_name_at_first_and_last_element(self, kind, wide_bank, toy_norm):
        model = self.model(kind, wide_bank, toy_norm)
        params = model.params()
        for (name, p), off in zip(params.items(), offsets_in_theta(model)):
            assert model.param_name(off) == name
            assert model.param_name(off + p.size - 1) == name
        assert len(params) == {"edu": 14, "edb": 20}[kind]

    def test_flat_adam_matches_per_parameter_reference(self, kind, wide_bank,
                                                       toy_norm):
        model = self.model(kind, wide_bank, toy_norm)
        ref = {k: v.copy() for k, v in model.params().items()}
        rng = make_rng(41)
        flat_grads = [rng.normal(scale=rng.uniform(1e-3, 10.0), size=model.theta.size)
                      for _ in range(50)]
        sizes = [p.size for p in ref.values()]
        grads = [{k: part.reshape(ref[k].shape) for k, part
                  in zip(ref, np.split(g, np.cumsum(sizes)[:-1]))}
                 for g in flat_grads]
        state = init_adam(model.theta, lr=3e-3)
        for g in flat_grads:
            adam_step(model.theta, g, state)
        reference_adam(ref, grads, 50, lr=3e-3)
        for k, v in model.params().items():
            assert v.tobytes() == ref[k].tobytes(), k


class TestParameterParity:
    def test_default_sizes_within_ten_percent(self, toy_norm):
        for m_lo, m_hi in ((3, 7), (28, 33)):
            rng = make_rng(0)
            edu = new_model("edu", m_lo, m_hi, 34, rng, norm=toy_norm)
            edb = new_model("edb", m_lo, m_hi, 34, rng, norm=toy_norm)
            n_edu = decoder_param_count(edu)
            n_edb = decoder_param_count(edb)
            assert n_edb <= n_edu
            assert n_edb >= 0.9 * n_edu

    def test_parity_helper_matches_default(self):
        assert bi_hidden_for_parity() == seq2seq.DEFAULT_HIDDEN_DEC["edb"]


class TestNormalizationContract:
    def test_round_trip(self):
        norm = NormStats(123.4, 56.7, 100.0, 86000.0)
        x = make_rng(15).uniform(10, 500, 64)
        npt.assert_allclose(norm.denorm_travel(norm.norm_travel(x)), x,
                            atol=1e-9)
        t = make_rng(16).uniform(0, 86400, 64)
        npt.assert_allclose(denorm_tod(norm, norm.norm_tod(t)), t, atol=1e-9)


class TestTraining:
    def test_overfit_single_example(self, toy_norm):
        for kind in ("edu", "edb"):
            rng = make_rng(17)
            ex = make_example(rng, 4, 8)
            cfg = TrainConfig(max_epochs=500, lr=5e-3, hidden_enc=8,
                              hidden_dec_edu=8, hidden_dec_edb=6, seed=1)
            result = train_bank(kind, [ex], 8, cfg)
            model = result.bank.model_for(4)
            assert model_loss(model, ex) < 1e-3

    def test_split_week_sets_aside_the_newest_of_several_weeks(self, monkeypatch):
        rng = make_rng(19)
        exs = [make_example(rng, 4, 8, day_index=d) for d in (8, 15, 16, 9)]
        assert seq2seq.split_week(ex.week for ex in exs) == 2
        assert seq2seq.split_week([exs[0].week]) is None
        # the training and validation examples each bank trains on
        splits = []
        monkeypatch.setattr(seq2seq, "train_model", lambda model, train, val, cfg,
                            rng: splits.append((train, val)) or [])
        cfg = TrainConfig(max_epochs=1, hidden_enc=4, hidden_dec_edu=3)
        train_bank("edu", exs, 8, cfg)
        train_bank("edu", exs[:1], 8, cfg)
        (train, val), lone = splits
        assert [ex.day_index for ex in train] == [8, 9]
        assert [ex.day_index for ex in val] == [15, 16]
        assert lone == (exs[:1], [])

    def test_training_is_deterministic(self, toy_norm):
        rng = make_rng(18)
        exs = [make_example(rng, m, 8, day_index=7 + i % 3, trip_id=i)
               for i, m in enumerate([3, 4, 5, 6, 7] * 8)]
        cfg = TrainConfig(max_epochs=4, hidden_enc=6, hidden_dec_edu=5, seed=9)
        r1 = train_bank("edu", exs, 8, cfg)
        r2 = train_bank("edu", exs, 8, cfg)
        for m1, m2 in zip(r1.bank.models, r2.bank.models):
            for k, v in m1.params().items():
                npt.assert_array_equal(v, m2.params()[k])
        assert r1.histories == r2.histories

    def test_early_stopping_restores_best(self, toy_norm):
        rng = make_rng(19)
        train_ex = make_example(rng, 4, 8, trip_id=1)
        val_ex = make_example(rng, 4, 8, trip_id=2)
        # same inputs, opposite targets: fitting train strictly hurts val
        val_ex.enc = train_ex.enc.copy()
        val_ex.dec = train_ex.dec.copy()
        val_ex.t_c = train_ex.t_c
        val_ex.targets = 2 * toy_norm.travel_mean - train_ex.targets
        model = new_model("edu", 3, 7, 8, make_rng(20), hidden_enc=6,
                          hidden_dec=5, norm=toy_norm)
        cfg = TrainConfig(max_epochs=200, patience=4, lr=5e-3)
        history = train_model(model, [train_ex], [val_ex], cfg, make_rng(21))
        assert len(history) < 200
        vals = [h["val_loss"] for h in history]
        assert mean_loss(model, seq2seq.stack_blocks(model, [val_ex])) == min(vals)

    def test_grad_norm_is_mean_batch_gradient_norm(self, toy_norm):
        model = new_model("edb", 3, 7, 8, make_rng(33), hidden_enc=4,
                          hidden_dec=3, norm=toy_norm)
        rng = make_rng(34)
        exs = [make_example(rng, 5, 8, trip_id=i) for i in range(3)]
        want = np.linalg.norm(
            seq2seq._batch_step(model, seq2seq.stack_block(model, exs))[1])
        history = train_model(model, exs, [], TrainConfig(max_epochs=2),
                              make_rng(0))           # one batch per epoch
        assert abs(history[0]["grad_norm"] - want) <= 1e-12 * want
        assert history[1]["grad_norm"] != history[0]["grad_norm"]

    def test_grad_norm_averages_the_epoch_batches(self, toy_norm, monkeypatch):
        norms = []
        batch_step = seq2seq._batch_step

        def recording(model, blk):
            out = batch_step(model, blk)
            norms.append(np.linalg.norm(out[1]))
            return out

        monkeypatch.setattr(seq2seq, "_batch_step", recording)
        model = new_model("edu", 3, 7, 8, make_rng(33), hidden_enc=4,
                          hidden_dec=3, norm=toy_norm)
        rng = make_rng(34)
        exs = [make_example(rng, m, 8, trip_id=i) for i, m in enumerate((3, 5, 5))]
        history = train_model(model, exs, [], TrainConfig(batch_size=1, max_epochs=2),
                              make_rng(0))
        assert len(norms) == 6 and len(set(norms)) == 6
        for epoch, entry in enumerate(history):
            assert entry["grad_norm"] == sum(norms[3 * epoch:3 * epoch + 3]) / 3

    @staticmethod
    def check_pool_matches_serial(tmp_path, pool):
        rng = make_rng(35)
        exs = [make_example(rng, m, 13, day_index=7 * (i % 3) + 1, trip_id=i)
               for i, m in enumerate(list(range(3, 13)) * 3)]
        cfg = TrainConfig(max_epochs=3, hidden_enc=4, hidden_dec_edu=3,
                          hidden_dec_edb=2, seed=4)
        with pool:
            pooled = train_bank("edb", exs, 13, cfg, pool=pool)
        serial = train_bank("edb", exs, 13, cfg, pool=None)
        for result, sub in ((pooled, "pool"), (serial, "serial")):
            for model in result.bank.models:
                assert all(np.shares_memory(p, model.theta)
                           for p in model.params().values())
            (tmp_path / sub).mkdir()
            save_bank(result.bank, tmp_path / sub)
        names = sorted(p.name for p in (tmp_path / "serial").iterdir())
        assert len(names) == 2
        for name in names:
            assert ((tmp_path / "pool" / name).read_bytes()
                    == (tmp_path / "serial" / name).read_bytes())
        assert pooled.histories == serial.histories

    def test_process_pool_matches_serial(self, tmp_path, toy_norm):
        self.check_pool_matches_serial(tmp_path, ProcessPoolExecutor(max_workers=2))

    def test_thread_pool_matches_serial(self, tmp_path, toy_norm):
        # two banks train at once in one process, each thread on its own
        # gru work buffer
        self.check_pool_matches_serial(tmp_path, ThreadPoolExecutor(max_workers=2))

    def test_skipped_bank_reported(self, toy_norm):
        rng = make_rng(22)
        exs = [make_example(rng, 3, 34, day_index=7, trip_id=i)
               for i in range(3)]
        cfg = TrainConfig(max_epochs=1, hidden_enc=4, hidden_dec_edu=3,
                          hidden_dec_edb=2)
        result = train_bank("edu", exs, 34, cfg)
        assert result.examples[(8, 12)] == 0 and result.examples[(3, 7)] != 0
        assert len(result.bank.models) == 6

    def test_nonfinite_loss_raises_before_update(self, toy_norm):
        model = new_model("edb", 3, 7, 8, make_rng(30), hidden_enc=4,
                          hidden_dec=3, norm=toy_norm)
        model.w_out[0] = np.nan
        before = model.theta.copy()
        rng = make_rng(31)
        exs = [make_example(rng, 4, 8, trip_id=i) for i in range(3)]
        with pytest.raises(NonFiniteLossError,
                           match=r"edb bank m=3-7: .* epoch 0, batch 0"):
            train_model(model, exs, exs, TrainConfig(max_epochs=2), make_rng(0))
        npt.assert_array_equal(model.theta, before)

    def test_nonfinite_gradient_raises_before_update(self, toy_norm):
        # all-zero states make the prediction exactly 0 whatever w_out is,
        # so the loss stays finite while w_out * dL/dy overflows
        model = zero_model("edu", 3, 7, 8, toy_norm)
        model.w_out[:] = np.finfo(np.float64).max
        before = model.theta.copy()
        ex = make_example(make_rng(32), 7, 8)      # K = 1
        ex = replace(ex, targets=np.array([toy_norm.travel_mean
                                           + 3 * toy_norm.travel_std]))
        assert np.isfinite(model_loss(model, ex))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                NonFiniteGradientError,
                match=r"edu bank m=3-7: gradient of enc\.wz is not finite at "
                      r"epoch 0, batch 0"):
            train_model(model, [ex], [], TrainConfig(max_epochs=2), make_rng(0))
        npt.assert_array_equal(model.theta, before)

    @pytest.mark.parametrize("name, value", [
        ("batch_size", 0), ("max_epochs", 0), ("patience", 0),
        ("hidden_enc", 0), ("hidden_dec_edb", -1), ("lr", 0.0),
        ("lr", float("nan"))])
    def test_config_out_of_range_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"^{name}: must be"):
            TrainConfig(**{name: value})

    def test_no_examples_raises(self, toy_norm):
        model = zero_model("edu", 3, 7, 8, toy_norm)
        with pytest.raises(ValueError):
            train_model(model, [], [], TrainConfig(), make_rng(0))


def reference_mean_loss(model, examples):
    """Each m group's example list stacked and run in one pass: the oracle
    for mean_loss over blocks."""
    by_m = {}
    for ex in examples:
        by_m.setdefault(ex.m, []).append(ex)
    total = 0.0
    for exs in by_m.values():
        blk = seq2seq.stack_block(model, exs)
        y, _ = seq2seq._forward(model, blk)
        total += float(np.sum(np.mean((y - blk.targets) ** 2, axis=0)))
    return total / len(examples)


def reference_train_model(model, train_ex, val_ex, cfg, rng):
    """The list-batch loop, which stacks each minibatch's examples on every
    step and the validation examples on every epoch: the oracle for
    train_model's gathers out of blocks stacked once."""
    state = init_adam(model.theta, lr=cfg.lr)
    by_m = {}
    for ex in train_ex:
        by_m.setdefault(ex.m, []).append(ex)
    history, best_val, best_theta, bad_epochs = [], np.inf, None, 0
    for epoch in range(cfg.max_epochs):
        batches = []
        for m in sorted(by_m):
            exs = by_m[m]
            order = rng.permutation(len(exs))
            for lo in range(0, len(exs), cfg.batch_size):
                batches.append([exs[i] for i in order[lo:lo + cfg.batch_size]])
        rng.shuffle(batches)
        total, count, norm_sum = 0.0, 0, 0.0
        for batch in batches:
            batch_loss, grad = seq2seq._batch_step(
                model, seq2seq.stack_block(model, batch))
            adam_step(model.theta, grad, state)
            total += batch_loss * len(batch)
            count += len(batch)
            norm_sum += float(np.linalg.norm(grad))
        entry = {"epoch": epoch, "train_loss": total / count, "val_loss": None,
                 "grad_norm": norm_sum / len(batches)}
        if val_ex:
            entry["val_loss"] = val_loss = reference_mean_loss(model, val_ex)
            if val_loss < best_val:
                best_val, best_theta, bad_epochs = val_loss, model.theta.copy(), 0
            else:
                bad_epochs += 1
        history.append(entry)
        if val_ex and bad_epochs >= cfg.patience:
            break
    if best_theta is not None:
        model.theta[...] = best_theta
    return history


class TestBlockTraining:
    @pytest.mark.parametrize("kind", ["edu", "edb"])
    @pytest.mark.parametrize("wide_bank", [False, True])
    @pytest.mark.parametrize("validate", [False, True])
    def test_matches_list_batch_reference(self, kind, wide_bank, validate,
                                          toy_norm):
        rng = make_rng(50)
        # one bank, two positions, interleaved: 23 and 9 training examples
        # against batches of 5; 70 validation examples at m=4 after 3 at
        # m=6, which comes first. The bank is the route's one bank: 3-7 on
        # 8 sections, or 3-8, wider than BANK_WIDTH, on 9
        n_s = 9 if wide_bank else 8
        train_ms = rng.permutation([4] * 23 + [6] * 9)
        val_ms = [6, 4, 6, 4, 6] + [4] * 68
        train_ex = [make_example(rng, m, n_s, trip_id=i)
                    for i, m in enumerate(train_ms)]
        val_ex = [make_example(rng, m, n_s, trip_id=100 + i)
                  for i, m in enumerate(val_ms)] if validate else []
        assert len(val_ex) in (0, 73)
        cfg = TrainConfig(batch_size=5, max_epochs=6, patience=2, lr=2e-2)
        model, ref = (new_model(kind, 3, n_s - 1, n_s, make_rng(51), hidden_enc=4,
                                hidden_dec=3, norm=toy_norm)
                      for _ in range(2))
        history = train_model(model, train_ex, val_ex, cfg, make_rng(52))
        want = reference_train_model(ref, train_ex, val_ex, cfg, make_rng(52))
        assert model.theta.tobytes() == ref.theta.tobytes()
        assert history == want
        assert len(history) == 6 or validate

    @pytest.mark.parametrize("where", ["train", "val"])
    def test_example_outside_bank_raises_before_any_step(self, where, toy_norm,
                                                         monkeypatch):
        model = new_model("edu", 3, 7, 10, make_rng(53), hidden_enc=4,
                          hidden_dec=3, norm=toy_norm)
        before = model.theta.copy()
        steps = []
        monkeypatch.setattr(seq2seq, "adam_step", lambda *a: steps.append(a))
        rng = make_rng(54)
        exs = {"train": [make_example(rng, 4, 10, trip_id=i) for i in range(3)],
               "val": [make_example(rng, 5, 10, trip_id=9)]}
        exs[where].append(make_example(rng, 8, 10, trip_id=10))
        with pytest.raises(CoverageError, match=r"m=8 outside model bank \[3, 7\]"):
            train_model(model, exs["train"], exs["val"], TrainConfig(max_epochs=2),
                        make_rng(0))
        assert steps == []
        npt.assert_array_equal(model.theta, before)

    def test_gathered_block_equals_stacked_examples(self, toy_norm):
        model = new_model("edb", 3, 7, 8, make_rng(55), norm=toy_norm)
        rng = make_rng(56)
        exs = [make_example(rng, 5, 8, trip_id=i) for i in range(9)]
        cols = np.array([7, 2, 2, 0, 8])
        got = seq2seq.stack_block(model, exs).take(cols)
        want = seq2seq.stack_block(model, [exs[i] for i in cols])
        for name in ("enc", "dec", "t_c", "targets"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.flags.c_contiguous and a.shape == b.shape
            assert a.tobytes() == b.tobytes(), name


class TestPredict:
    def test_boundary_one_section(self, toy_norm):
        bank = zero_bank("edu", 34, toy_norm)
        ex = make_example(make_rng(23), 33, 34)
        result = predict(bank, ex)
        assert len(result.travel_s) == 1
        assert result.sections.tolist() == [34]

    def test_cumulative_definition(self, toy_norm):
        bank = zero_bank("edb", 10, toy_norm)
        ex = make_example(make_rng(24), 4, 10)
        result = predict(bank, ex)
        npt.assert_allclose(result.cumulative_s, np.cumsum(result.travel_s),
                            atol=1e-12)
        npt.assert_allclose(result.arrival_s[-1],
                            ex.t_c + result.travel_s.sum(), atol=1e-12)

    def test_out_of_coverage(self, toy_norm):
        bank = zero_bank("edu", 10, toy_norm)
        for m in (1, 2, 10, 11):
            ex = make_example(make_rng(25), max(3, min(m, 9)), 10)
            ex.m = m
            with pytest.raises(CoverageError):
                bank.model_for(m)

    def test_unresolved_inputs_rejected(self, toy_norm):
        bank = zero_bank("edu", 10, toy_norm)
        ex = make_example(make_rng(26), 5, 10)
        ex.dec[0, 0] = np.nan
        with pytest.raises(ValueError):
            predict(bank, ex)

    def test_integer_inputs_predict_as_floats(self, toy_norm):
        # integer-valued JSON loads as int64 arrays; normalization must not
        # round the decoder inputs back to integers
        model = new_model("edb", 3, 7, 10, make_rng(38), hidden_enc=4,
                          hidden_dec=3, norm=toy_norm)
        ex = make_example(make_rng(39), 5, 10)
        ex = replace(ex, enc=ex.enc.round(), dec=ex.dec.round(),
                     targets=ex.targets.round())
        as_ints = replace(ex, enc=ex.enc.astype(np.int64),
                          dec=ex.dec.astype(np.int64),
                          targets=ex.targets.astype(np.int64))
        assert (predict_example(model, as_ints).tobytes()
                == predict_example(model, ex).tobytes())

    @pytest.mark.parametrize("k_route", [14, 9])
    def test_decoder_length_must_fit_route(self, toy_norm, k_route):
        # an example built for another route length: the model would run
        # its K steps and return K travel times beside 6 section numbers
        bank = zero_bank("edb", 10, toy_norm)
        ex = make_example(make_rng(28), 4, k_route)
        with pytest.raises(ValueError, match=rf"m=4 has K={k_route - 4} .* "
                           r"route of 10 sections leaves 6"):
            predict(bank, ex)

    def test_variable_length_contract(self, toy_norm):
        n_s = 34
        bank = zero_bank("edu", n_s, toy_norm)
        rng = make_rng(27)
        owners = []
        for m in range(3, n_s):
            ex = make_example(rng, m, n_s)
            result = predict(bank, ex)
            assert len(result.travel_s) == n_s - m
            owner = bank.model_for(m)
            owners.append((owner.m_lo, owner.m_hi))
            assert owner.m_lo <= m <= owner.m_hi
        assert len(set(owners)) == 6


class TestCheckpoints:
    def test_round_trip_bitwise(self, tmp_path, toy_norm):
        rng = make_rng(28)
        for kind in ("edu", "edb"):
            model = new_model(kind, 8, 12, 34, rng, hidden_enc=6,
                              hidden_dec=4, norm=toy_norm)
            path = tmp_path / f"{kind}.json"
            save_model_json(model, path)
            loaded = load_model_json(path)
            for k, v in model.params().items():
                npt.assert_array_equal(v, loaded.params()[k])
            ex = make_example(rng, 9, 34)
            npt.assert_array_equal(predict_example(model, ex),
                                   predict_example(loaded, ex))

    @pytest.mark.parametrize("kind", ["edu", "edb"])
    @pytest.mark.parametrize("wide_bank", [False, True])
    def test_save_load_save_bytes_identical(self, kind, wide_bank, tmp_path,
                                            toy_norm):
        # the wide bank is a 34-section route's last, 28-33
        m_lo, m_hi = (28, 33) if wide_bank else (8, 12)
        model = new_model(kind, m_lo, m_hi, 34, make_rng(36), hidden_enc=5,
                          hidden_dec=3, norm=toy_norm)
        model.theta[...] = make_rng(37).normal(size=model.theta.size)
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        save_model_json(model, first)
        save_model_json(load_model_json(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_bank_round_trip(self, tmp_path, toy_norm):
        bank = zero_bank("edu", 10, toy_norm)
        save_bank(bank, tmp_path)
        loaded = load_bank(tmp_path, "edu", 10)
        assert [(m.m_lo, m.m_hi) for m in loaded.models] == bank_layout(10)

    def test_missing_checkpoint_names_bank(self, tmp_path, toy_norm):
        bank = zero_bank("edu", 10, toy_norm)
        save_bank(bank, tmp_path)
        (tmp_path / "edu_bank_03_09.json").unlink()
        with pytest.raises(FileNotFoundError, match="3-9"):
            load_bank(tmp_path, "edu", 10)

    def test_format_version_checked(self, tmp_path, toy_norm):
        model = zero_model("edu", 3, 7, 10, toy_norm)
        path = tmp_path / "m.json"
        save_model_json(model, path)
        doc = json.loads(path.read_text())
        for version in (99, 1):
            doc["format_version"] = version
            path.write_text(json.dumps(doc))
            with pytest.raises(ValueError, match="format") as info:
                load_model_json(path)
            assert isinstance(info.value, DataError)
            assert str(path) in str(info.value)
            assert f"format_version {version}, but this reads 2" in str(info.value)
            assert "busarrival train" in str(info.value)


    @pytest.mark.parametrize("corrupt", [
        lambda doc, model: doc.pop("theta"),
        lambda doc, model: doc.update({"theta": None}),
        lambda doc, model: doc["theta"].pop(),
        lambda doc, model: doc["theta"].__setitem__(0, float("nan")),
        lambda doc, model: doc["norm"].update({"travel_std": 0.0}),
        # theta longer than the dims lay out: by a dec_bwd block, which edu
        # models do not have, by hidden_enc entries, or by one
        lambda doc, model: doc["theta"].extend([0.0] * model.dec_fwd.theta.size),
        lambda doc, model: doc["theta"].extend([0.0] * model.hidden_enc),
        lambda doc, model: doc["theta"].append(0.0),
        lambda doc, model: doc.update({"kind": "edb"}),
        lambda doc, model: doc.update({"hidden_enc": "4"}),
        # values numpy would convert: a string and a boolean in theta, and
        # norm fields that are not numbers
        lambda doc, model: doc["theta"].__setitem__(0, "0.5"),
        lambda doc, model: doc["theta"].__setitem__(1, True),
        lambda doc, model: doc["norm"].update({"travel_mean": "130"}),
        lambda doc, model: doc["norm"].update({"tod_min": [0]}),
    ])
    def test_malformed_checkpoint_names_path(self, tmp_path, toy_norm, corrupt):
        model = new_model("edu", 3, 7, 10, make_rng(29), hidden_enc=4,
                          hidden_dec=3, norm=toy_norm)
        path = tmp_path / "m.json"
        save_model_json(model, path)
        doc = json.loads(path.read_text())
        corrupt(doc, model)
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="m.json: malformed checkpoint"):
            load_model_json(path)

    @staticmethod
    def load_edited(tmp_path, toy_norm, edit):
        """Load a saved checkpoint after ``edit`` changed its document."""
        path = tmp_path / "m.json"
        save_model_json(new_model("edu", 3, 7, 10, make_rng(29), hidden_enc=4,
                                  hidden_dec=3, norm=toy_norm), path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        return load_model_json(path)

    @pytest.mark.parametrize("name", seq2seq.DIMS)
    @pytest.mark.parametrize("as_bool", [False, True])
    def test_dim_of_another_json_type_is_named(self, tmp_path, toy_norm, name,
                                               as_bool):
        # kind is a JSON string and the others JSON integers: a boolean is
        # neither, nor is a float such as 5.0, nor a number for kind
        def edit(doc):
            doc[name] = True if as_bool else (
                1.0 if name == "kind" else float(doc[name]))

        want = "string" if name == "kind" else "integer"
        with pytest.raises(DataError, match=f"malformed checkpoint: ValueError: "
                                            f"{name} must be a JSON {want}"):
            self.load_edited(tmp_path, toy_norm, edit)

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc.update({"use_bias": True}), "use_bias must be false, got True"),
        (lambda doc: doc.update({"use_bias": 0}), "use_bias must be false, got 0"),
        (lambda doc: doc.pop("use_bias"), "KeyError: 'use_bias'"),
    ], ids=["true", "zero", "missing"])
    def test_use_bias_other_than_false_is_refused(self, tmp_path, toy_norm, edit,
                                                  message):
        with pytest.raises(DataError, match=message):
            self.load_edited(tmp_path, toy_norm, edit)

    @pytest.mark.parametrize("name", ["hidden_enc", "hidden_dec"])
    @pytest.mark.parametrize("size", [0, -1])
    def test_hidden_size_below_one_is_named(self, tmp_path, toy_norm, name, size):
        # theta is resized to the edited dims' layout wherever that has a
        # size, so only the hidden-size check can refuse the checkpoint
        def edit(doc):
            doc[name] = size
            dims = object.__new__(EdModel)
            dims.__dict__.update({k: doc[k] for k in seq2seq.DIMS})
            n = sum(n for *_, n in dims._layout())
            if n >= 0:
                doc["theta"] = [0.1] * n

        with pytest.raises(DataError, match=f"malformed checkpoint: ValueError: "
                                            f"{name}: must be >= 1, got {size}$"):
            self.load_edited(tmp_path, toy_norm, edit)
        with pytest.raises(ValueError, match=f"{name}: must be >= 1"):
            EdModel(**{**dict(kind="edu", m_lo=3, m_hi=7, n_sections=10,
                              hidden_enc=4, hidden_dec=3), name: size})

    def test_format_2_bytes_are_stable(self, tmp_path, toy_norm):
        dims = dict(kind="edb", m_lo=3, m_hi=4, n_sections=5, hidden_enc=1,
                    hidden_dec=1)
        size = EdModel(**dims).theta.size
        model = EdModel(**dims, norm=toy_norm, theta=np.arange(size) / 8)
        save_model_json(model, tmp_path / "m.json")
        assert (tmp_path / "m.json").read_bytes() == GOLDEN_CHECKPOINT.read_bytes()
        loaded = load_model_json(GOLDEN_CHECKPOINT)
        assert loaded.dims() == model.dims()
        assert loaded.norm == model.norm
        npt.assert_array_equal(loaded.theta, model.theta)

    def test_full_size_checkpoint_matches_json_dump(self, tmp_path):
        # the writer's C-encoded text is what json.dump streams, byte for byte
        model = new_model("edb", 28, 33, 34, make_rng(12),
                          norm=NormStats(131.7, 41.3, 20160.5, 79320.25))
        model.theta *= np.pi
        path = tmp_path / "m.json"
        save_model_json(model, path)
        doc = {"format_version": seq2seq.CHECKPOINT_FORMAT_VERSION,
               **model.dims(), "use_bias": False, "norm": model.norm.to_dict(),
               "theta": model.theta.tolist()}
        with open(tmp_path / "dump.json", "w") as f:
            json.dump(doc, f)
            f.write("\n")
        assert path.read_bytes() == (tmp_path / "dump.json").read_bytes()


class TestModelValidation:
    @pytest.mark.parametrize("make_theta", [
        lambda n: np.zeros(n + 5),
        lambda n: np.zeros(n - 1),
        lambda n: np.zeros((1, n)),
        lambda n: np.zeros(n, np.float32),
    ], ids=["too-long", "too-short", "2-d", "float32"])
    def test_theta_must_fit_layout(self, toy_norm, make_theta):
        dims = ("edb", 3, 7, 10, 4, 3)
        n = EdModel(*dims).theta.size
        theta = make_theta(n)
        with pytest.raises(ValueError, match=rf"\({n},\).*"
                           rf"{re.escape(str(theta.shape))}"):
            EdModel(*dims, norm=toy_norm, theta=theta)

    def test_bank_tiling_checked(self, toy_norm):
        models = [zero_model("edu", 3, 7, 10, toy_norm)]
        bank = ModelBank(kind="edu", n_sections=10, models=models)
        with pytest.raises(ValueError):
            bank.validate()

    def test_kind_consistency(self, toy_norm):
        m = zero_model("edu", 3, 7, 8, toy_norm)
        bank = ModelBank(kind="edb", n_sections=8, models=[m])
        with pytest.raises(ValueError):
            bank.validate()

    def test_edb_requires_reverse_params(self, toy_norm):
        m = zero_model("edb", 3, 7, 8, toy_norm)
        m.dec_bwd = None
        with pytest.raises(ValueError):
            m.validate()
