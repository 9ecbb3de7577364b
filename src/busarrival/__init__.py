"""Encoder-decoder GRU models for section-level bus travel time prediction."""

from .dataprep import (NormStats, RouteSpec, TrainingExample, TripDataset,
                       TripRecord, build_example, build_examples,
                       closest_prev_trip_at_section, closest_prev_week_trip,
                       fit_normalizer)
from .evalkit import (baseline_hist_mean, baseline_persistence, evaluate_grid,
                      fit_hist_mean, mae, mape, paired_z_test)
from .gru import GruParams, gru_backward, gru_forward, init_gru
from .numkit import adam_step, finite_diff_grad, init_adam, make_rng, sigmoid
from .seq2seq import (EdModel, ModelBank, TrainConfig, bank_layout, load_bank,
                      model_backward, new_model, predict, predict_example,
                      save_bank, train_bank)
from .simulator import (CongestionEvent, SimConfig, simulate_dataset,
                        split_train_test)

__version__ = "0.1.0"
