import dataclasses

import numpy as np
import pytest

from busarrival import dataprep
from busarrival.dataprep import (DataError, NormStats, RouteSpec, TrainingExample,
                                 TripRecord)
from busarrival.seq2seq import BANK_WIDTH, DEFAULT_HIDDEN_DEC, DEFAULT_HIDDEN_ENC


def make_example(rng, m, n_sections, day_index=8, trip_id=1):
    """Random but valid training example with plausible magnitudes."""
    k = n_sections - m
    return TrainingExample(
        m=m, t_c=float(rng.uniform(30000, 40000)), day_index=day_index,
        trip_id=trip_id,
        enc=rng.uniform(60, 200, (m, 2)),
        dec=np.column_stack([rng.uniform(60, 200, k), rng.uniform(60, 200, k),
                             rng.uniform(20000, 30000, k),
                             rng.uniform(20000, 30000, k)]),
        targets=rng.uniform(60, 200, k),
        prev_trip_ids=np.zeros(k, dtype=np.int64), pw_trip_id=2)


def make_trip(trip_id, day_index, start_s, travel_times):
    travel = np.asarray(travel_times, dtype=np.float64)
    entries = start_s + np.concatenate([[0.0], np.cumsum(travel[:-1])])
    return TripRecord(trip_id=trip_id, day_index=day_index,
                      weekday=day_index % 7, entry_times=entries,
                      travel_times=travel)


def denorm_tod(norm, x):
    """The inverse of ``norm.norm_tod``."""
    return np.asarray(x, dtype=np.float64) * (norm.tod_max - norm.tod_min) + norm.tod_min


def decoder_param_count(model) -> int:
    """Learnable count of the decoder head: GRU chain(s) plus the output map.

    The append embed is part of the context block shared by both variants
    and is excluded; including it would not change which default sizes pass
    the parity check.
    """
    n = model.dec_fwd.theta.size + model.w_out.size
    if model.dec_bwd is not None:
        n += model.dec_bwd.theta.size
    return n


def bi_hidden_for_parity(hidden_enc=DEFAULT_HIDDEN_ENC,
                         edu_hidden=DEFAULT_HIDDEN_DEC["edu"],
                         bank_width=BANK_WIDTH) -> int:
    """Largest per-direction EDB hidden size whose decoder stays within the
    EDU decoder's parameter count."""
    d_in = 4 + hidden_enc + bank_width + 1
    edu_count = 3 * edu_hidden * d_in + 3 * edu_hidden ** 2 + edu_hidden
    for h in range(edu_hidden, 0, -1):
        edb_count = 2 * (3 * h * d_in + 3 * h * h) + 2 * h
        if edb_count <= edu_count:
            return h
    return 1


@pytest.fixture
def toy_norm():
    return NormStats(travel_mean=130.0, travel_std=40.0, tod_min=0.0,
                     tod_max=86400.0)


@pytest.fixture
def small_route():
    return RouteSpec(6, 800.0)


FALLBACK_MISMATCH = "fallback entries must be 1 exactly where prev_trip_ids is -1"


def reference_load_examples_jsonl(path):
    """Each line parsed and validated on its own, in file order: the oracle
    for the block loader."""
    examples = []
    with open(path, "rb") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                ex, fallback = dataprep._parse_example(line.decode())
                ex.validate(ex.m + ex.k)
                if fallback != [int(i == -1) for i in ex.prev_trip_ids.tolist()]:
                    raise DataError(FALLBACK_MISMATCH)
            except (KeyError, TypeError, ValueError, OverflowError) as e:
                raise DataError(f"{path}:{lineno}: malformed example: "
                                f"{type(e).__name__}: {e}") from e
            examples.append(ex)
    return examples


def assert_same_examples(got, want):
    """Equal fields of equal types, arrays of equal dtype, shape and bits."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for name in (field.name for field in dataclasses.fields(b)):
            value, other = getattr(b, name), getattr(a, name)
            assert type(other) is type(value), name
            if isinstance(value, np.ndarray):
                assert (other.dtype, other.shape) == (value.dtype, value.shape), name
                assert other.tobytes() == value.tobytes(), name
            else:
                assert other == value, name
