"""A seeded mutation fuzz of ``load_examples_jsonl``.

A small prepared examples file is mutated many times over: a number
replaced by another JSON value, a line deleted, duplicated or swapped, the
file truncated, a byte inserted, or one ``fallback`` entry flipped. Each
mutated file must either load or fail with a DataError that starts with
``<path>:<line>:``; no other exception may escape. Where the mutation fixes
the line at fault, the error must name that line.

Each outcome is also compared with the per-line reference loader's: the
same examples when the file loads, the same message when it fails. The one
check the reference lacks is the refusal of a repeated example, so a file
refused for a repeat is not compared.
"""

import re

import pytest

from busarrival import dataprep, simulator
from busarrival.dataprep import DataError, RouteSpec, TripDataset
from busarrival.numkit import make_rng
from conftest import assert_same_examples, reference_load_examples_jsonl

# Mutated files per mutation kind.
MUTATIONS = 50
# The JSON texts a number is replaced by; each but the 23-digit integer
# makes every line it lands in invalid.
REPLACEMENTS = {"nan": b"NaN", "inf": b"Infinity", "1e400": b"1e400",
                "empty_string": b'""', "true": b"true", "null": b"null",
                "23_digits": b"1" * 23}
NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")
FALLBACK = re.compile(rb'"fallback": \[([01, ]*)\]')


@pytest.fixture(scope="module")
def prepared(tmp_path_factory):
    """The lines of a prepared examples file: 6 sections, 2 weeks, 3 trips a
    day, so some sections fall back to the previous week."""
    cfg = simulator.SimConfig(route=RouteSpec(6, 800.0), weeks=2, trips_per_day=3,
                              events_per_day=1.0, seed=11)
    trips, _ = simulator.simulate_dataset(cfg)
    examples, _ = dataprep.build_examples(TripDataset(trips, cfg.route))
    assert any(ex.fallback_mask.any() for ex in examples)
    assert not all(ex.fallback_mask.all() for ex in examples)
    path = tmp_path_factory.mktemp("prepared") / "examples.jsonl"
    dataprep.save_examples_jsonl(examples, path)
    return path.read_bytes().splitlines(keepends=True)


def replace_number(text):
    def mutate(rng, lines):
        i = int(rng.integers(len(lines)))
        spans = [m.span() for m in NUMBER.finditer(lines[i])]
        a, b = spans[int(rng.integers(len(spans)))]
        lines[i] = lines[i][:a] + text + lines[i][b:]
        return lines, i + 1
    return mutate


def delete_line(rng, lines):
    del lines[int(rng.integers(len(lines)))]
    return lines, None


def duplicate_line(rng, lines):
    i = int(rng.integers(len(lines)))
    lines.insert(i + 1, lines[i])
    return lines, i + 2            # the repeat names the later line


def swap_lines(rng, lines):
    i, j = rng.choice(len(lines), 2, replace=False)
    lines[i], lines[j] = lines[j], lines[i]
    return lines, None


def truncate(rng, lines):
    text = b"".join(lines)
    return [text[:int(rng.integers(1, len(text)))]], None


def insert_byte(rng, lines):
    text = b"".join(lines)
    at = int(rng.integers(len(text) + 1))
    return [text[:at] + bytes([int(rng.integers(256))]) + text[at:]], None


def flip_fallback(rng, lines):
    i = int(rng.integers(len(lines)))
    match = FALLBACK.search(lines[i])
    entries = match.group(1).split(b", ")
    j = int(rng.integers(len(entries)))
    entries[j] = b"0" if entries[j] == b"1" else b"1"
    a, b = match.span(1)
    lines[i] = lines[i][:a] + b", ".join(entries) + lines[i][b:]
    return lines, i + 1


# mutation -> (mutate, what a load must do: "fail", "load" or either)
CASES = {
    **{f"number_to_{name}": (replace_number(text),
                             None if name == "23_digits" else "fail")
       for name, text in REPLACEMENTS.items()},
    "delete_line": (delete_line, "load"),
    "duplicate_line": (duplicate_line, "fail"),
    "swap_lines": (swap_lines, "load"),
    "truncate": (truncate, None),
    "insert_byte": (insert_byte, None),
    "flip_fallback": (flip_fallback, "fail"),
}


@pytest.mark.parametrize("kind", list(CASES))
def test_mutated_file_loads_or_names_its_line(tmp_path, prepared, kind):
    mutate, outcome = CASES[kind]
    rng = make_rng(sorted(CASES).index(kind))
    path = tmp_path / "examples.jsonl"
    outcomes = []
    for _ in range(MUTATIONS):
        lines, bad_line = mutate(rng, list(prepared))
        path.write_bytes(b"".join(lines))
        try:
            loaded = dataprep.load_examples_jsonl(path)
        except DataError as e:
            where = re.match(rf"{re.escape(str(path))}:(\d+): ", str(e))
            assert where, str(e)
            assert bad_line is None or int(where.group(1)) == bad_line, str(e)
            outcomes.append("fail")
            if str(e).startswith(f"{where.group(0)}repeated example: "):
                continue
            with pytest.raises(DataError) as want:
                reference_load_examples_jsonl(path)
            assert str(e) == str(want.value)
        else:
            assert_same_examples(loaded, reference_load_examples_jsonl(path))
            outcomes.append("load")
    if outcome is not None:
        assert set(outcomes) == {outcome}
