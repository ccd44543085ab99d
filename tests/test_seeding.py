"""``seeding.streams`` against numpy's own ``SeedSequence``, bit for bit.

``streams`` re-implements numpy's pool mixing and state generation as array
arithmetic, so these tests pin it to numpy directly: a numpy release that
changes the ``SeedSequence`` algorithm or the ``ISeedSequence`` interface
fails here before it moves an output.
"""

import itertools
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cogrelay
import cogrelay.seeding as seeding
from cogrelay.seeding import CHUNK_ROWS, _encode, stream, streams

ROOTS = [
    0,
    1,
    2**32 - 1,  # one word
    2**32,  # two words
    2**63 - 1,  # sweep-point seeds reach 2**63
    2**64 - 1,
    2**96,  # three words
    2**128 + 12345,  # five words: longer than the four-word pool
    2**200 - 1,
]

PATHS = [
    (),
    (0,),
    (1,),
    (2**32 - 1,),
    (2**32,),  # a two-word integer
    (2**63 - 1,),
    (-1,),  # negative integers are offset into two words
    (-(2**63),),
    ("activity",),
    ("", "ü"),
    ("activity", "warmup", 15),
    ("epoch", 1999, "segment", 0, 5),
    ("epoch", "warmup", 7, "link", 2, 5),
    ("a", 1, "b", -2, "c", 2**40, "d", 4, 5, 6),  # longer than the pool
    ("sweep-point", "alpha=2,p0_db=20"),
]

# Column-form paths: the three shapes the simulator derives, and columns
# beside multi-word and negative scalars, at each end of the uint32 range.
COLUMNS = [
    ("activity", np.arange(9)),
    ("epoch", "warmup", np.arange(5, 12), "link", np.arange(7), np.arange(1, 8)),
    ("epoch", np.array([3, 0, 2**32 - 1]), "segment", np.array([0, 4, 1]),
     np.array([5, 6, 2], dtype=np.uint8)),
    (np.array([0, 2**32 - 1], dtype=np.uint64), 2**40, "x", -3, np.array([7, 7])),
]


def numpy_words(root, path):
    seq = np.random.SeedSequence(root, spawn_key=tuple(_encode(p) for p in path))
    return seq.generate_state(4, np.uint64)


def tuple_paths(path):
    """The tuple path of each row of a column-form path."""
    if not any(isinstance(part, np.ndarray) for part in path):
        return [tuple(path)]
    columns = [p.tolist() if isinstance(p, np.ndarray) else itertools.repeat(p) for p in path]
    return list(zip(*columns))


def assert_bitwise(root, path):
    gens = list(streams(root, *path))
    rows = tuple_paths(path)
    assert len(gens) == len(rows)
    for row, gen in zip(rows, gens):
        np.testing.assert_array_equal(
            gen.bit_generator.seed_seq.generate_state(4, np.uint64), numpy_words(root, row)
        )
        ref = stream(root, *row)
        assert gen.bit_generator.state == ref.bit_generator.state
        assert gen.random(3).tobytes() == ref.random(3).tobytes()
        assert gen.integers(0, 2**63, 2).tobytes() == ref.integers(0, 2**63, 2).tobytes()


@pytest.mark.parametrize("root", ROOTS)
def test_scalar_paths_are_one_stream_each(root):
    for path in PATHS:
        assert_bitwise(root, path)


@pytest.mark.parametrize("root", ROOTS)
@pytest.mark.parametrize("path", COLUMNS, ids=["activity", "link", "segment", "mixed"])
def test_array_columns_are_one_stream_per_index(root, path):
    assert_bitwise(root, path)


@pytest.mark.parametrize("path", [(np.arange(0),), ("a", np.zeros(0, int), 5, np.arange(0))])
def test_zero_rows_yield_nothing(path):
    assert list(streams(3, *path)) == []


def test_more_than_one_chunk_in_input_order():
    rows = 2 * CHUNK_ROWS + 7
    epochs = np.arange(rows)
    assert_bitwise(2**63 - 5, ("e", epochs, "link", 2**33, (epochs * 7919) % 2**32))


def test_derives_lazily(monkeypatch):
    # Only the chunks of the rows asked for are derived.
    batches = []
    real = seeding._seed_state

    def counting(entropy):
        batches.append(entropy.shape[0])
        return real(entropy)

    monkeypatch.setattr(seeding, "_seed_state", counting)
    gens = streams(11, np.arange(10 * CHUNK_ROWS))
    assert batches == []
    for i, gen in zip(range(CHUNK_ROWS + 3), gens):
        assert gen.random() == stream(11, i).random()
    assert batches == [CHUNK_ROWS, CHUNK_ROWS]


@pytest.mark.parametrize(
    "path, error", [((True,), TypeError), ((2**63,), ValueError), ((-(2**63) - 1,), ValueError)]
)
def test_bad_path_elements_raise_as_stream_does(path, error):
    with pytest.raises(error):
        stream(0, *path)
    with pytest.raises(error):
        streams(0, *path)
    with pytest.raises(error):  # beside a column too
        streams(0, np.arange(3), *path)


def test_negative_root_is_refused():
    with pytest.raises(ValueError):
        streams(-1, 0)


# Each refusal names the offending part, by its index in the path.
@pytest.mark.parametrize("column, match", [
    (np.array([True, False]), r"part 2: 1-D bool, not 1-D ints"),
    (np.array([0.0, 1.0]), r"part 2: 1-D float64, not 1-D ints"),
    (np.array([[0, 1]]), r"part 2: 2-D int\d+, not 1-D ints"),
    (np.array([1, -1]), r"part 2 has entries outside \[0, 2\*\*32\)"),
    (np.array([0, 2**32], dtype=np.int64), r"part 2 has entries outside \[0, 2\*\*32\)"),
    (np.array([2**63], dtype=np.uint64), r"part 2 has entries outside \[0, 2\*\*32\)"),
    (np.arange(3), r"differ in length \(part: length\): \{0: 2, 2: 3\}"),
], ids=["bool", "float", "2-D", "negative", "2**32", "uint64", "lengths"])
def test_columns_that_would_wrap_or_misalign_are_refused(column, match):
    with pytest.raises(ValueError, match=match):
        streams(0, np.arange(2), "x", column)


elements = st.one_of(
    st.integers(0, 2**32 - 1),
    st.integers(-(2**63), 2**63 - 1),
    st.text(max_size=6),
)


@settings(max_examples=80, deadline=None)
@given(
    root=st.one_of(st.integers(0, 2**64 - 1), st.integers(0, 2**200)),
    rows=st.integers(0, 12),
    data=st.data(),
)
def test_random_paths_match_numpy(root, rows, data):
    # Each part is a scalar element or a column of ``rows`` uint32 entries.
    column = st.lists(st.integers(0, 2**32 - 1), min_size=rows, max_size=rows).map(
        lambda entries: np.array(entries, dtype=np.int64)
    )
    path = data.draw(st.lists(st.one_of(elements, column), max_size=8))
    assert_bitwise(root, path)


# The package root imports nothing, so a module loads only the modules it
# imports itself.
@pytest.mark.parametrize("module, loads", [
    ("cogrelay.seeding", []),
    ("cogrelay.subpolicy", ["cogrelay.model", "cogrelay.seeding"]),
])
def test_importing_a_module_loads_only_its_own_imports(module, loads):
    code = (f"import sys, {module}; "
            "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'cogrelay')))")
    src = str(Path(cogrelay.__file__).parents[1])
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            check=True, cwd=src)
    assert result.stdout.split() == sorted(["cogrelay", module, *loads])
