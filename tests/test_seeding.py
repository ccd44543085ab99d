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


def numpy_words(root, path):
    seq = np.random.SeedSequence(root, spawn_key=tuple(_encode(p) for p in path))
    return seq.generate_state(4, np.uint64)


def assert_bitwise(root, paths):
    gens = list(streams(root, paths))
    assert len(gens) == len(paths)
    for path, gen in zip(paths, gens):
        np.testing.assert_array_equal(
            gen.bit_generator.seed_seq.generate_state(4, np.uint64), numpy_words(root, path)
        )
        ref = stream(root, *path)
        assert gen.bit_generator.state == ref.bit_generator.state
        assert gen.random(3).tobytes() == ref.random(3).tobytes()
        assert gen.integers(0, 2**63, 2).tobytes() == ref.integers(0, 2**63, 2).tobytes()


@pytest.mark.parametrize("root", ROOTS)
def test_fixed_paths_of_mixed_lengths_in_one_call(root):
    assert_bitwise(root, PATHS)


def test_zero_paths():
    assert list(streams(3, [])) == []


def test_more_than_one_chunk_in_input_order():
    # Path lengths alternate, so every chunk derives several length groups.
    paths = [("e", i) if i % 3 else ("e", i, "link", 2**33 + i) for i in range(2 * CHUNK_ROWS + 7)]
    assert_bitwise(2**63 - 5, paths)


def test_derives_lazily():
    # An endless path iterator: only as many paths as asked for are derived.
    gens = streams(11, ((i,) for i in itertools.count()))
    for i, gen in zip(range(CHUNK_ROWS + 3), gens):
        assert gen.random() == stream(11, i).random()


@pytest.mark.parametrize(
    "path, error", [((True,), TypeError), ((2**63,), ValueError), ((-(2**63) - 1,), ValueError)]
)
def test_bad_path_elements_raise_as_stream_does(path, error):
    with pytest.raises(error):
        stream(0, *path)
    with pytest.raises(error):
        list(streams(0, [path]))


def test_negative_root_is_refused():
    with pytest.raises(ValueError):
        list(streams(-1, [(0,)]))


elements = st.one_of(
    st.integers(0, 2**32 - 1),
    st.integers(-(2**63), 2**63 - 1),
    st.text(max_size=6),
)


@settings(max_examples=80, deadline=None)
@given(
    root=st.one_of(st.integers(0, 2**64 - 1), st.integers(0, 2**200)),
    paths=st.lists(st.lists(elements, max_size=8).map(tuple), max_size=12),
)
def test_random_paths_match_numpy(root, paths):
    assert_bitwise(root, paths)


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
