import os
import random
import subprocess
import sys

import pytest

from covkb.harness import derive_cell_seed
from covkb.rng import PCG64, seed_words

SRC = os.path.join(os.path.dirname(__file__), "..", "src")

# Ranges of every width class integers() handles: no draw (1), Lemire
# rejection with tiny to near-full ranges, and the raw 32-bit word (2**32).
RANGES = (1, 2, 7, 118, 2**31 + 3, 2**32 - 1, 2**32)


def _draws(rng, plan):
    """Replay `plan` (None = random(), n = integers(0, n)) as Python scalars."""
    return [float(rng.random()) if n is None else int(rng.integers(0, n)) for n in plan]


def _plan(pick: random.Random, length: int):
    return [None if pick.random() < 0.4 else pick.choice(RANGES) for _ in range(length)]


class TestGolden:
    """Literal values (from numpy 2.4.6) so the stream stays pinned without numpy."""

    PLAN = [None, 118, 7, 2**32, None, 2**31 + 3]
    EXPECTED = {
        0: [0.6369616873214543, 60, 1, 1322117304, 0.016527635528529094, 87989972],
        3: [0.08564916714362436, 21, 1, 778955830, 0.5821620360643678, 1720723813],
        7919: [0.6217577535206225, 77, 2, 1743687003, 0.08292312688367653, 1356012137],
        2**32: [0.8897387912781343, 117, 3, 1301146046, 0.9565138174753386, 1914009003],
        2**64 + 1: [0.6922753364723951, 90, 1, 3264419156, 0.1896719694289939, 1738646387],
    }

    @pytest.mark.parametrize("seed", sorted(EXPECTED))
    def test_draws(self, seed):
        assert _draws(PCG64(seed), self.PLAN) == self.EXPECTED[seed]

    def test_cell_seeds(self):
        assert derive_cell_seed(3, 20, 0.5, 0) == 14702169561771910759
        assert derive_cell_seed(2**40 + 7, 2**33, 0.125, 3) == 11754657419717163414


class TestBounds:
    def test_range_above_32_bits_raises(self):
        rng = PCG64(0)
        with pytest.raises(ValueError):
            rng.integers(0, 2**32 + 1)

    def test_empty_range_raises(self):
        with pytest.raises(ValueError):
            PCG64(0).integers(5, 5)

    def test_one_value_draws_nothing(self):
        a, b = PCG64(11), PCG64(11)
        assert a.integers(0, 1) == 0
        assert a.random() == b.random()

    def test_negative_entropy_raises(self):
        with pytest.raises(ValueError):
            seed_words([1, -1], 1)


@pytest.fixture(scope="module")
def np():
    return pytest.importorskip("numpy")


class TestNumpyParity:
    def test_interleaved_draws(self, np):
        pick = random.Random(20260)
        seeds = [0, 1, 2**32 - 1, 2**32, 2**64, 2**64 + 1, 2**127 + 5, 2**200 + 3]
        while len(seeds) < 1000:
            seeds.append(pick.getrandbits(pick.choice((8, 32, 33, 64, 65, 130))))
        for seed in seeds:
            plan = _plan(pick, 60)
            expected = _draws(np.random.default_rng(seed), plan)
            assert _draws(PCG64(seed), plan) == expected, seed

    def test_seed_words(self, np):
        pick = random.Random(7)
        for _ in range(500):
            entropy = [
                pick.getrandbits(pick.choice((1, 31, 32, 33, 64, 100)))
                for _ in range(pick.randint(0, 9))
            ]
            n = pick.randint(1, 5)
            state = np.random.SeedSequence(entropy).generate_state(n, np.uint64)
            assert seed_words(entropy, n) == [int(w) for w in state], entropy

    def test_derive_cell_seed(self, np):
        pick = random.Random(3)
        for _ in range(300):
            base = pick.getrandbits(pick.choice((3, 32, 40, 64, 90)))
            cap = pick.getrandbits(pick.choice((6, 34, 70)))
            frac = pick.choice((0.1, 0.25, 0.5, 1.0, pick.random()))
            rep = pick.getrandbits(pick.choice((2, 33)))
            entropy = [base, cap, int(round(frac * 1e6)), rep]
            expected = np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0]
            assert derive_cell_seed(base, cap, frac, rep) == int(expected), entropy


def test_import_loads_no_numpy():
    code = "import sys, covkb, covkb.cli; print('numpy' in sys.modules)"
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
