"""best_order reads one recipe per order it scans; the cap only bounds the
scan.  Its answers for every n <= cap are frozen byte for byte."""

import hashlib

import pytest

from decoupler import hadamard
from decoupler.errors import SizeCapExceeded
from decoupler.hadamard import best_order, recipe_str

# sha256 over "n,achieved,recipe" lines (a refusal: "n,refused,message")
FROZEN = {
    64: "2fac1ac7ea7c82c782f32d3df453daf9d4e761e8ff21557e2d6bc7de1584ec56",
    100: "5867be00eebb10884bc9eeb008e37529be1bbff2f36167f78c47034b3a76263c",
    1024: "207d51ad96bed3b374d1ce355fc09c0e0cae214e2d848a2d7737ea7abf95f01b",
    4096: "79f549099c2b19bdb4af88e24d33570f42937fe73625a5e0d4453972d0c4f3cd",
}


def _line(n, cap):
    try:
        entry = best_order(n, cap)
    except SizeCapExceeded as exc:
        return f"{n},refused,{exc}\n"
    return f"{n},{entry.achieved},{recipe_str(entry.recipe)}\n"


@pytest.mark.parametrize("cap", sorted(FROZEN))
def test_best_order_is_frozen(cap):
    text = "".join(_line(n, cap) for n in range(1, cap + 1))
    assert hashlib.sha256(text.encode()).hexdigest() == FROZEN[cap]


def test_a_query_reads_only_the_orders_it_needs():
    hadamard._recipe.cache_clear()
    assert best_order(1001, 16384).achieved == 1008
    # 1001..1008 and the factors tried for them, not the 16384 orders under the cap
    assert hadamard._recipe.cache_info().currsize <= 20
