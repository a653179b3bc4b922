"""The one statement of ``hankel_operator``'s route rule under tests/, so that a new rule edits this file only.

FFT above need * len(y) = 2^22, else split while 11 < len(y) <= 22 from 1024 outputs on; FFT blocks of
X = max(1024, pow2 >= 8 len(y)), or one block of _fast_length(need) while need <= X.  Other tests read the plan."""

import re
from pathlib import Path

import pytest

from hilbert_tensors import GeneratingVector
from hilbert_tensors.core import _FFT_PRODUCT_THRESHOLD, _SMALL_KERNEL, _SPLIT_MIN_ROWS, _fast_length, hankel_operator


@pytest.mark.parametrize(
    "order, support, out_len, route",
    [
        # each order's last dimension before the one-block FFT route and its first on it; two multi-block heads
        (2, 1448, 1448, "direct"), (2, 1449, 1449, "fft"), (3, 836, 836, "direct"), (3, 837, 837, "fft"),
        (4, 591, 591, "direct"), (4, 592, 592, "fft"), (4, 16, 100_000, "fft"), (3, 151, 3796 * 4, "fft"),
        # each side of the split: len(y) = 11, 12, 22 and 23, and 1023 and 1024 outputs at len(y) = 15
        (2, 11, 100_000, "direct"), (2, 12, 100_000, "split"), (4, 8, 100_000, "split"), (2, 23, 100_000, "direct"),
        (3, 8, 1023, "direct"), (3, 8, 1024, "split"),
    ],
)
def test_route_rule(order, support, out_len, route):
    assert (_FFT_PRODUCT_THRESHOLD, _SMALL_KERNEL, _SPLIT_MIN_ROWS) == (1 << 22, 11, 1024)
    y_len = (order - 1) * (support - 1) + 1
    need = out_len + y_len - 1
    plan = hankel_operator(GeneratingVector.hilbert(need), order, support, out_len)
    assert (plan.y_len, plan.need, plan.route) == (y_len, need, route)
    if need * y_len <= _FFT_PRODUCT_THRESHOLD:
        split = _SMALL_KERNEL < y_len <= 2 * _SMALL_KERNEL and out_len >= _SPLIT_MIN_ROWS
        assert (plan.route, plan.block, plan.step, plan.n_blocks) == ("split" if split else "direct", None, None, None)
    else:
        block = max(1024, 1 << (8 * y_len - 1).bit_length())
        block = _fast_length(need) if need <= block else block
        step = block - y_len + 1
        assert (plan.block, plan.step, plan.n_blocks) == (block, step, -(-out_len // step))


def test_route_rule_is_stated_in_this_file_only():
    # no other test compares the product with the threshold, restates the split's bounds or reads the slot by position
    restated = re.compile(
        r"[<>]=?\s*_FFT_PRODUCT_THRESHOLD|_FFT_PRODUCT_THRESHOLD\s*[<>]"
        r"|\b(11|_SMALL_KERNEL)\s*<=?\s*y_len|y_len\s*<=?\s*(22|2 \* _SMALL_KERNEL)"
        r"|_slot_plan\([^)]*\)\s*\[|\bslot\s*\[\s*\d|,\s*\w+\s*=\s*_slot_plan\([^)]*\)\s*($|#)"
    )
    here = Path(__file__)
    found = [f"{path.name}:{i}: {line.strip()}" for path in sorted(here.parent.glob("*.py")) if path != here
             for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1) if restated.search(line)]
    assert found == []
