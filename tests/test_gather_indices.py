"""Every synthesized scheme is rows(idx) of one construction, and `check`
reads back the index form that synthesis gathered.

Each synthesizer hands `_gather` the function that builds the
construction's rows k and no other (`HadamardMatrix.row`, `walsh_rows` or
`Composition.rows`), an n x k array idx of row indices (k = 1 for zz, 3 for
general) and whether the first column is dropped (reversal); the test builds
every row of the construction itself.
`canonical_indices` of the stored blocks must then be the canonical index of
each gathered row: idx itself for Sylvester, Paley and Kronecker
constructions, whose rows are the canonical matrix's, and
`walsh_indices(rows)[idx]` for the composed construction, whose Walsh rows
come in another order.
"""

import numpy as np
import pytest

from decoupler import schemes
from decoupler.hadamard import canonical_indices, walsh_indices
from test_rows_on_demand import construction_order
from test_synth_golden import GOLDEN, _cases


@pytest.mark.parametrize("name,cap", sorted(GOLDEN))
def test_check_reads_back_the_gathered_indices(monkeypatch, name, cap):
    calls = []
    gather = schemes._gather

    def recording(rows, idx, reverse=False):
        calls.append((rows, idx, reverse))
        return gather(rows, idx, reverse)

    monkeypatch.setattr(schemes, "_gather", recording)
    composed = set()
    for key, make in _cases(name, cap):
        calls.clear()
        try:
            scheme, task = make()
        except Exception:  # refusals are frozen by test_synth_golden
            continue
        (rows, idx, reverse), = calls
        assert reverse == (task.kind == "reverse")
        rows = rows(np.arange(construction_order(rows)))  # every row of the construction
        canon = canonical_indices([rows])[0]  # the canonical index of each construction row
        if not np.array_equal(canon, np.arange(len(rows))):
            assert np.array_equal(canon, walsh_indices(rows)), key
            composed.add(int(key.split()[0]))
        got = canonical_indices(scheme.blocks, reverse)
        assert got is not None, key
        assert np.array_equal(np.stack(got, axis=1), canon[idx]), key
    # the one composed pick at these sizes is the general selection at n = 19
    assert composed == ({19} if name == "select_general" else set())
