"""The shared WIM span table against the construction it replaced.

The sharing schemes rebuild the WIM after placing a boundary: the
valid windows are one cyclic run of ``L`` windows from ``boundary +
1``.  They used to write an all-invalid template and then one or two
range copies from an all-valid one (two when the run wraps past window
n - 1); they now copy one slice of the table row ``L``.  NS marks one
reserved window invalid, which is the run of n - 1 valid windows just
below it.  Checked exhaustively for every window count the sweeps use
and beyond.
"""

import pytest

from repro.windows.window_file import WindowFile

WINDOW_COUNTS = range(3, 41)


def two_slice_wim(n, boundary, length):
    """The old rebuild: every window invalid but the cyclic run of
    ``length`` windows starting just below ``boundary``."""
    bitmap = bytearray(b"\x01" * n)
    valid = bytes(n)
    start = boundary + 1
    if start == n:
        start = 0
    end = start + length
    if end <= n:
        bitmap[start:end] = valid[start:end]
    else:
        bitmap[start:] = valid[start:]
        end -= n
        bitmap[:end] = valid[:end]
    return bytes(bitmap)


@pytest.mark.parametrize("n", WINDOW_COUNTS)
def test_span_slice_matches_two_slice_rebuild(n):
    wf = WindowFile(n)
    spans = wf._wim_spans
    assert len(spans) == n + 1
    for boundary in range(n):
        k = n - 1 - boundary
        for length in range(n + 1):
            assert spans[length][k:k + n] == two_slice_wim(
                n, boundary, length), (n, boundary, length)


@pytest.mark.parametrize("n", WINDOW_COUNTS)
def test_single_invalid_window(n):
    """NS's WIM: exactly the reserved window invalid."""
    wf = WindowFile(n)
    for reserved in range(n):
        wf._wim[:] = b"\x01" * n
        wf.set_wim_only(reserved)
        expected = bytearray(n)
        expected[reserved] = 1
        assert wf._wim == expected
        assert wf.wim == {reserved}


def test_one_table_per_window_count():
    """Built once per size and shared, so a sweep that builds many
    kernels at one size pays for it once."""
    assert WindowFile(12)._wim_spans is WindowFile(12)._wim_spans
    assert WindowFile(12)._wim_spans is not WindowFile(13)._wim_spans
