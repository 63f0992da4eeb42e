"""Figure 16: impact of the windowing measure (time vs count).

Paper shape: time-based slicing throughput is independent of the
number of concurrent windows; count-based slicing is slower (shift work
per late record) but stays well ahead of the tuple buffer, the best
non-slicing alternative for count windows, as windows multiply.
"""

from conftest import FULL_SCALE, figure


def test_fig16_measures():
    table = figure("fig16")
    series = table.series("series", "throughput")
    time_series = series["slicing (time)"]
    count_slicing = series["slicing (count)"]
    count_buffer = series["tuple buffer (count)"]

    # Count-based is slower than time-based at high window counts, and
    # the slicing / buffer ratio on count windows widens with the count.
    assert count_slicing[-1] < time_series[-1], (count_slicing, time_series)
    ratios = [fast / slow for fast, slow in zip(count_slicing, count_buffer)]
    assert ratios[-1] > ratios[0], ratios
    if not FULL_SCALE:
        return

    # Time-based slicing flat across window counts.
    assert max(time_series) / min(time_series) < 2, time_series
    # Count-based slicing overtakes the tuple buffer (the fastest
    # alternative) as windows multiply.
    assert count_slicing[-1] > 3 * count_buffer[-1], (count_slicing, count_buffer)
