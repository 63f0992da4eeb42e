"""Figure 16: impact of the windowing measure (time vs count).

Paper shape: time-based slicing throughput is independent of the
number of concurrent windows; count-based slicing decays as windows
multiply (smaller slices mean more shift work per late record) but
stays well ahead of the tuple buffer, the best non-slicing alternative
for count windows.
"""

from conftest import save_table

from repro.experiments.figures import fig16_measures

WINDOWS = (4, 16, 64)


def run():
    return fig16_measures(windows_list=WINDOWS, num_records=4_000)


def test_fig16_measures():
    table = run()
    save_table(table)
    series = table.series("series", "throughput")

    # Time-based slicing roughly flat across window counts.
    time_series = series["slicing (time)"]
    assert max(time_series) / min(time_series) < 6, time_series

    # Count-based slicing overtakes the tuple buffer (the fastest
    # alternative) as windows multiply, and the advantage widens.
    count_slicing = series["slicing (count)"]
    count_buffer = series["tuple buffer (count)"]
    assert count_slicing[-1] > 1.5 * count_buffer[-1], (count_slicing, count_buffer)
    ratios = [fast / slow for fast, slow in zip(count_slicing, count_buffer)]
    assert ratios[-1] > ratios[0], ratios

    # Count-based is slower than time-based at high window counts
    # (the paper's decay effect).
    assert count_slicing[-1] < time_series[-1], (count_slicing, time_series)
