"""Recovery latency vs checkpoint interval (beyond the paper).

Shape: a longer checkpoint interval takes fewer checkpoints and replays
more records after each of the same injected crashes; every row
survives all of them.
"""

from conftest import figure


def test_recovery_latency():
    table = figure("recovery")
    rows = sorted(table.rows, key=lambda row: row["interval"])
    assert len({row["restarts"] for row in rows}) == 1 and rows[0]["restarts"] > 0, rows
    checkpoints = [row["checkpoints"] for row in rows]
    replayed = [row["replayed_records"] for row in rows]
    assert checkpoints == sorted(checkpoints, reverse=True), checkpoints
    assert checkpoints[0] > checkpoints[-1], checkpoints
    assert replayed == sorted(replayed) and replayed[0] < replayed[-1], replayed
