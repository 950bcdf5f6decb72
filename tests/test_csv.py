"""The trajectory CSV: numpy's cells against Python's own ``"%.17g"``, and atomic streaming."""

import math
import struct
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from contactmech import _csv
from contactmech.cli import write_csv
from contactmech.integrate import Trajectory


def _trajectory(table):
    """A trajectory whose CSV columns are the columns of ``table``: t, the chart, then one monitor."""
    table = np.asarray(table, dtype=float)
    columns = table.shape[1]
    states = table[:, 1 : max(1, columns - 1)]
    monitors = {"f": table[:, -1]} if columns > 1 else {}
    return Trajectory(table[:, 0], states, monitors, tuple(f"q{i}" for i in range(1, states.shape[1] + 1)))


def _expected(traj, table):
    header = ",".join(["t", *traj.chart, *traj.monitors])
    return "".join([header + "\n", *(",".join("%.17g" % v for v in row) + "\n" for row in table.tolist())]).encode()


def _assert_written(tmp_path, table):
    table = np.asarray(table, dtype=float)
    traj = _trajectory(table)
    write_csv(str(tmp_path / "out.csv"), traj)
    assert (tmp_path / "out.csv").read_bytes() == _expected(traj, table)


def _float(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


_patterns = st.integers(0, 2**64 - 1).map(_float)  # every double: subnormals, NaNs with payloads, +-inf


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(pool=st.lists(st.one_of(_patterns, st.floats()), min_size=1, max_size=40),
       rows=st.sampled_from([1, 511, 512, 513, 1025]), columns=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_csv_rows_match_percent_17g(tmp_path_factory, pool, rows, columns, seed):
    # rows on both sides of a chunk, each cell drawn from the pool, so every drawn value appears
    picks = np.random.default_rng(seed).integers(0, len(pool), size=rows * columns)
    picks[: len(pool)] = np.arange(min(len(pool), picks.size))
    table = np.array(pool)[picks].reshape(rows, columns)
    _assert_written(tmp_path_factory.mktemp("csv"), table)


def _ties():
    """Doubles whose exact decimal has 18 significant digits, the last a 5:
    m / 2**j with m odd and m * 5**j of 18 digits."""
    ties = []
    for j in range(2, 60):
        m = -(-(10**17) // 5**j) | 1
        for step in range(0, 40, 2):
            if m + step < 2**53 and len(str((m + step) * 5**j)) == 18:
                ties.append((m + step) / 2**j)
    return ties


def test_the_ties_are_ties():
    ties = _ties()
    assert len(ties) > 100
    for x in ties:
        digits = Decimal(x).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5, x


def _neighbours(values):
    return [w for v in values for w in (np.nextafter(v, -math.inf), v, np.nextafter(v, math.inf))]


EDGES = {
    "signed_zeros_and_nans": [0.0, -0.0, math.nan, _float(0xFFF8000000000000), _float(0x7FF0000000000001),
                              _float(0xFFFFFFFFFFFFFFFF)],
    "infinities_and_subnormals": [math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072009e-308,
                                  2.2250738585072014e-308, 1.7976931348623157e308],
    "range_ends": _neighbours([1e-280, -1e-280, 1e280, -1e280]),
    "powers_of_ten": _neighbours([float(f"1e{k}") for k in range(-300, 301)]),
    "notation_switches": _neighbours([1e-5, 1e-4, -1e-4, 1e16, 1e17, -1e17, 99999999999999999.0, 0.0001 * (1 - 2**-53)]),
    "ties": [s * x for x in _ties() for s in (1.0, -1.0)],
    # the double nearest 10**k lies below it, and its 17 digits round up to 1e+k
    "round_up_to_a_power_of_ten": [float(f"1e{k}") for k in (-305, -243, -176, -175, -174, -79, -78, -73, -70, -14,
                                                             98, 129, 153, 220)],
}


def test_the_round_ups_are_below_their_powers_of_ten():
    for x in EDGES["round_up_to_a_power_of_ten"]:
        power = Decimal("%.17g" % x)
        assert Decimal(x) < power and power == Decimal(10) ** power.adjusted(), x


@pytest.mark.parametrize("values", EDGES.values(), ids=EDGES.keys())
@pytest.mark.parametrize("columns", [1, 3])
def test_edge_values_give_the_bytes_of_percent_17g(tmp_path, values, columns):
    values = values + [values[0]] * (-len(values) % columns)
    _assert_written(tmp_path, np.array(values).reshape(-1, columns))


def test_a_column_of_zeros_and_a_block_of_fallbacks(tmp_path):
    table = np.random.default_rng(2).normal(size=(700, 3))
    table[:, 1] = 0.0
    _assert_written(tmp_path, table)
    fallbacks = np.array([0.0, -0.0, math.nan, math.inf, -math.inf, 1e-300, 5e-324, 1e300, 1.5e308])
    _assert_written(tmp_path, np.resize(fallbacks, (600, 4)))


def test_a_failed_chunk_leaves_the_old_file(tmp_path, monkeypatch):
    # the rows are written a chunk at a time into a temporary file, which only a
    # complete write renames over the target
    target = tmp_path / "out.csv"
    target.write_bytes(b"old\n")
    calls = []
    format_rows = _csv.format_rows

    def second_fails(block):
        calls.append(len(block))
        if len(calls) == 2:
            raise RuntimeError("formatter failed")
        return format_rows(block)

    monkeypatch.setattr(_csv, "format_rows", second_fails)
    with pytest.raises(RuntimeError, match="formatter failed"):
        write_csv(str(target), _trajectory(np.ones((3 * _csv.CHUNK_ROWS, 2))))
    assert calls == [_csv.CHUNK_ROWS] * 2
    assert target.read_bytes() == b"old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]
