from ttcosched.intervals import IntervalSet


def test_merge_and_canonical_form():
    s = IntervalSet([(7, 16), (5, 5), (6, 6)])
    assert s.intervals == [(5, 16)]
    s = IntervalSet([(1, 2), (4, 5)])
    assert s.intervals == [(1, 2), (4, 5)]


def test_snap():
    s = IntervalSet([(5, 5), (7, 16)])
    assert s.min() == 5 and s.max() == 16
    assert s.snap_ge(0) == 5
    assert s.snap_ge(5) == 5
    assert s.snap_ge(6) == 7
    assert s.snap_ge(16) == 16
    assert s.snap_ge(17) is None
    assert s.snap_le(20) == 16
    assert s.snap_le(6) == 5
    assert s.snap_le(4) is None


def test_contains_and_points():
    s = IntervalSet([(0, 3), (8, 12)])
    assert 3 in s and 4 not in s and 8 in s
    assert list(IntervalSet([(1, 2), (9, 10)]).points()) == [1, 2, 9, 10]
