"""Tests for the deterministic process-pool fan-out."""

from repro.perf.parallel import run_units


def _unit(a, b):
    """Module-level so it is picklable by worker processes."""
    return (a * 10 + b, a - b)


class TestRunUnits:
    def test_serial_matches_list_comprehension(self):
        args = [(i, j) for i in range(4) for j in range(3)]
        assert run_units(_unit, args, workers=1) == [_unit(*a) for a in args]

    def test_parallel_matches_serial_in_order(self):
        args = [(i, j) for i in range(5) for j in range(4)]
        serial = run_units(_unit, args, workers=1)
        parallel = run_units(_unit, args, workers=3)
        assert parallel == serial

    def test_progress_called_once_per_unit(self):
        args = [(i, 0) for i in range(5)]
        messages = []
        run_units(_unit, args, workers=1, progress=messages.append)
        assert len(messages) == 5
        assert messages[0] == "unit 1 done (1/5)"
        assert messages[-1] == "unit 5 done (5/5)"

    def test_empty_and_single(self):
        assert run_units(_unit, [], workers=4) == []
        assert run_units(_unit, [(2, 1)], workers=4) == [(21, 1)]
