"""Arbitration policy laws."""

from repro.core import Fcfs, Request, RoundRobin, StaticPriority


def req(client, priority=0, arrival=0, seq=None):
    return Request(client, priority, arrival, seq if seq is not None else client)


class TestRoundRobin:
    def test_first_grant_is_lowest_id(self):
        policy = RoundRobin()
        chosen = policy.select([req(3), req(1), req(2)], last_client=None)
        assert chosen.client_id == 1

    def test_rotates_after_last_client(self):
        policy = RoundRobin()
        chosen = policy.select([req(0), req(1), req(2)], last_client=1)
        assert chosen.client_id == 2

    def test_wraps_around(self):
        policy = RoundRobin()
        chosen = policy.select([req(0), req(1)], last_client=1)
        assert chosen.client_id == 0

    def test_skips_absent_clients(self):
        policy = RoundRobin()
        chosen = policy.select([req(0), req(3)], last_client=1)
        assert chosen.client_id == 3

    def test_full_rotation_is_fair(self):
        policy = RoundRobin()
        last = None
        grants = []
        for _ in range(8):
            chosen = policy.select([req(0), req(1), req(2), req(3)], last)
            grants.append(chosen.client_id)
            last = chosen.client_id
        assert grants[:4] == [0, 1, 2, 3]
        assert grants[4:] == [0, 1, 2, 3]


class TestStaticPriority:
    def test_lowest_priority_value_wins(self):
        policy = StaticPriority()
        chosen = policy.select([req(0, priority=5), req(1, priority=2)], None)
        assert chosen.client_id == 1

    def test_tie_broken_by_submission_order(self):
        policy = StaticPriority()
        chosen = policy.select(
            [req(0, priority=1, seq=10), req(1, priority=1, seq=3)], None
        )
        assert chosen.client_id == 1


class TestFcfs:
    def test_earliest_arrival_wins(self):
        policy = Fcfs()
        chosen = policy.select([req(0, arrival=50), req(1, arrival=10)], None)
        assert chosen.client_id == 1

    def test_same_arrival_uses_seq(self):
        policy = Fcfs()
        chosen = policy.select(
            [req(0, arrival=10, seq=2), req(1, arrival=10, seq=1)], None
        )
        assert chosen.client_id == 1

