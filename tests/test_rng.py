"""Deterministic per-component random streams."""

from repro.sim.rng import RngFactory


def test_same_seed_same_stream():
    a = RngFactory(42).stream("mac")
    b = RngFactory(42).stream("mac")
    assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]


def test_different_names_independent():
    factory = RngFactory(42)
    a = factory.stream("mac")
    b = factory.stream("interferer")
    assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]


def test_stream_is_cached():
    factory = RngFactory(0)
    assert factory.stream("x") is factory.stream("x")


def test_different_seeds_differ():
    a = RngFactory(1).stream("mac")
    b = RngFactory(2).stream("mac")
    assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]
