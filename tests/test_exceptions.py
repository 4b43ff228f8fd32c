"""Tests for the exception hierarchy."""

from __future__ import annotations

import pytest

from repro import exceptions as exc


def test_all_exceptions_derive_from_repro_error():
    for name in exc.__all__:
        cls = getattr(exc, name)
        assert issubclass(cls, exc.ReproError)


def test_invalid_vertex_error_carries_context():
    error = exc.InvalidVertexError(7, 5)
    assert error.vertex == 7
    assert error.n == 5
    assert "7" in str(error)
    assert isinstance(error, IndexError)


def test_invalid_edge_error_is_key_error():
    error = exc.InvalidEdgeError((1, 2))
    assert error.edge == (1, 2)
    assert isinstance(error, KeyError)


def test_lifetime_error_reports_label_and_lifetime():
    error = exc.LifetimeError(9, 4)
    assert error.label == 9
    assert error.lifetime == 4
    assert isinstance(error, ValueError)


def test_unreachable_vertex_error_reports_pair():
    error = exc.UnreachableVertexError(0, 3)
    assert error.source == 0
    assert error.target == 3
    assert "0" in str(error) and "3" in str(error)


def test_configuration_error_is_value_error():
    assert issubclass(exc.ConfigurationError, ValueError)


def test_catching_base_class_catches_all():
    with pytest.raises(exc.ReproError):
        raise exc.SerializationError("boom")
