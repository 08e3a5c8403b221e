"""Tests for configuration validation and the exception hierarchy."""

import dataclasses

import pytest

from repro import errors
from repro.config import AlgorithmOptions, resolve_comm_timeout


class TestAlgorithmOptions:
    def test_defaults(self, monkeypatch):
        # The ordering default follows REPRO_ORDERING; pin the built-in one.
        monkeypatch.delenv("REPRO_ORDERING", raising=False)
        o = AlgorithmOptions()
        assert o.ordering == "dynamic"
        assert o.selection_lookahead == 4

    @pytest.mark.parametrize(
        "field,value",
        [
            ("ordering", "alphabetical"),
            ("selection_lookahead", -1),
            ("selection_lookahead", 2.5),
            ("selection_lookahead", True),
            ("pair_chunk", 0),
        ],
    )
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ValueError):
            AlgorithmOptions(**{field: value})

    def test_ordering_default_follows_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_ORDERING", raising=False)
        assert AlgorithmOptions().ordering == "dynamic"
        monkeypatch.setenv("REPRO_ORDERING", "paper")
        assert AlgorithmOptions().ordering == "paper"
        # explicit arguments always win over the environment
        assert AlgorithmOptions(ordering="natural").ordering == "natural"

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    def test_non_finite_comm_timeout_rejected(self, monkeypatch, raw):
        # A nan or inf poll timeout would only fail later, inside
        # Connection.poll, with an untyped error.
        with pytest.raises(ValueError, match="positive and finite"):
            resolve_comm_timeout(float(raw))
        monkeypatch.setenv("REPRO_COMM_TIMEOUT_S", raw)
        with pytest.raises(ValueError, match="positive and finite"):
            resolve_comm_timeout()
        with pytest.raises(ValueError, match="positive and finite"):
            AlgorithmOptions()

    @pytest.mark.parametrize("field", ["arithmetic", "policy"])
    def test_no_arithmetic_or_tolerance_option(self, field):
        # Modes are exact integers: there is no arithmetic to choose and
        # no zero tolerance to set.
        assert field not in {f.name for f in dataclasses.fields(AlgorithmOptions)}
        with pytest.raises(TypeError):
            AlgorithmOptions(**{field: None})

    def test_no_acceptance_option(self):
        # The rank test is the only acceptance test; the adjacency test
        # lives on as a test oracle (tests/core/adjacency_oracle.py).
        fields = {f.name for f in dataclasses.fields(AlgorithmOptions)}
        assert "acceptance" not in fields
        with pytest.raises(TypeError):
            AlgorithmOptions(acceptance="rank")


class TestExceptionHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            errors.NetworkError,
            errors.ParseError,
            errors.CompressionError,
            errors.LinAlgError,
            errors.AlgorithmError,
            errors.PartitionError,
            errors.CommunicatorError,
            errors.OutOfMemoryError,
            errors.ReversibleIdentityError,
            errors.DependentPartitionError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, errors.ReproError)

    def test_parse_error_is_network_error(self):
        assert issubclass(errors.ParseError, errors.NetworkError)

    def test_algorithm_subtypes(self):
        assert issubclass(errors.ReversibleIdentityError, errors.AlgorithmError)
        assert issubclass(errors.DependentPartitionError, errors.AlgorithmError)

    def test_oom_context(self):
        e = errors.OutOfMemoryError(
            "x", iteration=3, required_bytes=10, capacity_bytes=5
        )
        assert (e.iteration, e.required_bytes, e.capacity_bytes) == (3, 10, 5)

    def test_reversible_identity_carries_names(self):
        e = errors.ReversibleIdentityError("x", reactions=("a", "b"))
        assert e.reactions == ("a", "b")

    def test_one_except_clause_catches_everything(self, toy):
        from repro import compute_efms

        try:
            compute_efms(toy, method="nope")  # type: ignore[arg-type]
        except errors.ReproError:
            pass
        else:  # pragma: no cover
            pytest.fail("ReproError not raised")
