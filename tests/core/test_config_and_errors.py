"""Tests for configuration validation and the exception hierarchy."""

import pytest

from repro import errors
from repro.config import AlgorithmOptions, NumericPolicy


class TestNumericPolicy:
    def test_defaults_sane(self):
        p = NumericPolicy()
        assert 0 < p.zero_tol < 1e-2
        assert 0 < p.rank_tol < 1e-2

    @pytest.mark.parametrize("bad", [0.0, -1e-9, 0.5, 1.0])
    def test_zero_tol_range(self, bad):
        with pytest.raises(ValueError):
            NumericPolicy(zero_tol=bad)

    @pytest.mark.parametrize("bad", [0.0, 0.5])
    def test_rank_tol_range(self, bad):
        with pytest.raises(ValueError):
            NumericPolicy(rank_tol=bad)

    def test_frozen(self):
        with pytest.raises(Exception):
            NumericPolicy().zero_tol = 1e-5  # type: ignore[misc]


class TestAlgorithmOptions:
    def test_defaults(self):
        o = AlgorithmOptions()
        assert o.arithmetic == "float"
        assert o.acceptance == "rank"
        assert o.ordering == "dynamic"
        assert o.selection_lookahead == 4

    @pytest.mark.parametrize(
        "field,value",
        [
            ("arithmetic", "quantum"),
            ("acceptance", "vibes"),
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

    def test_custom_policy_carried(self):
        p = NumericPolicy(zero_tol=1e-10)
        assert AlgorithmOptions(policy=p).policy.zero_tol == 1e-10


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
