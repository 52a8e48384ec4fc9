"""Tests for the Relation container."""

from repro.relational.relation import Relation


class TestAccessors:
    def test_len_iter_bool(self, people):
        assert len(people) == 5
        assert bool(people)
        assert not bool(Relation("empty", people.schema, []))
        assert list(iter(people)) == people.rows

    def test_column(self, people):
        assert people.column("name") == ["ada", "grace", "alan", "edsger", "barbara"]

    def test_distinct_count(self, people):
        assert people.distinct_count("city") == 4
