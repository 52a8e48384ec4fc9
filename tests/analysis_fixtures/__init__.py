"""Fixture package root: its ``__all__`` is the facade the reachability rule
treats as read."""

__all__ = ["facade_entry"]
