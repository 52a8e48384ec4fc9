"""Fixture for ``reachability.unread``: public callables with and without a
reader elsewhere in the scanned tree."""

import ast

__all__ = ["exported_only"]


def orphan_function():  # LINT: unread-function
    return 1


def exported_only():  # LINT: unread-exported
    """Listed in this module's ``__all__``, which reads nothing."""
    return 2


def selfish(n):  # LINT: unread-recursive
    return selfish(n - 1) if n else 0


class Orphan:  # LINT: unread-class
    def tally(self):  # LINT: unread-method
        return 0


def facade_entry():
    """Named in the package root's ``__all__``: an entry point."""
    return 3


def read_by_call():
    return 4


def read_by_string():
    return 5


def _private_helper():
    return read_by_call() + getattr(Ledger(), "read_by_string", None)


class Ledger:
    def read_as_attribute(self):
        return self

    def _dispatch(self):
        return Ledger().read_as_attribute()


class Walker(ast.NodeVisitor):
    def visit_Name(self, node):
        self.generic_visit(node)


def register_rule(cls):
    return cls


@register_rule
class RegisteredRule:
    def check_module(self, context):
        return []


RULES = (Walker, _private_helper, RegisteredRule.check_module)
