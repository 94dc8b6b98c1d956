"""The code-line counter of tests/code_size.py."""

from code_size import code_lines

# Eight code lines: the import, the def, both lines of the bracketed
# statement, the return, the class, and both lines of the class
# attribute's string.  The docstrings, comments and blank lines do not
# count.
SYNTHETIC = '''"""Module docstring,
over two lines."""

# A comment line.
import math  # a trailing comment


def f(x):
    """Function docstring."""
    # An indented comment.
    total = (x +
             math.pi)
    return total


class C:
    """Class docstring."""

    text = """a string
that is not a docstring"""
'''


def test_counts_the_lines_that_hold_code():
    assert code_lines(SYNTHETIC) == 8
