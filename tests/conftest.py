import pytest

# When a hypothesis test fails, hypothesis's pytest plugin imports libcst to
# write a patch of the falsifying example, and importing libcst raises this
# one DeprecationWarning from mypy_extensions.  Under `-W error` it would end
# the run in an INTERNALERROR that hides the falsifying example.  No hypothesis
# setting skips that import (Verbosity.quiet drops the example itself), and a
# command-line `-W error` overrides an ini filter, so the filter is an item
# mark, scoped to that third-party message.
_LIBCST_IMPORT_WARNING = r"ignore:mypy_extensions\.TypedDict is deprecated:DeprecationWarning"


def pytest_collection_modifyitems(items):
    for item in items:
        item.add_marker(pytest.mark.filterwarnings(_LIBCST_IMPORT_WARNING))
