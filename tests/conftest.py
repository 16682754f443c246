import pytest
from hypothesis import is_hypothesis_test, settings

# every property test draws the same examples on every run and keeps no
# example database; each test names only its own max_examples
settings.register_profile("xscene", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("xscene")

# On a failure hypothesis writes out the falsifying example through libcst,
# whose import warns; under filterwarnings = "error" that warning would end
# the session as an internal error instead of reporting the failure. Only
# the property tests ignore it.
LIBCST_WARNING = pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")


def pytest_collection_modifyitems(items):
    for item in items:
        if is_hypothesis_test(item.function):
            item.add_marker(LIBCST_WARNING)
