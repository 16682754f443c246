from hypothesis import settings

# every property test draws the same examples on every run and keeps no
# example database; each test names only its own max_examples
settings.register_profile("xscene", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("xscene")
