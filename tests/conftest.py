from hypothesis import settings

# Deterministic examples and no per-example deadline, so the suite gives the
# same result on every run and on slow machines.  Individual tests lower
# max_examples where one example is expensive.
settings.register_profile("dominsert", deadline=None, max_examples=100, derandomize=True)
settings.load_profile("dominsert")
