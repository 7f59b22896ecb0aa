import importlib

import delq

#: Public helpers that were removed because nothing in the package used them.
REMOVED = ("DelayFreeSolution", "solve_delay_free", "forward_simulate", "gains",
           "sym_eig", "SymEigDecomposition", "range_contained", "candidate_wh")


def test_every_exported_name_resolves():
    assert len(set(delq.__all__)) == len(delq.__all__)
    for name in delq.__all__:
        assert getattr(delq, name) is not None, name


def test_removed_names_are_gone():
    modules = [importlib.import_module(f"delq.{mod}")
               for mod in ("linalg", "model", "riccati", "lmei")]
    for name in REMOVED:
        assert name not in delq.__all__
        assert not hasattr(delq, name), name
        for mod in modules:
            assert not hasattr(mod, name), (mod.__name__, name)
