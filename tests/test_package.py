import gibbsibp


def test_all_is_sorted_unique_and_resolves():
    names = gibbsibp.__all__
    assert names == sorted(names)
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(gibbsibp, name)] == []


def test_one_size_refusal_type():
    # every size guard raises the type the CLI maps to a usage error
    from gibbsibp import cli, gibbs_weights, special_functions

    assert gibbsibp.TableSizeError is special_functions.TableSizeError
    assert gibbs_weights.TableSizeError is special_functions.TableSizeError
    assert cli.TableSizeError is special_functions.TableSizeError
