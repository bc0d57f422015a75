"""errors.prefixed: where an error arose, on an error of the class raised."""

import pytest

from smallpunch.errors import BadConfig, MalformedRow, UnsupportedVersion, prefixed


@pytest.mark.parametrize("cls", [MalformedRow, UnsupportedVersion, BadConfig])
def test_prefixed_keeps_the_class_and_chains_the_cause(cls):
    inner = cls("bad cell")
    with pytest.raises(cls) as caught:
        with prefixed("fold 3"):
            raise inner
    assert type(caught.value) is cls
    assert str(caught.value) == "fold 3: bad cell"
    assert caught.value.__cause__ is inner


def test_nested_labels_read_outermost_first():
    with pytest.raises(MalformedRow, match="^data/m.csv: row 4: non-numeric cell$"):
        with prefixed("data/m.csv"):
            with prefixed("row 4"):
                raise MalformedRow("non-numeric cell")


def test_other_errors_pass_through_unchanged():
    inner = KeyError("k")
    with pytest.raises(KeyError) as caught:
        with prefixed("fold 0"):
            raise inner
    assert caught.value is inner and caught.value.__cause__ is None
    with prefixed("fold 0"):
        pass
