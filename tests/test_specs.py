import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grouptensor import (
    SpecError,
    group_from_spec,
    parse_group_spec,
    parse_words,
    subgroup_from_words,
)
from grouptensor import specs
from grouptensor.specs import parse_word


def test_parse_named_families():
    assert parse_group_spec("D8").terms == (("D", 8, None),)
    assert parse_group_spec("C2xC2").terms == (("C", 2, None), ("C", 2, None))
    assert parse_group_spec(" c?  ".replace("c?", "C3")).terms == (("C", 3, None),)
    assert parse_group_spec("E2^3").terms == (("E", 2, 3),)
    assert parse_group_spec("S4 x C2").terms == (("S", 4, None), ("C", 2, None))


def test_parse_round_trip():
    for text in ["D8", "C2xC2", "E2^3", "S3xC2", "Q16", "A5"]:
        spec = parse_group_spec(text)
        again = parse_group_spec(spec.render())
        assert again.terms == spec.terms
        assert again.render() == spec.render()


def test_parse_errors_carry_position():
    with pytest.raises(SpecError, match="position 0"):
        parse_group_spec("Z5")
    with pytest.raises(SpecError, match="position 2"):
        parse_group_spec("C2yC2")
    with pytest.raises(SpecError):
        parse_group_spec("")
    with pytest.raises(SpecError):
        parse_group_spec("C2x")
    with pytest.raises(SpecError):
        parse_group_spec("C2^2")
    with pytest.raises(SpecError):
        parse_group_spec("E2")


def test_build_errors():
    with pytest.raises(SpecError):
        group_from_spec("D9")
    with pytest.raises(SpecError):
        group_from_spec("Q12")
    with pytest.raises(SpecError):
        group_from_spec("E4^2")  # base must be prime
    with pytest.raises(SpecError):
        group_from_spec("S4", max_order=16)
    with pytest.raises(SpecError):
        group_from_spec("C100")


def test_terms_above_the_max_order_are_refused_before_they_are_built(monkeypatch):
    # a huge term (C99999999, E2^99) would exhaust memory if built first
    calls = []

    def counted(name):
        build = getattr(specs, name)

        def wrapper(*args):
            calls.append(name)
            return build(*args)

        return wrapper

    for name in ("cyclic", "dihedral", "elementary_abelian"):
        monkeypatch.setattr(specs, name, counted(name))
    for text in ("C65", "D66", "E2^7"):
        with pytest.raises(SpecError, match=r"above the max 64"):
            group_from_spec(text)
    assert calls == []
    assert group_from_spec("C64").order == group_from_spec("E2^6").order == 64


def test_max_order_is_a_default_bound():
    # every term of C8xC16 is small, but the product exceeds the default 64
    with pytest.raises(SpecError, match="128"):
        group_from_spec("C8xC16")
    assert group_from_spec("C8xC16", max_order=128).order == 128


def test_build_products_relabel_positionally():
    g = group_from_spec("C2xC4")
    assert set(g.generator_labels) == {"a1", "a2"}
    assert g.element_order(g.generator_labels["a1"]) == 2
    assert g.element_order(g.generator_labels["a2"]) == 4
    klein = group_from_spec("C2xC2")
    assert klein.order == 4 and klein.exponent() == 2


def test_word_parsing():
    word = parse_word("a^2*b")
    assert word.factors == (("a", 2), ("b", 1))
    assert word.render() == "a^2*b"
    words = parse_words("a^2, a*b")
    assert len(words) == 2
    with pytest.raises(SpecError):
        parse_word("2a")
    with pytest.raises(SpecError):
        parse_word("a^2b")
    with pytest.raises(SpecError):
        parse_words("")


def test_word_evaluation_and_subgroups():
    d8 = group_from_spec("D8")
    h = subgroup_from_words(d8, "a^2,a*b")
    assert h.elements == (0, 2, 5, 7)
    with pytest.raises(SpecError):
        subgroup_from_words(d8, "z^2")
    c4 = group_from_spec("C4")
    assert subgroup_from_words(c4, "a^2").order == 2
    assert subgroup_from_words(c4, "a^-1").order == 4


_family = st.sampled_from(
    ["C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "D4", "D6", "D8", "Q8", "S3", "A4", "E2^2"]
)


@settings(max_examples=30, deadline=None)
@given(st.lists(_family, min_size=1, max_size=3))
def test_round_trip_property(parts):
    text = "x".join(parts)
    spec = parse_group_spec(text)
    rendered = spec.render()
    assert parse_group_spec(rendered).render() == rendered
    assert rendered.replace(" ", "") == text
