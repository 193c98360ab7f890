"""JSON schema loading, dumping, and rejection of malformed documents."""

from fractions import Fraction

import numpy as np
import pytest

from fockdyn.errors import InvalidInputError
from fockdyn.io import (
    Rows,
    dump_approx,
    dump_function,
    dump_verdict,
    load_exact_spec,
    load_function,
    load_symbol,
)
from fockdyn.classify import classify_cyclicity
from fockdyn.fockmat.enumeration import approx_numbers
from fockdyn.relations import PolarEigenvalue
from fockdyn.symbol import AffineSymbol


SYMBOL_DOC = {
    "dimension": 2,
    "A": [
        [{"re": 0.5, "im": 0.0}, {"re": 0.1, "im": -0.2}],
        [{"re": 0.0, "im": 0.0}, {"re": 0.25, "im": 0.0}],
    ],
    "b": [{"re": 0.3, "im": 0.0}, {"re": -0.1, "im": 0.2}],
}


def test_symbol_roundtrip():
    # every entry of the document reaches the symbol unchanged
    sym = load_symbol(SYMBOL_DOC)
    assert sym.dimension == 2
    assert sym.a[0, 1] == pytest.approx(0.1 - 0.2j)
    assert np.array_equal(sym.a, [[0.5, 0.1 - 0.2j], [0.0, 0.25]])
    assert np.array_equal(sym.b, [0.3, -0.1 + 0.2j])


def test_symbol_accepts_bare_numbers():
    doc = {"dimension": 1, "A": [[0.5]], "b": [0.25]}
    sym = load_symbol(doc)
    assert sym.a[0, 0] == 0.5 and sym.b[0] == 0.25


def test_symbol_rejects_malformed_documents():
    bad_docs = [
        {"A": [[0.5]], "b": [0.0]},  # missing dimension
        {"dimension": 2, "A": [[0.5]], "b": [0.0, 0.0]},  # wrong matrix shape
        {"dimension": 1, "A": [[0.5]], "b": [0.0, 0.0]},  # wrong vector length
        {"dimension": 1, "A": [[{"re": 0.5, "bogus": 1}]], "b": [0.0]},
        {"dimension": 1, "A": [[{"re": "x"}]], "b": [0.0]},
        {"dimension": 1.5, "A": [[0.5]], "b": [0.0]},
        {"dimension": True, "A": [[0.5]], "b": [0.1]},  # a bool is no integer
    ]
    for doc in bad_docs:
        with pytest.raises(InvalidInputError):
            load_symbol(doc)


def test_exact_spec_roundtrip():
    spec = (
        PolarEigenvalue(Fraction(1, 2), Fraction(1, 3)),
        PolarEigenvalue("r1", "t1"),
    )
    doc = {
        "eigenvalues": [
            {"modulus": {"num": 1, "den": 2}, "arg": {"pi_rational": {"num": 1, "den": 3}}},
            {"modulus": {"log_generic": "r1"}, "arg": {"generic": "t1"}},
        ]
    }
    again = load_exact_spec(doc)
    assert again == spec


def test_exact_spec_rejects_zero_denominator():
    doc = {
        "eigenvalues": [
            {"modulus": {"num": 1, "den": 0}, "arg": {"pi_rational": {"num": 0, "den": 1}}}
        ]
    }
    with pytest.raises(InvalidInputError):
        load_exact_spec(doc)


def test_exact_spec_caps_bit_length():
    def doc(num, den):
        return {"eigenvalues": [
            {"modulus": {"num": 1, "den": 2}, "arg": {"pi_rational": {"num": num, "den": den}}}
        ]}

    spec = load_exact_spec(doc(1, 2**63 - 1))
    assert spec[0].arg == Fraction(1, 2**63 - 1)
    for num, den in ((1, 2**63), (-(2**63), 1), (2**200, 2**200)):
        with pytest.raises(InvalidInputError, match="exceed 63 bits"):
            load_exact_spec(doc(num, den))


def test_function_roundtrip_and_ordering():
    f = {(2, 0): 1.5 + 0j, (0, 0): -2.0 + 1j, (0, 1): 0.5j}
    doc = dump_function(f)
    alphas = [tuple(e["alpha"]) for e in doc["coefficients"]]
    assert alphas == [(0, 0), (0, 1), (2, 0)]
    back = load_function(doc, dimension=2)
    assert set(back) == set(f)
    assert back[(0, 0)] == pytest.approx(-2.0 + 1j)


def test_function_rejects_bad_entries():
    with pytest.raises(InvalidInputError):
        load_function({"coefficients": [{"alpha": [0, -1], "value": 1.0}]}, dimension=2)
    with pytest.raises(InvalidInputError):
        load_function(
            {
                "coefficients": [
                    {"alpha": [1], "value": 1.0},
                    {"alpha": [1], "value": 2.0},
                ]
            },
            dimension=1,
        )
    with pytest.raises(InvalidInputError):
        load_function({"coefficients": [{"alpha": [1], "value": 1.0}]}, dimension=2)


def test_verdict_document_shape():
    exact = (
        PolarEigenvalue(Fraction(1, 2), Fraction(0)),
        PolarEigenvalue(Fraction(1, 4), Fraction(0)),
    )
    sym = AffineSymbol(np.diag([0.5, 0.25]).astype(complex), np.zeros(2), exact=exact)
    doc = dump_verdict(classify_cyclicity(sym))
    assert doc["status"] == "not_cyclic"
    assert doc["reasons"][0]["code"] == "RELATION_FOUND"
    assert tuple(doc["reasons"][0]["alpha"]) in ((-2, 1), (2, -1))


def test_approx_document_shape():
    rep = approx_numbers(AffineSymbol([[0.5]], [0.2]), 4, oracle="reduced")
    doc = dump_approx(rep)
    assert set(doc) == {"prefactor", "terms", "closed_form_sum", "oracle"}
    assert [tuple(t["alpha"]) for t in doc["terms"]] == [(0,), (1,), (2,), (3,)]
    assert doc["oracle"]["max_rel_delta"] < 1e-8


def test_rows_hold_columns_of_one_kind():
    # a tuple field is passed as its slot columns: alpha = (0, 1), then (2, 3)
    rows = Rows(("value", "alpha"), ([0.5, 0.25], ((0, 2), (1, 3))))
    assert len(rows) == 2 and rows.fields == ("alpha", "value") and rows.widths == (2, None)
    assert rows.columns == [(0, 2), (1, 3), [0.5, 0.25]]
    assert list(rows) == [{"alpha": (0, 1), "value": 0.5}, {"alpha": (2, 3), "value": 0.25}]
    assert len(Rows(("x",), [[]])) == 0
    for fields, columns in [((), ()), (("x", "x"), ([], [])), (("x",), ([], [])), ((1,), ([],))]:
        with pytest.raises(ValueError):
            Rows(fields, columns)
    with pytest.raises(ValueError):
        Rows(("x", "y"), ([0.5], [0.5, 0.25]))
    with pytest.raises(ValueError):  # slots of unequal length
        Rows(("x",), [[(0, 1), (2,)]])
    for column in ([(0.5,)], [0.5, None], [np.float64(0.5)], [False]):
        with pytest.raises(TypeError):
            Rows(("x",), [column])


def test_rows_refuse_mixed_leaf_columns():
    # every leaf column has the length of the others, plain ints in a slot
    # and plain floats in a float field
    with pytest.raises(ValueError):
        Rows(("alpha", "value"), (((0, 1), (0,)), [0.5, 0.25]))
    with pytest.raises(ValueError):
        Rows(("alpha", "value"), (((0, 1), (0, 1)), [0.5]))
    with pytest.raises(TypeError):
        Rows(("alpha", "value"), (((0, 1), (0, 1.0)), [0.5, 0.25]))
    with pytest.raises(TypeError):
        Rows(("alpha", "value"), (((0, 1), (0, 1)), [0.5, 1]))
    with pytest.raises(TypeError):
        Rows(("alpha",), [((0, 1), [0.5, 0.25])])


def coefficients(*entries):
    return {"coefficients": list(entries)}


@pytest.mark.parametrize("doc, message", [
    (coefficients({"alpha": [True, 0], "value": 1.0}),
     "coefficients[0].alpha must be nonnegative integers"),
    (coefficients({"alpha": [0, 0], "value": 1.0}, {"alpha": [1, 0], "value": True}),
     "coefficients[1].value must be a number, got True"),
    (coefficients({"alpha": [0, 0], "value": {"re": 1.0, "im": False}}),
     "coefficients[0].value.im must be a number, got False"),
    (coefficients({"alpha": [0, 0], "value": {"re": 1.0, "imag": 2.0}}),
     "unexpected keys ['imag'] in coefficients[0].value"),
    (coefficients({"alpha": [1, 0], "value": 1.0}, {"alpha": [1, 0], "value": 2.0}),
     "duplicate multi-index (1, 0)"),
    (coefficients({"alpha": [0, 0], "value": 1.0}, {"alpha": [1], "value": 1.0}),
     "coefficients[1].alpha has length 1, expected 2"),
    (coefficients({"alpha": [0, 0]}), "coefficients[0] must carry 'alpha' and 'value'"),
    (coefficients({"alpha": [0, 0], "value": 10**400}),
     "coefficients[0].value is an integer of 1329 bits, beyond the float range"),
    # the first bad entry is named, whatever the later ones hold
    (coefficients({"alpha": [0, 0], "value": 1.0}, {"alpha": [0, 1], "value": "x"},
                  {"alpha": [-1, 0], "value": 1.0}, {"alpha": [0, 1], "value": 1.0}),
     "coefficients[1].value must be a number, got 'x'"),
    (coefficients({"alpha": [0, 1], "value": 1.0}, {"alpha": [0, 1], "value": None}),
     "duplicate multi-index (0, 1)"),
])
def test_function_refusals_name_the_first_bad_entry(doc, message):
    with pytest.raises(InvalidInputError) as info:
        load_function(doc, dimension=2)
    assert str(info.value) == message


def test_function_values_load_as_numbers_or_parts():
    bare = load_function(coefficients(
        {"alpha": [0, 0], "value": 2}, {"alpha": [1, 0], "value": -0.5},
        {"alpha": [0, 3], "value": 2**70}), dimension=2)
    assert bare == {(0, 0): 2 + 0j, (1, 0): -0.5 + 0j, (0, 3): complex(float(2**70))}
    assert set(map(type, bare.values())) == {complex}
    parts = load_function(coefficients(
        {"alpha": [0, 0], "value": {"re": -0.0}}, {"alpha": [2, 0], "value": {"im": 3}},
        {"alpha": [0, 1], "value": 1.5}), dimension=2)
    assert list(parts) == [(0, 0), (2, 0), (0, 1)]
    assert parts == {(0, 0): 0j, (2, 0): 3j, (0, 1): 1.5 + 0j}
    assert str(parts[(0, 0)]) == "(-0+0j)"
    assert load_function(coefficients(), dimension=3) == {}
