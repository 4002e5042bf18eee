"""The package's public names: the contract users import from ``pentafuzz``."""

import importlib
import inspect

import pentafuzz

MODULES = ("algebra", "errors", "kernel", "measures", "metrics")

PUBLIC_NAMES = {
    "AMBIGUOUS",
    "CONTRADICTORY",
    "EPSILON",
    "FALSE",
    "LUKASIEWICZ",
    "MIN_MAX",
    "NORM_PAIRS",
    "PRODUCT",
    "TRUE",
    "UNKNOWN",
    "Aggregation",
    "AuditReport",
    "AxiomResult",
    "BipolarFuzzySet",
    "BipolarValue",
    "CardinalityKind",
    "DatasetError",
    "DistanceKind",
    "EntropyKind",
    "EntropyResult",
    "Interval",
    "NormPair",
    "PentaArrays",
    "PentaValue",
    "PentafuzzError",
    "SetOpKind",
    "TauOmega",
    "UndefinedValueError",
    "UniverseMismatchError",
    "ValidationError",
    "ValueClass",
    "VectorNorm",
    "audit_sample",
    "axiom_audit",
    "bipolar_distance",
    "bipolar_similarity",
    "border_cardinality",
    "cardinality_array",
    "cardinality_point",
    "cardinality_set",
    "classify",
    "complement",
    "decompose",
    "dual",
    "entropy_array",
    "entropy_point",
    "entropy_set",
    "from_penta",
    "from_tau_omega",
    "fuzzy_distance",
    "get_norm_pair",
    "intersection",
    "interval_distance",
    "matches_paper_pattern",
    "negation",
    "omega_distance",
    "pairwise_matrix",
    "reduced_penta",
    "set_distance",
    "set_op",
    "to_penta",
    "to_tau_omega",
    "tau_distance",
    "union",
}


def module_names():
    return {m: importlib.import_module(f"pentafuzz.{m}").__all__ for m in MODULES}


def test_the_package_exports_its_64_public_names_once():
    assert len(PUBLIC_NAMES) == 64
    assert set(pentafuzz.__all__) == PUBLIC_NAMES
    assert len(pentafuzz.__all__) == len(PUBLIC_NAMES)


def test_a_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from pentafuzz import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == PUBLIC_NAMES


def test_each_name_is_its_defining_modules_object():
    for module, names in module_names().items():
        for name in names:
            obj = getattr(pentafuzz, name)
            assert obj is getattr(importlib.import_module(f"pentafuzz.{module}"), name), name
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__module__ == f"pentafuzz.{module}", name


def test_no_name_is_declared_by_two_modules():
    seen = {}
    for module, names in module_names().items():
        assert len(set(names)) == len(names), module
        for name in names:
            assert name not in seen, (name, seen.get(name), module)
            seen[name] = module

